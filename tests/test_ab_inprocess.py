import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import lowrank_gd

ROOT = Path(__file__).resolve().parent.parent


def _ab(parent: Path, case: str = "rf-diagonal"):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), str(parent),
         "--rounds", "1", "--cases", case],
        capture_output=True, text=True, timeout=300,
    )


def test_ab_inprocess_times_this_tree_against_itself():
    # One round of the smallest case, of the recorded symmetric runs, of
    # the sloped and the indefinite two-factor runs and of the symmetric and
    # two-factor runs on a rotated target, this tree on both sides: a row
    # per case with equal iteration counts, and exit 0.
    cases = ("rf-diagonal", "sym-records", "asym-sloped", "asym-indefinite", "sym-rotated", "asym-rotated")
    done = _ab(ROOT, ",".join(cases))
    assert done.returncode == 0, done.stderr
    for case in cases:
        row = next(line for line in done.stdout.splitlines() if line.startswith(case))
        assert "us/iter" in row
        this, parent = row.rsplit("  ", 1)[1].split(" / ")
        assert this == parent and int(this) > 0


def test_ab_inprocess_fails_on_unequal_iteration_counts(tmp_path):
    # A tree whose spectrum has a wider gap converges in fewer iterations,
    # which fails the tool.
    shutil.copytree(ROOT / "src" / "lowrank_gd", tmp_path / "lowrank_gd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "lowrank_gd" / "__init__.py", "a") as fh:
        fh.write("\n_spectrum = experiment_spectrum\n"
                 "experiment_spectrum = lambda hi, lo, r, d: _spectrum(hi, lo + 1, r, d)\n")
    done = _ab(tmp_path)
    assert done.returncode == 1
    assert "iteration counts differ" in done.stderr


def test_ab_inprocess_step_case_times_rf_step_on_a_dense_array(monkeypatch):
    # The dense step case calls only the public rf_step, so it runs against
    # any tree; here on this one with a 50 x 50 array.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import ab_inprocess
    rng = np.random.default_rng(0)
    sigma = rng.normal(size=(50, 50))
    sigma += sigma.T
    ms, calls = ab_inprocess.step_case(lowrank_gd, sigma, rng.normal(size=(50, ab_inprocess.R)))
    assert ms > 0 and calls == (ab_inprocess.DENSE_CALLS,)
