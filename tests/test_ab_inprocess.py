import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab(parent: Path):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), str(parent),
         "--rounds", "1", "--cases", "rf-diagonal"],
        capture_output=True, text=True, timeout=300,
    )


def test_ab_inprocess_times_this_tree_against_itself():
    # One round of the smallest case, this tree on both sides: a row for the
    # case with equal iteration counts, and exit 0.
    done = _ab(ROOT)
    assert done.returncode == 0, done.stderr
    row = next(line for line in done.stdout.splitlines() if line.startswith("rf-diagonal"))
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
