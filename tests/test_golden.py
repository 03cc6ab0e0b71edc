"""The shipped configs reproduce their committed CSVs byte for byte.

``golden_csv_sha256.json`` maps each OpenBLAS core name to, for each
config under ``configs/``, the SHA-256 of every CSV it writes under that
kernel: kernels round some products differently, so each has its own
hashes, and the test reads the loaded core through ctypes
(``conftest.openblas_core``). The bench config runs its first
BENCH_REPEATS repeats only: repeat k depends on nothing but seed
base + k, so a prefix checks the same code paths in a fraction of the
time. A change of operation order in a step moves the hashes; the
textbook-oracle test below bounds how far such a change may move the
shipped trajectories before they are re-pinned.
"""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from conftest import openblas_core, textbook_records
from lowrank_gd import gaussian_factor, gaussian_pair, make_diagonal_target, parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "tests" / "golden_csv_sha256.json").read_text())
CORE = openblas_core()
BENCH_REPEATS = 10


def _repeat(name: str) -> int:
    return int(name.rsplit("_rep", 1)[1].removesuffix(".csv"))


@pytest.mark.parametrize("stem", sorted({stem for configs in MANIFEST.values() for stem in configs}))
def test_shipped_config_csvs_match_golden(stem, tmp_path):
    if CORE not in MANIFEST:
        pytest.fail(f"the golden manifest has no hashes for OpenBLAS core {CORE!r} (it has {sorted(MANIFEST)})")
    raw = json.loads((ROOT / "configs" / f"{stem}.json").read_text())
    expected = MANIFEST[CORE][stem]
    if raw["kind"] == "bench":
        raw["repeats"] = BENCH_REPEATS
        expected = {name: h for name, h in expected.items() if _repeat(name) < BENCH_REPEATS}
    run_experiment(parse_config(raw), out_dir=tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert got == expected


# Relative tolerance of the error, singular-value and proj_error columns
# (the projection error's split identity has no cancelling terms), and the
# absolute one, in units of lambda_1, for sigma1_p and balance, which are
# differences of O(lambda_1) terms.
ORACLE_RTOL = 1e-10
ORACLE_LAMBDA1_ATOL = 1e-12
EXACT_COLUMNS = ("iter", "in_r", "in_r2")


@pytest.mark.parametrize("stem", ["sym_magnitudes", "asym_regularization", "eig_descending"])
def test_shipped_trajectories_match_textbook_oracle(stem, tmp_path):
    # Repeat 0 of every variant, against the update with fresh arrays in
    # its textbook operation order: same iteration count and flags, every
    # float column within the tolerances above.
    raw = json.loads((ROOT / "configs" / f"{stem}.json").read_text())
    raw["repeats"] = 1
    cfg = parse_config(raw)
    run_experiment(cfg, out_dir=tmp_path)
    target = make_diagonal_target(cfg.values, cfg.dim, cfg.rank)
    d, r, seed = cfg.dim, cfg.rank, cfg.seed
    variants = []
    for alpha in cfg.alphas:
        if cfg.kind == "sym":
            variants.append((f"a{alpha:g}", alpha * gaussian_factor(d, r, seed), None))
        elif cfg.kind == "asym":
            n0, n1 = gaussian_pair(d, d, r, seed)
            variants += [(f"a{alpha:g}_{'reg' if f else 'unreg'}", (alpha * n0, alpha * n1), f) for f in (True, False)]
        else:
            variants += [(f"a{alpha:g}_{short}", alpha * gaussian_factor(d, r, seed), m)
                         for short, m in (("rf", "retraction_free"), ("rgd", "rgd"))]
    for name, state0, variant in variants:
        with open(tmp_path / f"{cfg.kind}_{name}_rep0.csv") as fh:
            got = list(csv.DictReader(fh))
        want = textbook_records(cfg.kind, state0, target, cfg.eta, cfg.epsilon, cfg.max_iters, variant)
        assert len(got) == len(want) and list(got[0]) == list(want[0]), name
        for g, w in zip(got, want):
            for col, value in w.items():
                if col in EXACT_COLUMNS:
                    assert int(g[col]) == int(value), (name, col, w["iter"])
                    continue
                if col in ("sigma1_p", "balance"):
                    tol = ORACLE_LAMBDA1_ATOL * target.lambda_top
                else:
                    tol = ORACLE_RTOL * abs(value)
                assert abs(float(g[col]) - value) <= tol, (name, col, w["iter"])
