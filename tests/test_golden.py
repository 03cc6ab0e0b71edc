"""The shipped configs reproduce their committed CSVs byte for byte.

``golden_csv_sha256.json`` maps each config under ``configs/`` to the
SHA-256 of every CSV it writes. The bench config runs its first
BENCH_REPEATS repeats only: repeat k depends on nothing but seed
base + k, so a prefix checks the same code paths in a fraction of the
time.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lowrank_gd import parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "tests" / "golden_csv_sha256.json").read_text())
BENCH_REPEATS = 10


def _repeat(name: str) -> int:
    return int(name.rsplit("_rep", 1)[1].removesuffix(".csv"))


@pytest.mark.parametrize("stem", sorted(MANIFEST))
def test_shipped_config_csvs_match_golden(stem, tmp_path):
    raw = json.loads((ROOT / "configs" / f"{stem}.json").read_text())
    expected = MANIFEST[stem]
    if raw["kind"] == "bench":
        raw["repeats"] = BENCH_REPEATS
        expected = {name: h for name, h in expected.items() if _repeat(name) < BENCH_REPEATS}
    run_experiment(parse_config(raw), out_dir=tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert got == expected
