"""Compare the CSVs every shipped config writes under this tree with the
ones a parent source tree writes, column by column.

    python tools/golden_diff.py PARENT_SRC [--configs NAME,...] [--keep DIR]

PARENT_SRC is the root of another checkout of this project (for example
one made with ``git worktree add`` or ``git archive``), or its ``src``
directory. Each tree runs every config under ``configs/`` of this tree in
a fresh interpreter with that tree's package on ``PYTHONPATH``; the bench
config runs all its repeats, though the golden manifest pins only the
first ten, which ``tests/test_golden.py`` runs. For each config it prints
how many CSV hashes moved, whether the row counts and the ``iter``,
``in_r`` and ``in_r2`` columns are equal, and the worst absolute and
relative difference of every other column. A relative difference is
taken against the larger magnitude of the two entries.
It then compares the ``runs`` lists of the two ``summary.json`` files in
order, on each run's variant, repeat, seed, CSV file name, iterations,
converged and diverged, and prints ``summary runs equal`` or the first
entry that differs.

It never writes ``tests/golden_csv_sha256.json``. With ``--keep DIR`` the
CSVs stay under ``DIR/this`` and ``DIR/parent``, so the hashes of the ones
that moved can be pinned by hand after review.

Exit status: 1 when a CSV is missing on one side, a row count, a header
or one of the three exact columns differs, or the summaries' runs differ;
0 otherwise.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COLUMNS = ("iter", "in_r", "in_r2")
SUMMARY_FIELDS = ("variant", "repeat", "seed", "csv_path", "iterations", "converged", "diverged")

# Runs one config with the package on PYTHONPATH: argv is the config file
# and the output directory.
_RUN = r"""
import json, sys
from lowrank_gd import parse_config, run_experiment
raw = json.loads(open(sys.argv[1]).read())
run_experiment(parse_config(raw), out_dir=sys.argv[2])
"""


def source_dir(tree: Path) -> Path:
    """The directory holding ``lowrank_gd`` in a checkout or its ``src``."""
    for candidate in (tree / "src", tree):
        if (candidate / "lowrank_gd" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"no lowrank_gd package under {tree}")


def write_csvs(src: Path, config: Path, out: Path):
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _RUN, str(config), str(out)], env=env, check=True)


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compare(this: Path, parent: Path) -> tuple:
    """(report lines, whether an exact property differs) for one config."""
    names = sorted({p.name for p in this.glob("*.csv")} | {p.name for p in parent.glob("*.csv")})
    moved, broken, lines = 0, [], []
    worst = {}  # column -> [max abs, max rel]
    for name in names:
        a, b = this / name, parent / name
        if not (a.is_file() and b.is_file()):
            broken.append(f"{name} exists in one tree only")
            continue
        if digest(a) == digest(b):
            continue
        moved += 1
        (head_a, rows_a), (head_b, rows_b) = read_csv(a), read_csv(b)
        if head_a != head_b:
            broken.append(f"{name}: header {head_a} != {head_b}")
            continue
        if len(rows_a) != len(rows_b):
            broken.append(f"{name}: {len(rows_a)} rows != {len(rows_b)}")
            continue
        for i, column in enumerate(head_a):
            pairs = [(ra[i], rb[i]) for ra, rb in zip(rows_a, rows_b)]
            if column in EXACT_COLUMNS:
                if any(x != y for x, y in pairs):
                    broken.append(f"{name}: column {column} differs")
                continue
            stats = worst.setdefault(column, [0.0, 0.0])
            for x, y in pairs:
                x, y = float(x), float(y)
                if x == y or (math.isnan(x) and math.isnan(y)):
                    continue
                diff = abs(x - y)
                stats[0] = max(stats[0], diff)
                stats[1] = max(stats[1], diff / max(abs(x), abs(y)))
    lines.append(f"  {moved}/{len(names)} hashes moved")
    lines.append("  row counts and " + ", ".join(EXACT_COLUMNS) + (" differ" if broken else " equal"))
    lines += [f"    {item}" for item in broken]
    for column, (absolute, relative) in worst.items():
        lines.append(f"  {column}: max abs {absolute:.2g}, max rel {relative:.2g}")
    return lines, bool(broken)


def summary_entry(run: dict) -> dict:
    """The compared fields of one summary run; a CSV path by its file name."""
    return {f: Path(run[f]).name if f == "csv_path" else run[f] for f in SUMMARY_FIELDS}


def compare_summaries(this: dict, parent: dict) -> tuple:
    """(report line, whether the runs differ) for two ``summary.json`` objects."""
    pairs = zip_longest(map(summary_entry, this["runs"]), map(summary_entry, parent["runs"]))
    for i, (a, b) in enumerate(pairs):
        if a != b:
            return f"  summary run {i} differs: this {a} != parent {b}", True
    return "  summary runs equal", False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root or src directory of the parent tree")
    parser.add_argument("--configs", help="comma-separated config names (default: every one under configs/)")
    parser.add_argument("--keep", type=Path, help="write the CSVs under this directory and keep them")
    args = parser.parse_args(argv)
    trees = {"this": ROOT / "src", "parent": source_dir(args.parent.resolve())}
    configs = sorted((ROOT / "configs").glob("*.json"))
    if args.configs:
        wanted = set(args.configs.split(","))
        configs = [c for c in configs if c.stem in wanted]
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = args.keep or Path(tmp)
        for config in configs:
            outs = {name: base / name / config.stem for name in trees}
            for name, src in trees.items():
                write_csvs(src, config, outs[name])
            lines, broken = compare(outs["this"], outs["parent"])
            line, differs = compare_summaries(*(json.loads((outs[name] / "summary.json").read_text())
                                                for name in ("this", "parent")))
            print(f"{config.stem} ({json.loads(config.read_text())['kind']}):", flush=True)
            print("\n".join(lines + [line]), flush=True)
            status |= broken or differs
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
