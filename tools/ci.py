"""Run this project's checks, one named step each, as its CI workflow does.

    python tools/ci.py [--base TREE] [--steps NAME,...]

TREE is the root of another checkout of this project, such as a pull
request's base commit checked out with ``git worktree add``. The steps
run in the order given (by default all of them, in the order below),
each in child processes with this tree's ``src`` first on
``PYTHONPATH``, so a checkout needs no install. The commands' output goes
to stdout. Each step's report and a line with its outcome go to the
markdown file named by ``$GITHUB_STEP_SUMMARY``, or to stdout when that
is unset.

- ``lines``: ``wc -l src/lowrank_gd/*.py``; with TREE, its count too and
  the difference.
- ``golden-diff`` (needs TREE): ``tools/golden_diff.py TREE``, its output
  in the report too. Moved hashes alone are reported; the step fails
  where the tool exits 1 (a missing CSV, or a row count, a header, an
  exact column or the summaries' runs differ).
- ``ab`` (needs TREE): ``tools/ab_inprocess.py TREE --rounds 2``. Timings
  are reported; the step fails where the tool exits 1 (the two trees'
  iteration counts differ).
- ``tier1``: ``pytest -q --continue-on-collection-errors`` under
  ``OPENBLAS_CORETYPE=Haswell``, the AVX2 kernel, whose hashes the golden
  manifest holds, so the result does not depend on the CPU.
- ``kernels``: ``tools/tier1_by_kernel.py -- tests/test_golden.py``, the
  golden hashes under each OpenBLAS kernel this CPU can execute.
- ``bench-tests``: ``pytest perfbench/tests``.
- ``cli-smoke``: ``lowrank-gd run`` on the sym, asym and both eig configs
  and ``lowrank-gd bench`` on the bench config, into a temporary
  directory (``python -m lowrank_gd.cli`` where ``lowrank-gd`` is not on
  ``PATH``).
- ``bench-smoke``: ``perfbench/run.py --workload NAME --seconds 1`` for
  each workload of ``BENCHMARK.json``; fails on a workload whose last
  output line does not report ``"correct": true``.
- ``demos``: every ``demos/*.py``.

A step of several commands runs them all and fails if any fails. Without
TREE, as on a push, the steps that need it are skipped with a line saying
so; a TREE that is not a directory counts as absent, with a line naming
it.

Exit status: 0 when every step that ran passed, 1 when one failed, 2 for
an unknown step.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTHON = sys.executable
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
# (command, config stem) of each CLI smoke run.
SMOKE = (("run", "sym_magnitudes"), ("run", "asym_regularization"), ("run", "eig_descending"),
         ("run", "eig_equal_top"), ("bench", "bench_retraction"))


def run(*cmd, capture: bool = False, **env) -> tuple:
    """(exit status, stdout or None) of ``cmd`` run in this tree with ``env``
    on top of ``ENV``; captured output is echoed to stdout too."""
    sys.stdout.flush()
    proc = subprocess.run([str(c) for c in cmd], cwd=ROOT, env=dict(ENV, **env), text=True,
                          stdout=subprocess.PIPE if capture else None)
    if capture:
        print(proc.stdout, end="", flush=True)
    return proc.returncode, proc.stdout


def report(text: str):
    """Append markdown to the step summary: ``$GITHUB_STEP_SUMMARY``, else stdout."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)


def wc(tree: Path) -> tuple:
    """(``wc -l`` lines, total) of ``src/lowrank_gd/*.py`` under ``tree``."""
    counts = [(p.read_bytes().count(b"\n"), p.relative_to(tree))
              for p in sorted((tree / "src" / "lowrank_gd").glob("*.py"))]
    total = sum(n for n, _ in counts)
    return [f"{n:>5} {name}" for n, name in counts] + [f"{total:>5} total"], total


def lines(base):
    this, total = wc(ROOT)
    text = ["### `wc -l src/lowrank_gd/*.py`", "```", *this]
    if base:
        that, base_total = wc(base)
        text += ["", "base commit:", *that, "",
                 f"difference: {total - base_total:+d} lines ({base_total} -> {total})"]
    report("\n".join(text + ["```"]))
    return 0


def golden_diff(base):
    status, out = run(PYTHON, "tools/golden_diff.py", base, capture=True)
    report(f"### `tools/golden_diff.py` against the base commit\n```\n{out}```")
    return status


def ab(base):
    return run(PYTHON, "tools/ab_inprocess.py", base, "--rounds", "2")[0]


def tier1(base):
    return run(PYTHON, "-m", "pytest", "-q", "--continue-on-collection-errors", OPENBLAS_CORETYPE="Haswell")[0]


def kernels(base):
    return run(PYTHON, "tools/tier1_by_kernel.py", "--", "tests/test_golden.py")[0]


def bench_tests(base):
    return run(PYTHON, "-m", "pytest", "perfbench/tests")[0]


def cli_smoke(base):
    exe = shutil.which("lowrank-gd")
    cli = [exe] if exe else [PYTHON, "-m", "lowrank_gd.cli"]
    with tempfile.TemporaryDirectory() as out:
        return int(any([run(*cli, command, "--config", f"configs/{stem}.json", "--out", Path(out) / stem)[0]
                        for command, stem in SMOKE]))


def bench_smoke(base):
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    failed = []
    for name in workloads:
        out = run(PYTHON, "perfbench/run.py", "--workload", name, "--seconds", "1", capture=True)[1]
        try:
            correct = json.loads(out.splitlines()[-1])["correct"] is True
        except (IndexError, ValueError, KeyError, TypeError):
            correct = False
        if not correct:
            print(f"workload {name} did not report correct: true")
            failed.append(name)
    return int(bool(failed) or not workloads)


def demos(base):
    return int(any([run(PYTHON, demo)[0] for demo in sorted(ROOT.glob("demos/*.py"))]))


# Step name -> its function of the base tree (None without one), which
# returns the step's exit status.
STEPS = {"lines": lines, "golden-diff": golden_diff, "ab": ab, "tier1": tier1, "kernels": kernels,
         "bench-tests": bench_tests, "cli-smoke": cli_smoke, "bench-smoke": bench_smoke, "demos": demos}
NEEDS_BASE = ("golden-diff", "ab")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--steps", default=",".join(STEPS),
                        help=f"comma-separated steps (default: all of {', '.join(STEPS)})")
    args = parser.parse_args(argv)
    steps = args.steps.split(",")
    unknown = [s for s in steps if s not in STEPS]
    if unknown:
        parser.error(f"unknown steps {unknown}")
    base = args.base.resolve() if args.base and args.base.is_dir() else None
    if args.base and not base:
        print(f"no base tree at {args.base}: it counts as absent", flush=True)
    failed = False
    for name in steps:
        print(f"=== {name}", flush=True)
        if name in NEEDS_BASE and not base:
            report(f"- `{name}`: skipped, it needs --base")
            continue
        start = time.perf_counter()
        status = STEPS[name](base)
        failed |= status != 0
        outcome = "passed" if status == 0 else f"failed (exit {status})"
        report(f"- `{name}`: {outcome} in {time.perf_counter() - start:.0f} s")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
