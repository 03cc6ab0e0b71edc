"""Time this tree's ``lowrank_gd`` against another tree's in one process,
in alternating rounds.

    python tools/ab_inprocess.py PARENT_SRC [--rounds N] [--cases NAME,...]

PARENT_SRC is the root of another checkout of this project, or its ``src``
directory. Both packages are imported into one interpreter from their
source directories, this tree's as ``this_lowrank_gd`` and the other's as
``parent_lowrank_gd``. Each case first runs once on each side untimed;
then every round runs each case on both sides, and the side that goes
first alternates from round to round, so drift in the host's speed falls
on both sides alike.

Cases (default: all of them):

- ``rf-diagonal``, ``rgd-diagonal``: ``run_eig`` with the retraction-free
  or the retracted method at the eig-retraction shape: d=500, r=10, the
  ``experiment`` spectrum from 7 to 2 over a unit floor, eta 0.05, epsilon
  1e-4, one run from ``gaussian_factor(500, 10, seed)`` for each seed 1-8.
  A round's value is the loop time of the eight runs (``Trace.wall_time``)
  per iteration, in us.
- ``rf-rotated``, ``rgd-rotated``: the same on that spectrum rotated by a
  Haar-random orthogonal basis (the QR of a seeded Gaussian with the signs
  of R's diagonal moved into Q), so Sigma is a dense 500 x 500 matrix.
- ``sym-rotated``, ``asym-rotated``: the symmetric ``run`` from
  ``gaussian_factor(500, 10, seed)`` and the regularized ``run_asym`` from
  ``gaussian_pair(500, 500, 10, seed)``, for each seed 1-8, on that rotated
  spectrum with the same eta, epsilon and first and last record only, so
  every solver's error on a rotated target is timed.
- ``eig-step-dense``: 20 calls of the public ``rf_step`` on a dense
  symmetric 5000 x 5000 array and a 5000 x 10 frame; a round's value is ms
  per call. Every tree has ``rf_step``, whatever its step map is called;
  its per-call setup (Sigma, the step buffers, the map's scratch) is small
  next to the d^2 r product.
- ``sym-records``: the symmetric ``run`` with a diagnostics record at every
  iteration (``record_every=1``), at d=1000, r=10 on the ``experiment``
  spectrum from 7 to 2, eta 0.05, epsilon 1e-6, one run from
  ``alpha * gaussian_factor(1000, 10, 1)`` for each alpha in 0.5, 5e-4 and
  5e-7. A round's value is the loop time of the three runs per iteration,
  in us, so it times the record path (the record's singular values) on
  top of the step and the error.
- ``asym-sloped``: one regularized ``run_asym`` at d=20000, r=10 on the
  ``experiment`` spectrum from 7 to 2 over a tail sloped linearly from 1
  to 0.5, eta 0.05, epsilon 1e-4, first and last record only, from
  ``gaussian_pair(20000, 20000, 10, 1)`` at alpha 1. The sloped tail makes
  the diagonal head longer than one row block, so it times the two-factor
  step's row blocks (about 270 iterations). A round's value is the loop
  time per iteration, in us.
- ``asym-indefinite``: one regularized ``run_asym`` at d=1000, r=10 on the
  ``experiment`` spectrum from 7 to 2 over a unit floor whose last entry
  is -0.5, eta 0.05, epsilon 1e-4, first and last record only, from
  ``gaussian_pair(1000, 1000, 10, 1)`` at alpha 0.5. Its rank-r SVD
  truncation is still its eigen truncation (lambda_r >= -lambda_min), so
  the error reads the eigenbasis split (about 290 iterations). A round's
  value is the loop time per iteration, in us.
- ``asym-truncated``: the ``asym-indefinite`` run with a last entry of
  -8. Its rank-r SVD truncation keeps that entry (lambda_r = 2 < 8), so
  the error reads the split over the first r - 1 rows and the last one
  (about 396 iterations). A round's value is the loop time per iteration,
  in us.

For each case it prints the median and quartiles of each side's round
values, the rounds in which this tree was faster, and both sides'
iteration counts (summed over the seeds or alphas; the step case counts
its calls).

Exit status: 1 when the two sides' iteration counts differ in any run of
any case, 0 otherwise. Timings are reported, never gated.
"""

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

from golden_diff import ROOT, source_dir

D, R, SEEDS = 500, 10, range(1, 9)
DENSE_D, DENSE_CALLS = 5000, 20
SYM_D, SYM_ALPHAS = 1000, (0.5, 5e-4, 5e-7)
SLOPED_D, INDEFINITE_D = 20000, 1000
CASES = ("rf-diagonal", "rgd-diagonal", "rf-rotated", "rgd-rotated", "sym-rotated", "asym-rotated",
         "eig-step-dense", "sym-records", "asym-sloped", "asym-indefinite", "asym-truncated")
# Case prefix -> one run of its solver from a seed's draw: (lg, target, cfg, seed) -> Trace.
SOLVES = {
    "rf": lambda lg, t, cfg, seed: lg.run_eig(lg.EigState(lg.gaussian_factor(D, R, seed)), t, cfg),
    "rgd": lambda lg, t, cfg, seed: lg.run_eig(lg.EigState(lg.gaussian_factor(D, R, seed)), t, cfg, method="rgd"),
    "sym": lambda lg, t, cfg, seed: lg.run(lg.FactorState(lg.gaussian_factor(D, R, seed)), t, cfg),
    "asym": lambda lg, t, cfg, seed: lg.run_asym(lg.AsymState(*lg.gaussian_pair(D, D, R, seed)), t, cfg),
}


def load(src: Path, name: str):
    """The ``lowrank_gd`` package under ``src``, imported as ``name``."""
    package = src / "lowrank_gd"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def haar_orthogonal(n: int, seed: int) -> np.ndarray:
    """A Haar-random n x n orthogonal matrix (Mezzadri, Notices of the AMS,
    2007): Q of a seeded Gaussian's QR, with the signs of R's diagonal
    moved into Q."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def run_case(lg, solve, basis):
    """A case of eight runs of ``solve`` (a ``SOLVES`` entry): (loop us per
    iteration, per-seed iterations)."""
    target = lg.make_target(lg.experiment_spectrum(7, 2, R, D), R, basis=basis)
    cfg = lg.SolverConfig(eta=0.05, epsilon=1e-4, max_iters=10000, record_every=10000)
    wall, iters = 0.0, []
    for seed in SEEDS:
        trace = solve(lg, target, cfg, seed)
        wall += trace.wall_time
        iters.append(trace.iterations)
    return 1e6 * wall / sum(iters), tuple(iters)


def records_case(lg):
    """A case of three recorded symmetric runs: (loop us per iteration,
    per-alpha iterations)."""
    target = lg.make_target(lg.experiment_spectrum(7, 2, R, SYM_D), R)
    cfg = lg.SolverConfig(eta=0.05, epsilon=1e-6, max_iters=10000, record_every=1)
    start = lg.gaussian_factor(SYM_D, R, 1)
    wall, iters = 0.0, []
    for alpha in SYM_ALPHAS:
        trace = lg.run(lg.FactorState(alpha * start), target, cfg)
        wall += trace.wall_time
        iters.append(trace.iterations)
    return 1e6 * wall / sum(iters), tuple(iters)


def asym_case(lg, values: np.ndarray, alpha: float):
    """One regularized two-factor run on a diagonal target from ``alpha``
    times the seed-1 pair: (loop us per iteration, iterations)."""
    d = values.size
    cfg = lg.SolverConfig(eta=0.05, epsilon=1e-4, max_iters=10000, record_every=10000)
    state = lg.AsymState(*(alpha * f for f in lg.gaussian_pair(d, d, R, 1)))
    trace = lg.run_asym(state, lg.make_target(values, R), cfg, regularized=True)
    return 1e6 * trace.wall_time / trace.iterations, (trace.iterations,)


def step_case(lg, sigma: np.ndarray, frame: np.ndarray):
    """One retraction-free step on a dense array: (ms per call, calls)."""
    state = lg.EigState(frame)
    start = time.perf_counter()
    for _ in range(DENSE_CALLS):
        lg.rf_step(state, sigma, 0.05)
    return 1e3 * (time.perf_counter() - start) / DENSE_CALLS, (DENSE_CALLS,)


def case_runner(case: str):
    """``lg -> (value, counts)`` for one case, and the value's unit."""
    if case == "sym-records":
        return records_case, "us/iter"
    if case == "asym-sloped":
        values = np.concatenate([np.linspace(7, 2, R), np.linspace(1, 0.5, SLOPED_D - R)])
        return (lambda lg: asym_case(lg, values, 1.0)), "us/iter"
    if case in ("asym-indefinite", "asym-truncated"):
        values = np.concatenate([np.linspace(7, 2, R), np.ones(INDEFINITE_D - R)])
        values[-1] = -0.5 if case == "asym-indefinite" else -8.0
        return (lambda lg: asym_case(lg, values, 0.5)), "us/iter"
    if case == "eig-step-dense":
        rng = np.random.default_rng(0)
        sigma = rng.normal(size=(DENSE_D, DENSE_D))
        sigma += sigma.T
        frame = rng.normal(size=(DENSE_D, R)) / np.sqrt(DENSE_D)
        return (lambda lg: step_case(lg, sigma, frame)), "ms/call"
    solve = SOLVES[case.split("-")[0]]
    basis = haar_orthogonal(D, 0) if case.endswith("rotated") else None
    return (lambda lg: run_case(lg, solve, basis)), "us/iter"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root or src directory of the parent tree")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds per case (default 10)")
    parser.add_argument("--cases", default=",".join(CASES),
                        help=f"comma-separated cases (default: all of {', '.join(CASES)})")
    args = parser.parse_args(argv)
    cases = args.cases.split(",")
    unknown = [c for c in cases if c not in CASES]
    if unknown or args.rounds < 1:
        parser.error(f"unknown cases {unknown}" if unknown else "--rounds must be at least 1")
    sides = {"this": load(ROOT / "src", "this_lowrank_gd"),
             "parent": load(source_dir(args.parent.resolve()), "parent_lowrank_gd")}
    status = 0
    print(f"{'case':<15} {'this: median [q1, q3]':>34} {'parent: median [q1, q3]':>34} "
          f"{'this faster':>12}  iterations this / parent", flush=True)
    for case in cases:
        run, unit = case_runner(case)
        values = {name: [] for name in sides}
        counts = {name: run(lg)[1] for name, lg in sides.items()}  # untimed first run
        for k in range(args.rounds):
            for name in (("this", "parent") if k % 2 == 0 else ("parent", "this")):
                value, count = run(sides[name])
                values[name].append(value)
                status |= count != counts[name]
        status |= counts["this"] != counts["parent"]
        cells = []
        for name in sides:
            q1, median, q3 = np.percentile(values[name], [25, 50, 75])
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] {unit}")
        wins = sum(a < b for a, b in zip(values["this"], values["parent"]))
        print(f"{case:<15} {cells[0]:>34} {cells[1]:>34} {f'{wins}/{args.rounds}':>12}  "
              f"{sum(counts['this'])} / {sum(counts['parent'])}", flush=True)
    if status:
        print("iteration counts differ", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
