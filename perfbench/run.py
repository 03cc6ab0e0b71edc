"""Benchmark of lowrank-gd: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's experiment through ``harness.run_experiment`` into
a scratch directory under ``perfbench/.work`` (removed afterwards),
checks every output, and prints one line per metric with its unit,
then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports its
per-layer metrics from spans recorded by wrappers around each layer's
module functions (see layers.py). ``--seed`` is the base seed handed to
``run_experiment`` (repeat k uses seed + k); it defaults to the seed in
the workload's config.

The benchmark runs under whatever BLAS and ``LOWRANK_GD_THREADS``
settings it is given and records them; it pins no threads.

Exit status: 0 with a result, 1 if the run raised, 2 if the checkout
has no ``src/lowrank_gd`` or the arguments are invalid.
"""

import argparse
import contextlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import provenance
import stats
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# name -> (config under perfbench/workloads, variants whose runs feed solve_ms).
# sym-trace: the shipped sym_magnitudes config with a record every
#   iteration, so linalg SVDs, the record path, CSV rows and pool/BLAS
#   contention dominate.
# sym-solve: the same spectrum at d=20000 recording only the first and
#   last iterate; the step and error kernels dominate and the 1.6 MB
#   factor with its temporaries exceeds a 2 MiB L2. A record-path change
#   should not move it.
# asym-balance: the shipped asym_regularization config; the only
#   workload through asym_gd and the dense Target.matrix path.
# eig-retraction: the shipped bench_retraction config with 40 instead
#   of 200 interleaved repeats so one run holds several experiments;
#   sequential, file-count-bound I/O, eigenspace and spd_inv_sqrt.
#   solve_ms covers the retraction-free runs only.
WORKLOADS = {
    "sym-trace": ("sym_trace.json", None),
    "sym-solve": ("sym_solve.json", None),
    "asym-balance": ("asym_balance.json", None),
    "eig-retraction": ("eig_retraction.json", ("rf",)),
}

SETUP_PROBES = 5
MIN_EXPERIMENTS = 3
# Enough solver runs for solve_ms.tail to sit above the median.
MIN_SOLVES = 2 * stats.TAIL_BEYOND + 1
PROBE_TIMEOUT_S = 150


def _probe(*args) -> dict:
    """Run probe.py in a fresh interpreter and return its JSON line."""
    cmd = [sys.executable, str(HERE / "probe.py"), *map(str, args)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Bench:
    """One invocation: the workload's config and seed, a scratch directory,
    the digests every experiment must reproduce, and the failure count."""

    def __init__(self, lg, config, config_path, seed, work, variants=None):
        self.lg, self.config, self.config_path = lg, config, config_path
        self.seed, self.work = seed, work
        self.variants = variants  # the variants whose runs feed solve_ms; None for all
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def count(self, summary, failures):
        self.attempted += len(summary["runs"])
        self.failed += len(failures)
        self.reasons += [f"{name}: {'; '.join(why)}" for name, why in sorted(failures.items())]

    def experiment(self, name, tracer=None):
        """One timed ``run_experiment`` into its own directory, checked
        after the timed region and then removed. Returns (wall, summary)."""
        out = self.work / name
        with layers.instrument(self.lg, tracer) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            result = self.lg.harness.run_experiment(self.config, out_dir=out,
                                                    seed_override=self.seed)
            wall = time.perf_counter() - start
        summary = result.summary
        failures, digests = checks.experiment_failures(summary, self.config.epsilon,
                                                       self.reference)
        if self.reference is None:
            self.reference = digests
            for csv_name, why in checks.oracle_failures(self.lg, self.config, summary).items():
                failures.setdefault(csv_name, []).extend(why)
        self.count(summary, failures)
        shutil.rmtree(out)
        return wall, summary

    def setup_probe(self) -> dict:
        return _probe("setup", SRC, self.config_path)

    def measure(self, seconds, tracer=None):
        """Warm up with the reference experiment (fully checked, including
        the dense oracle), then run experiments back to back for
        ``seconds``, at least MIN_EXPERIMENTS of each kind and MIN_SOLVES
        untraced solver runs of the measured variants. A fresh-process
        set-up probe follows each experiment, so set-up samples spread
        over the run as the experiments do. With a ``tracer``, every
        other experiment is traced, so load drift hits both kinds alike.

        Returns (untraced walls, traced walls, untraced summaries,
        median set-up phases, reference summary).
        """
        self.setup_probe()  # compiles the bytecode caches; not measured
        _, reference = self.experiment("reference")
        walls, traced_walls, summaries, setups = [], [], [], []
        begin = time.perf_counter()
        for i in itertools.count():
            enough = (len(walls) >= MIN_EXPERIMENTS
                      and len(self.solves(summaries)) >= MIN_SOLVES
                      and (tracer is None or len(traced_walls) >= MIN_EXPERIMENTS))
            if enough and time.perf_counter() - begin >= seconds:
                break
            traced = tracer is not None and i % 2 == 1
            wall, summary = self.experiment(str(i), tracer if traced else None)
            if traced:
                traced_walls.append(wall)
            else:
                walls.append(wall)
                summaries.append(summary)
            setups.append(self.setup_probe())
        while len(setups) < SETUP_PROBES:
            setups.append(self.setup_probe())
        setup = {key: statistics.median(r[key] for r in setups) for key in setups[0]}
        return walls, traced_walls, summaries, setup, reference

    def solves(self, summaries):
        """The runs of the measured variants in ``summaries``."""
        return _runs(summaries, self.variants)


def _runs(summaries, variants=None):
    return [r for s in summaries for r in s["runs"] if variants is None or r["variant"] in variants]


def end_to_end(bench: Bench, seconds) -> tuple:
    """End-to-end metrics, all measured with tracing off."""
    config = bench.config
    rss = _probe("rss", SRC, bench.config_path, bench.seed, bench.work / "rss")
    shutil.rmtree(bench.work / "rss")
    walls, _, summaries, setup, reference = bench.measure(seconds)

    solve = [1e3 * r["wall_time_s"] for r in bench.solves(summaries)]
    tail, pct, n = stats.tail(solve)
    runs = _runs(summaries)
    # A run that never reached epsilon counts as the whole budget.
    to_eps = [r["iterations_to_tolerance"] if r["iterations_to_tolerance"] is not None
              else config.max_iters for r in reference["runs"]]
    metrics = {
        "setup_s": (setup["setup_s"], "s", "median of fresh processes"),
        "experiment_s": (statistics.median(walls), "s", f"median of {len(walls)} experiments"),
        "solve_ms.p50": (statistics.median(solve), "ms", f"{n} solver runs"),
        "solve_ms.tail": (tail, "ms", f"p{pct:.1f} of {n} solver runs"),
        "iters_per_s": (sum(r["iterations"] for r in runs) / sum(r["wall_time_s"] for r in runs),
                        "1/s", f"d={config.dim}, r={config.rank}"),
        "iters_to_eps.p50": (statistics.median(to_eps), "count",
                             f"{len(to_eps)} runs, epsilon={config.epsilon:g}"),
        "peak_rss_mb": (rss["peak_rss_mb"], "MB", "fresh process, one experiment"),
    }
    notes = {}
    if config.kind == "bench":
        rgd = [1e3 * r["wall_time_s"] for r in _runs(summaries, ("rgd",))]
        notes["baseline_solve_ms.p50"] = (statistics.median(rgd), "ms",
                                          f"{len(rgd)} retracted runs, not gated")
    return metrics, notes


def per_layer(bench: Bench, seconds) -> tuple:
    """Per-layer metrics from traced experiments, alternated with untraced
    ones whose median gives the tracing overhead."""
    config = bench.config
    tracer = Tracer()
    plain, traced, plain_summaries, setup, _ = bench.measure(seconds, tracer)
    metrics = {name: (value, unit, "") for name, (value, unit) in
               layers.layer_metrics(tracer.spans).items()}
    metrics.update({
        "setup.import_ms": (1e3 * setup["import_s"], "ms", "median of fresh processes"),
        "setup.parse_ms": (1e3 * setup["parse_s"], "ms", "load_config"),
        "spectrum.target_build_ms": (1e3 * setup["target_s"], "ms", "make_diagonal_target"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0,
                                "ratio", "traced vs untraced experiment_s, not gated"),
    })
    saving = 0.0
    retraction = {"eigenspace.retract_polar_us": (0.0, "us"),
                  "eigenspace.retract_qr_us": (0.0, "us")}
    if config.kind == "bench":
        saving = statistics.median(s["bench"]["saving_fraction"] for s in plain_summaries)
        retraction = layers.retraction_costs(bench.lg, config, bench.seed)
    metrics["eigenspace.rf_saving_frac"] = (saving, "ratio", "untraced, not gated")
    metrics.update({name: (v, unit, "") for name, (v, unit) in retraction.items()})
    return metrics, {}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "lowrank_gd" / "__init__.py").is_file():
        print(f"error: no lowrank_gd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lowrank_gd as lg

    if Path(lg.__file__).resolve().parent != (SRC / "lowrank_gd").resolve():
        print(f"error: imported lowrank_gd from {lg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    config_name, variants = WORKLOADS[args.workload]
    config_path = HERE / "workloads" / config_name
    config = lg.load_config(config_path)
    seed = config.seed if args.seed is None else args.seed
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    before = checks.snapshot(ROOT, exclude=[HERE])
    work = WORK / f"{args.workload}-{os.getpid()}"
    bench = Bench(lg, config, config_path, seed, work, variants)
    try:
        work.mkdir(parents=True)
        if args.trace:
            metrics, notes = per_layer(bench, args.seconds)
        else:
            metrics, notes = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    changed = checks.changed_files(before, checks.snapshot(ROOT, exclude=[HERE]))

    undeclared = sorted(set(metrics) ^ set(declared))
    wrong_unit = sorted(n for n in declared if n in metrics and metrics[n][1] != declared[n])
    if undeclared or wrong_unit:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {undeclared + wrong_unit}")

    print(f"workload {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    print("provenance " + json.dumps(provenance.collect(ROOT), sort_keys=True))
    for name in [*declared, *notes]:
        value, unit, note = {**metrics, **notes}[name]
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"failed_frac {bench.failed / bench.attempted:.6g} ratio  "
          f"({bench.failed} of {bench.attempted} solver runs)")
    for reason in bench.reasons[:20]:
        print(f"failed: {reason}")
    for path in changed[:20]:
        print(f"changed in checkout: {path}")
    result = {
        "correct": bench.failed == 0 and not changed,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
