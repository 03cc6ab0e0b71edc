"""Command line entry point.

Exit codes: 0 on success, 1 when any run diverged, 2 on config errors
(a negative ``--seed`` and an ``init.alpha`` that overflows the initial
factor among them) and on an unwritable output directory. A diverging run
prints no NumPy floating-point warnings: its summary line reports it.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .harness import ConfigError, UnwritableOutputError, config_number, emit_plot, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowrank-gd",
        description="Gradient descent for low-rank matrix approximation and "
                    "retraction-free eigenspace computation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a JSON config")
    bench_p = sub.add_parser("bench", help="run the timed eigenspace benchmark")
    for p in (run_p, bench_p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None, help="base seed (overrides the config)")
    run_p.add_argument("--plot", action="store_true", help="emit an SVG log-error plot of all runs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "bench" and config.kind != "bench":
            raise ConfigError(f"bench subcommand needs kind 'bench', config has {config.kind!r}")
        if args.command == "run" and config.kind == "bench":
            raise ConfigError("kind 'bench' runs through the bench subcommand")
        if args.seed is not None:
            config_number({"--seed": args.seed}, "--seed", -1, integer=True)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_experiment(config, out_dir=args.out, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnwritableOutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for run in result.summary["runs"]:
        status = "diverged" if run["diverged"] else ("ok" if run["converged"] else "budget")
        print(f"{run['variant']} rep{run['repeat']}: {status} "
              f"iters={run['iterations']} final_error={run['final_error']:.3e} "
              f"wall={run['wall_time_s']:.3f}s")
    if "bench" in result.summary:
        for method, stats in result.summary["bench"]["methods"].items():
            print(f"{method}: total {stats['total_wall_time_s']:.2f}s over {stats['runs']} runs "
                  f"(median {stats['median_wall_time_s'] * 1e3:.1f} ms)")
        saving = result.summary["bench"]["saving_fraction"]
        if saving is not None:
            print(f"retraction-free saving: {100 * saving:.1f}%")
    print(f"summary: {result.summary_path}")

    if args.command == "run" and args.plot and result.csv_paths:
        plot_path = Path(result.summary_path).parent / "errors.svg"
        emit_plot(result.csv_paths, plot_path)
        print(f"plot: {plot_path}")

    return 1 if result.diverged else 0


if __name__ == "__main__":
    raise SystemExit(main())
