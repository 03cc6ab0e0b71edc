"""Experiment harness: JSON configs in, CSV traces, a JSON summary, and
SVG log-error plots out.

Every kind builds one diagonal Target from the configured spectrum and
hands it to its solver, as its row in ``_KINDS`` says; "bench" shares
the "eig" row and times the two eigenspace methods back to back. The
init scheme resolves at parse, so ``ExperimentConfig.alphas`` holds the
alphas the runs start from. Each (variant, repeat) is one job, run by
``_execute`` in the order ``_build_jobs`` lists them, which writes its CSV
and returns its entry of the summary's runs; BLAS threads are the only
parallelism. CSV columns are the fields of the solver's records. Repeats
draw their seeds as base_seed + index, so re-running a config reproduces
every CSV byte for byte.
"""

import csv
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import asym_gd, eigenspace, engine, initialization, spectrum, sym_gd

FLOAT_FMT = "%.17g"

# Variant value (asym flag or eigenspace method) -> its short name in variant and CSV names.
_SHORT = {True: "reg", False: "unreg", "retraction_free": "rf", "rgd": "rgd"}

# Keys every kind accepts; each kind accepts its own variant key besides.
_TOP_KEYS = {"kind", "dim", "rank", "spectrum", "eta", "epsilon", "max_iters", "init", "repeats",
             "record_every", "out_dir"}
_REQUIRED_KEYS = ("kind", "dim", "rank", "spectrum", "eta", "epsilon", "max_iters", "init")
_INIT_KEYS = {"scheme", "alpha", "seed", "multiplier"}
_SPECTRUM_KEYS = {"experiment", "equal_top", "explicit"}


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


# One row per kind: the config key naming its variants (None: one per alpha),
# whether its spectrum must be PSD, whether a run starts from a pair of
# factors, and its solver call, which looks the solver up on its module when
# the job runs, so that a wrapper set there is the one that runs.
_Kind = namedtuple("_Kind", "variant psd pair solve")
_KINDS = {
    "sym": _Kind(None, psd=True, pair=False, solve=lambda draws, target, cfg, _:
                 sym_gd.run(sym_gd.FactorState(*draws), target, cfg)),
    "asym": _Kind("regularized", psd=False, pair=True, solve=lambda draws, target, cfg, flag:
                  asym_gd.run_asym(asym_gd.AsymState(*draws), target, cfg, regularized=flag)),
    "eig": _Kind("method", psd=True, pair=False, solve=lambda draws, target, cfg, method:
                 eigenspace.run_eig(eigenspace.EigState(*draws), target, cfg, method=method)),
}
_KINDS["bench"] = _KINDS["eig"]  # they differ where the code tests kind == "bench"
KINDS = tuple(_KINDS)


class UnwritableOutputError(OSError):
    """The output directory cannot be created or written to."""


@dataclass
class ExperimentConfig:
    kind: str
    dim: int
    rank: int
    values: np.ndarray
    eta: float
    epsilon: float
    max_iters: int
    alphas: list                       # the alphas the runs start from, the init scheme applied
    seed: int
    repeats: int
    record_every: int
    regularized: tuple                 # asym flags: (True,), (False,) or (True, False)
    methods: tuple
    out_dir: str
    raw: dict = field(repr=False)


@dataclass
class ExperimentResult:
    summary: dict
    summary_path: str
    csv_paths: list
    diverged: bool


def config_number(obj: dict, name: str, low=0, high=math.inf, *, integer=False, default=None):
    """The one rule for a number in a config. ``name`` is the key's dotted
    path, and its last part the key in ``obj``; an absent key takes
    ``default``. The value must be a JSON number (an integer where
    ``integer`` is set), not a boolean, finite, and in low < value <= high.
    Returns it, as a float unless ``integer``; any other value raises a
    ConfigError naming the key."""
    value = obj.get(name.rpartition(".")[2], default)
    # abs(value) <= the largest float fails for NaN, +-inf and for integers
    # beyond the float range.
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not abs(value) <= sys.float_info.max or not low < value <= high):
        span = f"[{low + 1}" if integer else f"({low:g}"
        span += f", {high:g}]" if high < math.inf else ", inf)"
        raise ConfigError(f"invalid value for '{name}': expected "
                          f"{'an integer' if integer else 'a finite number'} in {span}, got {value!r}")
    return value if integer else float(value)


def config_choice(obj: dict, name: str, choices: dict, default=None):
    """The one rule for an enumerated value in a config, with ``name`` and
    ``default`` as in ``config_number``. The value must equal a key of
    ``choices`` and have its type, so true is not 1; returns what ``choices``
    maps it to, and raises a ConfigError naming the key otherwise."""
    value = obj.get(name.rpartition(".")[2], default)
    for choice, meaning in choices.items():
        if type(value) is type(choice) and value == choice:
            return meaning
    raise ConfigError(f"invalid value for '{name}': expected one of {list(choices)}, got {value!r}")


def _resolve_spectrum(spec, dim: int, rank: int) -> np.ndarray:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("invalid value for 'spectrum': expected exactly one of "
                          f"{sorted(_SPECTRUM_KEYS)}")
    (key, value), = spec.items()
    if key not in _SPECTRUM_KEYS:
        raise ConfigError(f"unknown key 'spectrum.{key}'")
    if key == "experiment":
        if not isinstance(value, dict) or set(value) != {"hi", "lo"}:
            raise ConfigError("invalid value for 'spectrum.experiment': expected {hi, lo}")
        lo = config_number(value, "spectrum.experiment.lo", 1.0)
        hi = config_number(value, "spectrum.experiment.hi", lo)
        try:
            return spectrum.experiment_spectrum(hi, lo, rank, dim)
        except ValueError as exc:
            raise ConfigError(f"invalid value for 'spectrum.experiment': {exc}") from exc
    if key == "equal_top":
        top = config_number(spec, "spectrum.equal_top", 1.0)
        return np.concatenate([np.full(rank, top), np.ones(dim - rank)])
    if not isinstance(value, list) or not value:
        raise ConfigError("invalid value for 'spectrum.explicit': expected a non-empty list")
    return np.array([config_number({"explicit": v}, "spectrum.explicit", -math.inf) for v in value])


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON object. Unknown keys, another kind's variant
    key among them, are rejected by name."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ConfigError(f"missing required key '{missing[0]}'")
    kind = config_choice(raw, "kind", {k: k for k in KINDS})
    unknown = sorted(set(raw) - _TOP_KEYS - {_KINDS[kind].variant})
    if unknown:
        raise ConfigError(f"unknown config keys for kind {kind!r}: {', '.join(unknown)}")
    dim = config_number(raw, "dim", integer=True)
    rank = config_number(raw, "rank", 0, dim - 1, integer=True)
    values = _resolve_spectrum(raw["spectrum"], dim, rank)
    eta = config_number(raw, "eta", 0, 1)
    epsilon = config_number(raw, "epsilon")
    max_iters = config_number(raw, "max_iters", integer=True)

    init = raw["init"]
    if not isinstance(init, dict):
        raise ConfigError(f"invalid value for 'init': expected an object, got {init!r}")
    unknown = sorted(set(init) - _INIT_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join('init.' + k for k in unknown)}")
    scheme = config_choice(init, "init.scheme", {"small": "small", "moderate": "moderate"}, "moderate")
    alphas = init.get("alpha", 0.5)
    alphas = alphas if isinstance(alphas, list) else [alphas]
    if not alphas:
        raise ConfigError("invalid value for 'init.alpha': list must be non-empty")
    alphas = [config_number({"alpha": a}, "init.alpha") for a in alphas]
    seed = config_number(init, "init.seed", -1, integer=True, default=0)
    multiplier = config_number(init, "init.multiplier", default=1.0)
    repeats = config_number(raw, "repeats", integer=True, default=1)
    # bench runs record only the first and last iteration unless told otherwise
    record_every = config_number(raw, "record_every", integer=True,
                                 default=max_iters if kind == "bench" else 1)

    regularized = config_choice(raw, "regularized", {True: (True,), False: (False,), "both": (True, False)},
                                "both")
    methods = config_choice(raw, "method", dict({m: (m,) for m in eigenspace.METHODS}, both=eigenspace.METHODS),
                            "both")

    out_dir = raw.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"invalid value for 'out_dir': expected a string, got {type(out_dir).__name__}")

    try:
        target = spectrum.make_diagonal_target(values, dim, rank)
    except ValueError as exc:
        raise ConfigError(f"invalid value for 'spectrum': {exc}") from exc
    if _KINDS[kind].psd and not target.is_psd:
        raise ConfigError(
            f"invalid value for 'spectrum': kind {kind!r} needs a PSD spectrum, "
            f"got smallest eigenvalue {target.eigenvalues[-1]:g}"
        )
    if scheme == "small":  # every run starts at multiplier x the bound; init.alpha is ignored
        try:
            alphas = [initialization.small_alpha_bound(target, eta, multiplier)]
        except ValueError as exc:
            raise ConfigError(f"invalid value for 'init.scheme': 'small' needs a defined bound: {exc}") from exc
    if kind == "bench" and len(alphas) > 1:
        raise ConfigError(f"invalid value for 'init.alpha': kind 'bench' takes one alpha, got {alphas!r}")
    names = [f"a{a:g}" for a in alphas]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"invalid value for 'init.alpha': {alphas[names.index(name)]!r} and "
                              f"{alphas[i]!r} share the variant name {name!r}")

    return ExperimentConfig(
        kind=kind, dim=dim, rank=rank, values=values, eta=eta, epsilon=epsilon,
        max_iters=max_iters, alphas=alphas, seed=seed, repeats=repeats, record_every=record_every,
        regularized=regularized, methods=methods, out_dir=out_dir, raw=raw,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _row_format(row) -> str:
    """One %-format line for a CSV row: ``%d`` for bools (0/1) and
    integers, ``FLOAT_FMT`` for everything else, which %-formatting
    converts with ``float``."""
    return ",".join(["%d" if isinstance(v, (int, np.integer)) else FLOAT_FMT for v in row]) + "\n"


def _write_csv(path: Path, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            row = tuple(row)
            fh.write(_row_format(row) % row)


def _alpha_regime(target, eta: float, alpha: float) -> str:
    try:
        bound = initialization.small_alpha_bound(target, eta)
    except ValueError:
        return "unknown"
    return "small" if alpha <= bound else "moderate"


def _eta_within_theory(target, eta: float):
    """eta <= the symmetric step size bound, or None where it is undefined."""
    try:
        return bool(eta <= sym_gd.max_step_size(target))
    except ValueError:
        return None


def _build_jobs(config: ExperimentConfig, target, seed_base: int):
    """(variant name, repeat, seed, params) of every run, in run order.
    ``params`` holds the alpha and the value of the kind's variant key.
    Bench jobs name their variants without the alpha (a bench config has
    one) and interleave them within each repeat. ``target`` goes unread."""
    key = _KINDS[config.kind].variant
    values = {"regularized": config.regularized, "method": config.methods}.get(key, ())
    variants = [(f"_{_SHORT[v]}", {key: v}) for v in values] or [("", {})]
    if config.kind == "bench":
        return [(suffix[1:], rep, seed_base + rep, {"alpha": config.alphas[0], **entry})
                for rep in range(config.repeats) for suffix, entry in variants]
    return [(f"a{alpha:g}{suffix}", rep, seed_base + rep, {"alpha": alpha, **entry})
            for alpha in config.alphas for suffix, entry in variants for rep in range(config.repeats)]


def _draws(config: ExperimentConfig, seed: int) -> tuple:
    """The unscaled initial factors of a run drawn with ``seed``."""
    d, r = config.dim, config.rank
    if _KINDS[config.kind].pair:
        return initialization.gaussian_pair(d, d, r, seed)
    return (initialization.gaussian_factor(d, r, seed),)


def _check_alphas(config: ExperimentConfig, seed_base: int):
    """Raise ConfigError, before any run writes a file, when an alpha would
    overflow the initial factor of a repeat. Each repeat's seed is drawn
    once and only the draw's largest magnitude is kept, so the check holds
    no factor beyond one run's; every alpha is scaled against it."""
    seeds = range(seed_base, seed_base + config.repeats)
    peaks = [max(max(float(d.max()), -float(d.min())) for d in _draws(config, seed)) for seed in seeds]
    for alpha in config.alphas:
        for seed, peak in zip(seeds, peaks):
            if not math.isfinite(alpha * peak):
                raise ConfigError(f"invalid value for 'init.alpha': {alpha!r} overflows the initial "
                                  f"factor drawn with seed {seed}")


def _execute(config: ExperimentConfig, target, job, out_dir: Path) -> dict:
    """Run one job from alpha times its seed's draws (``_check_alphas`` has
    checked that the product is finite), write its CSV and return its entry
    of the summary's runs; a diverged run keeps its partial trace. The
    solver is looked up in ``_KINDS`` when the job runs."""
    name, rep, seed, params = job
    row = _KINDS[config.kind]
    draws = [params["alpha"] * draw for draw in _draws(config, seed)]
    solver_cfg = engine.SolverConfig(config.eta, config.epsilon, config.max_iters, config.record_every)
    diverged = False
    try:
        trace = row.solve(draws, target, solver_cfg, params.get(row.variant))
    except engine.DivergenceError as exc:
        trace, diverged = exc.trace, True
    columns = [f.name for f in fields(trace.records[0])]
    csv_path = out_dir / f"{config.kind}_{name}_rep{rep}.csv"
    _write_csv(csv_path, columns, (vars(rec).values() for rec in trace.records))
    return {"variant": name, "repeat": rep, "seed": seed, "csv_path": str(csv_path),
            "converged": trace.converged, "diverged": diverged, "iterations": trace.iterations,
            "iterations_to_tolerance": trace.iterations_to(config.epsilon),
            "final_error": trace.final_error, "wall_time_s": trace.wall_time}


def _run_bench(config: ExperimentConfig, runs) -> dict:
    """Summary of the timed comparison of the two eigenspace methods, from
    the runs of the bench jobs (interleaved rf, rgd, rf, ... by repeat)."""
    methods_summary = {}
    for method in config.methods:
        mine = [run for run in runs if run["variant"] == _SHORT[method]]
        times = np.array([run["wall_time_s"] for run in mine])
        methods_summary[method] = {
            "runs": len(mine),
            "total_wall_time_s": float(times.sum()),
            "median_wall_time_s": float(np.median(times)),
            "median_iterations": float(np.median([run["iterations"] for run in mine])),
        }
    saving = None
    if set(methods_summary) == set(eigenspace.METHODS):
        rgd_total = methods_summary["rgd"]["total_wall_time_s"]
        rf_total = methods_summary["retraction_free"]["total_wall_time_s"]
        if rgd_total > 0:
            saving = (rgd_total - rf_total) / rgd_total
    return {"methods": methods_summary, "saving_fraction": saving}


def run_experiment(config: ExperimentConfig, out_dir=None, seed_override=None) -> ExperimentResult:
    """Execute every (variant, repeat) run of the experiment.

    Writes one CSV per run plus ``summary.json`` under the output
    directory. Diverged runs keep their partial trace and flag the result;
    the CLI turns that flag into a nonzero exit code.
    """
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise UnwritableOutputError(f"output directory {out} is not writable: {exc}") from exc

    seed_base = config.seed if seed_override is None else int(seed_override)
    target = spectrum.make_diagonal_target(config.values, config.dim, config.rank)

    _check_alphas(config, seed_base)
    runs = [_execute(config, target, job, out) for job in _build_jobs(config, target, seed_base)]
    diverged_any = any(run["diverged"] for run in runs)

    summary = {
        "kind": config.kind,
        "seed_base": seed_base,
        "epsilon": config.epsilon,
        "eta": config.eta,
        "eta_within_theory": _eta_within_theory(target, config.eta),
        "alpha_regimes": {f"{a:g}": _alpha_regime(target, config.eta, a) for a in config.alphas},
        "runs": runs,
        "any_diverged": diverged_any,
        "config": config.raw,
    }
    if config.kind == "bench":
        summary["bench"] = _run_bench(config, runs)
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return ExperimentResult(
        summary=summary, summary_path=str(summary_path),
        csv_paths=[run["csv_path"] for run in runs], diverged=diverged_any,
    )


# ---------------------------------------------------------------------------
# SVG plotting

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
_LOG_FLOOR = 1e-16

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _read_curve(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"CSV {path} is empty")
        err_col = next((c for c in ("error", "proj_error") if c in reader.fieldnames), None)
        if err_col is None or "iter" not in reader.fieldnames:
            raise ValueError(f"CSV {path} lacks iter/error columns")
        iters, errs = [], []
        for row in reader:
            iters.append(float(row["iter"]))
            errs.append(max(float(row[err_col]), _LOG_FLOOR))
    if not iters:
        raise ValueError(f"CSV {path} has no data rows")
    iters, log_errs = np.array(iters), np.log10(np.array(errs))
    finite = np.isfinite(log_errs)
    return iters[finite], log_errs[finite]


def emit_plot(csv_paths, out_path) -> str:
    """Render log10(error) against iteration as a self-contained SVG, one
    polyline per CSV. Errors are clipped at 1e-16 before taking logs, and
    rows with an inf or NaN error are left out of the axes and polylines;
    a CSV with no finite error gets no polyline and a "(no finite error)"
    legend label."""
    if not csv_paths:
        raise ValueError("no CSV paths given")
    curves = [_read_curve(p) for p in csv_paths]
    xs, ys = (np.concatenate(axis) for axis in zip(*curves))
    x_max = float(xs.max(initial=1.0))
    y_min, y_max = (float(ys.min()), float(ys.max())) if ys.size else (0.0, 0.0)
    if y_max - y_min < 1e-9:
        y_min, y_max = y_min - 1.0, y_max + 1.0

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(v):
        return _ML + plot_w * v / x_max

    def sy(v):
        return _MT + plot_h * (y_max - v) / (y_max - y_min)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" y2="{_MT + plot_h}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        xv = x_max * i / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{_MT + plot_h + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.0f}</text>'
        )
        yv = y_min + (y_max - y_min) * i / 4
        parts.append(
            f'<text x="{_ML - 8}" y="{sy(yv):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{yv:.1f}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_HEIGHT - 12}" font-size="12" '
        'text-anchor="middle">iteration</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + plot_h / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + plot_h / 2:.1f})">log10 error</text>'
    )
    for i, ((xs, ys), path) in enumerate(zip(curves, csv_paths)):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(xs, ys))
        label = Path(path).stem + ("" if points else " (no finite error)")
        if points:
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{_ML + plot_w - 6}" y="{_MT + 16 + 14 * i}" font-size="11" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    out_path = Path(out_path)
    out_path.write_text(svg)
    return str(out_path)
