"""Per-layer tracing of lowrank_gd from outside the library.

``instrument`` replaces, for the duration of a ``with`` block, the
module attributes each layer calls into with wrappers that record spans.
The library's own files are never edited. ``layer_metrics`` turns the
recorded spans into the per-layer numbers, normalised per experiment.

Span names and where they come from:

* ``harness.run_experiment``, ``harness.job`` (``_execute``, one pool
  job), ``harness.run_bench``, ``harness.csv_write`` (``_write_csv``) and
  ``harness.summary_write`` (from ``json.dumps`` of the summary until
  ``run_experiment`` returns).
* ``spectrum.dense_matrix``: the first access of ``Target.matrix``.
* ``initialization.draw``: ``gaussian_factor`` and ``gaussian_pair``.
* ``sym_gd.run``, ``asym_gd.run``, ``eigenspace.rf``, ``eigenspace.rgd``:
  one solver call each, carrying the returned trace's iteration count,
  record count and loop wall time.
* ``sym_gd.error``, ``asym_gd.error``, ``eigenspace.error``: the error
  closures the solvers build through their ``_error_fn`` factories.
* ``sym_gd.record``: one diagnostics record, from the end of the error
  evaluation it follows until its ``TraceRecord`` is built; the four
  singular-value calls inside it are its children.
* ``linalg.svd`` (``singular_values`` and ``svd``) and
  ``linalg.spd_inv_sqrt``.
"""

import contextlib
import os
import statistics
import time
import types

import numpy as np

from spans import Tracer, children_of, self_time

SOLVER_SPANS = ("sym_gd.run", "asym_gd.run", "eigenspace.rf", "eigenspace.rgd")


def sym_step_flops(d: int, r: int) -> int:
    """Computed flops of one symmetric iteration outside the error and
    record calls: the Gram X^T X (2dr^2), X times the Gram (2dr^2), the
    diagonal Sigma X, the update's subtract, scale and add, and the
    divergence-guard norm (6dr)."""
    return 4 * d * r * r + 6 * d * r


def _trace_attrs(span, trace):
    span.attrs.update(iterations=trace.iterations, records=len(trace.records), wall=trace.wall_time)


def _solver(tracer, name_of, fn, dims_of):
    """Wrap a solver entry point; the span carries the trace it returns,
    or the partial trace a DivergenceError carries."""

    def traced(*args, **kwargs):
        span = tracer.begin(name_of(args, kwargs))
        span.attrs.update(dims_of(args))
        try:
            trace = fn(*args, **kwargs)
        except Exception as exc:
            tracer.end(span)
            if getattr(exc, "trace", None) is not None:
                _trace_attrs(span, exc.trace)
            raise
        tracer.end(span)
        _trace_attrs(span, trace)
        return trace

    return traced


def _error_factory(tracer, name, factory):
    """Wrap an ``_error_fn``-style factory so the closure it returns is
    traced, and mark the end of every evaluation for ``sym_gd.record``."""

    def make(*args, **kwargs):
        err = factory(*args, **kwargs)

        def traced(*a):
            span = tracer.begin(name)
            try:
                return err(*a)
            finally:
                tracer.end(span)
                tracer.mark("error_end")

        return traced

    return make


def _csv_writer(tracer, fn):
    def traced(path, columns, rows):
        span = tracer.begin("harness.csv_write")
        count = 0

        def counting():
            nonlocal count
            for row in rows:
                count += 1
                yield row

        try:
            fn(path, columns, counting())
        finally:
            tracer.end(span)
        span.attrs.update(rows=count, bytes=os.path.getsize(path))

    return traced


def _experiment(tracer, fn):
    def traced(*args, **kwargs):
        span = tracer.begin("harness.run_experiment")
        outer_root, tracer.root = tracer.root, span.id
        try:
            result = fn(*args, **kwargs)
            tracer.span_since("summary_start", "harness.summary_write")
            return result
        finally:
            tracer.root = outer_root
            tracer.end(span)

    return traced


def _json_proxy(tracer, real_json):
    def dumps(*args, **kwargs):
        tracer.mark("summary_start")
        return real_json.dumps(*args, **kwargs)

    return types.SimpleNamespace(
        dumps=dumps, loads=real_json.loads, JSONDecodeError=real_json.JSONDecodeError
    )


def _dense_matrix(tracer, prop):
    def getter(target):
        if target._matrix is not None:
            return prop.fget(target)
        span = tracer.begin("spectrum.dense_matrix")
        try:
            matrix = prop.fget(target)
        finally:
            tracer.end(span)
        span.attrs["bytes"] = matrix.nbytes
        return matrix

    return property(getter, doc=prop.__doc__)


def _record(tracer, cls):
    def make(*args, **kwargs):
        rec = cls(*args, **kwargs)
        tracer.span_since("error_end", "sym_gd.record")
        return rec

    return make


def _factor_dims(args):
    x = args[0].x
    return {"d": x.shape[0], "r": x.shape[1]}


def _eig_span_name(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "retraction_free")
    return "eigenspace.rgd" if method == "rgd" else "eigenspace.rf"


def _frame_dims(args):
    l = args[0].l
    return {"d": l.shape[0], "r": l.shape[1]}


@contextlib.contextmanager
def instrument(lg, tracer: Tracer):
    """Patch the layer boundaries of the imported ``lowrank_gd`` package
    ``lg`` to record into ``tracer``; the originals come back on exit."""
    harness, spectrum, initialization = lg.harness, lg.spectrum, lg.initialization
    sym_gd, asym_gd, eigenspace, linalg = lg.sym_gd, lg.asym_gd, lg.eigenspace, lg.linalg
    patches = [
        (harness, "run_experiment", _experiment(tracer, harness.run_experiment)),
        (harness, "_execute", tracer.wrap("harness.job", harness._execute)),
        (harness, "_run_bench", tracer.wrap("harness.run_bench", harness._run_bench)),
        (harness, "_write_csv", _csv_writer(tracer, harness._write_csv)),
        (harness, "json", _json_proxy(tracer, harness.json)),
        (spectrum.Target, "matrix", _dense_matrix(tracer, spectrum.Target.matrix)),
        (initialization, "gaussian_factor",
         tracer.wrap("initialization.draw", initialization.gaussian_factor)),
        (initialization, "gaussian_pair",
         tracer.wrap("initialization.draw", initialization.gaussian_pair)),
        (sym_gd, "run", _solver(tracer, lambda a, k: "sym_gd.run", sym_gd.run, _factor_dims)),
        (sym_gd, "_error_fn", _error_factory(tracer, "sym_gd.error", sym_gd._error_fn)),
        (sym_gd, "TraceRecord", _record(tracer, sym_gd.TraceRecord)),
        (asym_gd, "run_asym",
         _solver(tracer, lambda a, k: "asym_gd.run", asym_gd.run_asym, _factor_dims)),
        (asym_gd, "_error_fn", _error_factory(tracer, "asym_gd.error", asym_gd._error_fn)),
        (eigenspace, "run_eig",
         _solver(tracer, _eig_span_name, eigenspace.run_eig, _frame_dims)),
        (eigenspace, "_proj_error_fn",
         _error_factory(tracer, "eigenspace.error", eigenspace._proj_error_fn)),
        (linalg, "singular_values", tracer.wrap("linalg.svd", linalg.singular_values)),
        (linalg, "svd", tracer.wrap("linalg.svd", linalg.svd)),
        (linalg, "spd_inv_sqrt", tracer.wrap("linalg.spd_inv_sqrt", linalg.spd_inv_sqrt)),
    ]
    originals = [(obj, name, obj.__dict__[name]) for obj, name, _ in patches]
    try:
        for obj, name, wrapper in patches:
            setattr(obj, name, wrapper)
        yield tracer
    finally:
        for obj, name, original in originals:
            setattr(obj, name, original)


# ---------------------------------------------------------------------------
# From spans to per-layer metrics

def _sum(spans, attr=None) -> float:
    return float(sum(s.duration if attr is None else s.attrs.get(attr, 0) for s in spans))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one traced phase, as {name: (value, unit)}.

    Counts and totals are per experiment (divided by the number of
    ``harness.run_experiment`` spans); ``*_per_iter`` and
    ``*_per_record`` values are ratios of totals. A layer a workload
    never calls reads 0.
    """
    by_id = {s.id: s for s in spans}
    kids = children_of(spans)
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def get(name):
        return named.get(name, [])

    experiments = get("harness.run_experiment")
    n_exp = len(experiments) or 1

    def per_exp(value):
        return value / n_exp

    # Jobs: one per pool job; the sequential bench path has one per solver call.
    jobs = get("harness.job")
    if not jobs:
        bench_ids = {s.id for s in get("harness.run_bench")}
        jobs = [s for name in SOLVER_SPANS for s in get(name) if s.parent in bench_ids]

    def experiment_of(span):
        while span is not None and span.name != "harness.run_experiment":
            span = by_id.get(span.parent)
        return span

    waits, busy, workers = [], 0.0, []
    for exp in experiments:
        mine = [j for j in jobs if experiment_of(j) is exp]
        waits += [j.start - exp.start for j in mine]
        busy += _sum(mine)
        workers.append(len({j.thread for j in mine}))
    worker_mean = statistics.fmean(workers) if workers else 0.0
    exp_wall = _sum(experiments)

    csv = get("harness.csv_write")
    m = {
        "harness.jobs": (per_exp(len(jobs)), "count"),
        "harness.workers": (worker_mean, "count"),
        "harness.pool_efficiency": (_ratio(busy, exp_wall * worker_mean), "ratio"),
        "harness.job_wait_ms.p50": (1e3 * statistics.median(waits) if waits else 0.0, "ms"),
        "harness.csv_write_ms": (1e3 * per_exp(_sum(csv)), "ms"),
        "harness.csv_rows": (per_exp(_sum(csv, "rows")), "count"),
        "harness.csv_files": (per_exp(len(csv)), "count"),
        "harness.csv_bytes": (per_exp(_sum(csv, "bytes")), "B"),
        "harness.summary_write_ms": (1e3 * per_exp(_sum(get("harness.summary_write"))), "ms"),
        "spectrum.dense_matrix_ms": (1e3 * per_exp(_sum(get("spectrum.dense_matrix"))), "ms"),
        "spectrum.dense_matrix_bytes": (per_exp(_sum(get("spectrum.dense_matrix"), "bytes")), "B"),
        "initialization.draw_ms": (1e3 * per_exp(_sum(get("initialization.draw"))), "ms"),
    }

    def entry_ms(runs):
        """Mean of (solver call time - loop time): validation and setup."""
        return 1e3 * _ratio(sum(s.duration - s.attrs["wall"] for s in runs), len(runs))

    def child_spans(runs, name):
        return [c for s in runs for c in kids.get(s.id, ()) if c.name == name]

    sym = get("sym_gd.run")
    sym_iters = _sum(sym, "iterations")
    sym_wall = _sum(sym, "wall")
    # Step time: the run's self time minus its entry time (call minus loop).
    step_s = sum(self_time(s, kids) - (s.duration - s.attrs["wall"]) for s in sym)
    flops = sum(s.attrs["iterations"] * sym_step_flops(s.attrs["d"], s.attrs["r"]) for s in sym)
    records = child_spans(sym, "sym_gd.record")
    m.update({
        "sym_gd.iters": (per_exp(sym_iters), "count"),
        "sym_gd.records": (per_exp(_sum(sym, "records")), "count"),
        "sym_gd.loop_ms": (1e3 * per_exp(sym_wall), "ms"),
        "sym_gd.step_us_per_iter": (1e6 * _ratio(step_s, sym_iters), "us"),
        "sym_gd.error_us_per_iter": (
            1e6 * _ratio(_sum(child_spans(sym, "sym_gd.error")), sym_iters), "us"),
        "sym_gd.record_us_per_record": (1e6 * _ratio(_sum(records), len(records)), "us"),
        "sym_gd.step_gflops": (_ratio(flops, step_s) / 1e9, "GFLOP/s"),
        "sym_gd.entry_ms": (entry_ms(sym), "ms"),
    })

    asym = get("asym_gd.run")
    asym_iters = _sum(asym, "iterations")
    m.update({
        "asym_gd.iters": (per_exp(asym_iters), "count"),
        "asym_gd.us_per_iter": (1e6 * _ratio(_sum(asym, "wall"), asym_iters), "us"),
        "asym_gd.error_us_per_iter": (
            1e6 * _ratio(_sum(child_spans(asym, "asym_gd.error")), asym_iters), "us"),
        "asym_gd.entry_ms": (entry_ms(asym), "ms"),
    })

    svd = get("linalg.svd")
    inv = get("linalg.spd_inv_sqrt")
    m.update({
        "linalg.svd_calls": (per_exp(len(svd)), "count"),
        "linalg.svd_ms": (1e3 * per_exp(_sum(svd)), "ms"),
        "linalg.spd_inv_sqrt_calls": (per_exp(len(inv)), "count"),
        "linalg.spd_inv_sqrt_ms": (1e3 * per_exp(_sum(inv)), "ms"),
    })

    rf, rgd = get("eigenspace.rf"), get("eigenspace.rgd")
    rf_iters, rgd_iters = _sum(rf, "iterations"), _sum(rgd, "iterations")
    rgd_ids = {s.id for s in rgd}
    m.update({
        "eigenspace.rf_iters": (per_exp(rf_iters), "count"),
        "eigenspace.rf_us_per_iter": (1e6 * _ratio(_sum(rf, "wall"), rf_iters), "us"),
        "eigenspace.rgd_iters": (per_exp(rgd_iters), "count"),
        "eigenspace.rgd_us_per_iter": (1e6 * _ratio(_sum(rgd, "wall"), rgd_iters), "us"),
        "eigenspace.retract_share": (
            _ratio(_sum([s for s in inv if s.parent in rgd_ids]), _sum(rgd, "wall")), "ratio"),
    })
    return m


# Frames sampled from the retracted trajectory, steps between samples,
# and timed calls per frame for the retraction comparison.
RETRACT_FRAMES = 8
RETRACT_SPACING = 25
RETRACT_REPEATS = 200


def retraction_costs(lg, config, seed: int) -> dict:
    """Median cost of one polar retraction (the shipped ``retract``) and
    one QR retraction, on frames from a retracted eigenspace trajectory.

    The frames are the unretracted iterates of ``rgd_step`` every
    RETRACT_SPACING steps from the workload's first initial frame. Both
    retractions validate their input the same way; the QR one fixes
    column signs so R has a positive diagonal.
    """
    d, r = config.dim, config.rank
    target = lg.make_diagonal_target(config.values, d, r)
    state = lg.EigState(config.alphas[0] * lg.gaussian_factor(d, r, seed))
    samples = []
    for step in range(RETRACT_FRAMES * RETRACT_SPACING):
        if step % RETRACT_SPACING == 0:
            samples.append(state.l.copy())
        state = lg.rgd_step(state, target, config.eta)

    def qr_retract(l_tilde):
        q, rr = np.linalg.qr(lg.linalg.as_matrix(l_tilde, "frame"))
        return q * np.sign(np.diag(rr))

    def per_call_us(fn):
        times = []
        for frame in samples:
            fn(frame)
            start = time.perf_counter()
            for _ in range(RETRACT_REPEATS):
                fn(frame)
            times.append((time.perf_counter() - start) / RETRACT_REPEATS)
        return 1e6 * statistics.median(times)

    return {
        "eigenspace.retract_polar_us": (per_call_us(lg.retract), "us"),
        "eigenspace.retract_qr_us": (per_call_us(qr_retract), "us"),
    }
