import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import lowrank_gd as lg
from lowrank_gd import DivergenceError, SolverConfig, linalg
from lowrank_gd.engine import iterate


@dataclass
class Rec:
    iter: int
    error: float


def test_nan_norm_trips_the_divergence_guard():
    # A NaN norm compares False against any limit, so a guard written as
    # ``norm >= limit`` would let the run spin on NaN to the budget.
    def measure(x):
        norm = float(np.linalg.norm(x))
        return x, norm, norm, False, None

    def step(x, _, out):
        return np.add(x, 1.0, out=out) if x[0] < 3.0 else np.full_like(x, np.nan)

    config = SolverConfig(eta=0.1, epsilon=1e-6, max_iters=100)
    with pytest.raises(DivergenceError) as excinfo:
        iterate(np.zeros(2), np.empty(2), step, measure, lambda t, x, err, _: Rec(t, err), config, np.copy)
    trace = excinfo.value.trace
    assert not trace.converged and trace.iterations == 4
    assert [rec.iter for rec in trace.records] == [0, 1, 2, 3, 4]
    assert math.isnan(trace.final_error) and np.isnan(trace.final_state).all()


def test_iterate_steps_in_two_buffers_that_trade_places():
    # Each step writes into the buffer the iterate before last occupied;
    # the caller's spare is the first target.
    x0, spare = np.zeros(2), np.empty(2)
    outs = []

    def step(x, _, out):
        assert out is not x
        outs.append(out)
        return np.add(x, 1.0, out=out)

    def measure(x):
        return x, 0.0, 0.0, False, None

    trace = iterate(x0, spare, step, measure, lambda t, x, err, _: Rec(t, err),
                    SolverConfig(eta=0.1, epsilon=1e-6, max_iters=5), np.copy)
    assert [out is spare for out in outs] == [True, False, True, False, True]
    assert all(out is x0 for out in outs[1::2])
    assert trace.final_state.tolist() == [5.0, 5.0] and spare.tolist() == [5.0, 5.0]


@pytest.mark.parametrize("solver", ["sym", "asym", "retraction_free"])
def test_runs_allocate_no_factor_sized_array_per_step(solver):
    # Peak traced memory of a whole run: the iterate and its spare (per
    # factor), the step map's head scratch (per factor: the head's s = r
    # rows over a flat floor, one row block over a sloped tail), the
    # d-length columns a run forms once, and a quarter factor of slack. One
    # d x r temporary per step, a d x r scratch, or a row block over a flat
    # floor would exceed it. Over a flat floor the symmetric and eigenspace
    # steps form no d-length column; over a sloped tail they form one for
    # the head of Sigma's split, which then spans d - 1 rows and five row
    # blocks.
    d, r = 20000, 4
    cfg = SolverConfig(eta=0.05, epsilon=1e-14, max_iters=20, record_every=1000)
    x0, y0 = 0.1 * lg.gaussian_factor(d, r, 1), 0.1 * lg.gaussian_factor(d, r, 2)
    factor, block = x0.nbytes, linalg.block_rows(d, r) * r * 8
    assert block < 0.6 * factor
    for tail in (np.full(d - r, 0.5), np.linspace(1.0, 0.5, d - r)):
        target = lg.make_diagonal_target(np.concatenate([np.linspace(3.0, 2.0, r), tail]), d, r)
        flat = tail[0] == tail[-1]
        head = r * r * 8 if flat else block
        run, factors, columns = {
            "sym": (lambda: lg.run(lg.FactorState(x0), target, cfg), 1, 0 if flat else 1),
            "asym": (lambda: lg.run_asym(lg.AsymState(x0, y0), target, cfg), 2, 2),
            "retraction_free": (lambda: lg.run_eig(lg.EigState(x0), target, cfg), 1, 0 if flat else 1),
        }[solver]
        tracemalloc.start()
        try:
            trace = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.iterations == 20
        assert peak < (2 * factors + 0.25) * factor + factors * head + columns * d * 8


@pytest.mark.parametrize("field, value", [
    ("eta", math.nan), ("eta", 0.0), ("eta", 1.5),
    ("epsilon", math.nan), ("epsilon", math.inf), ("epsilon", 0.0),
    ("max_iters", math.nan), ("max_iters", 2.5), ("max_iters", 0), ("max_iters", True),
    ("record_every", math.nan), ("record_every", 2.5), ("record_every", 0),
])
def test_solver_config_rejects_a_bad_field_by_name(field, value):
    # A NaN max_iters would never satisfy t >= max_iters, so a run could
    # only stop by converging.
    fields = dict(eta=0.1, epsilon=1e-6, max_iters=10, record_every=1)
    SolverConfig(**fields)
    with pytest.raises(ValueError, match=field):
        SolverConfig(**dict(fields, **{field: value}))
