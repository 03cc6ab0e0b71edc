import math

import numpy as np
import pytest

from conftest import floor_target, multi_block_target, random_orthogonal, random_psd_target
from lowrank_gd import (
    DivergenceError,
    EigState,
    SolverConfig,
    best_rank_r,
    gaussian_factor,
    gd_step,
    lift_to_sym,
    make_diagonal_target,
    make_target,
    proj_error,
    retract,
    rf_step,
    rgd_step,
    run_eig,
)
from lowrank_gd.eigenspace import _proj_error_fn, _retract_lean

TOY = make_diagonal_target([2.0, 1.0], 2, 1)


def col(*vals):
    return np.array(vals, dtype=float).reshape(-1, 1)


def dense_rf_oracle(l, sigma, eta):
    d = l.shape[0]
    return l + eta * (np.eye(d) - l @ l.T) @ sigma @ l


# --- steps ---------------------------------------------------------------------

def test_rf_step_fixed_on_invariant_frames():
    top = EigState(col(1.0, 0.0))
    np.testing.assert_allclose(rf_step(top, TOY, 0.3).l, top.l)
    saddle = EigState(col(0.0, 1.0))
    np.testing.assert_allclose(rf_step(saddle, TOY, 0.3).l, saddle.l)


def test_rf_step_matches_dense_formula(rng):
    state = EigState(col(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)))
    nxt = rf_step(state, TOY, 0.1)
    np.testing.assert_allclose(nxt.l, dense_rf_oracle(state.l, TOY.matrix, 0.1), atol=1e-12)
    for _ in range(20):
        target = random_psd_target(rng, 6, 2)
        state = EigState(rng.normal(size=(6, 2)))
        nxt = rf_step(state, target, 0.05)
        np.testing.assert_allclose(nxt.l, dense_rf_oracle(state.l, target.matrix, 0.05), atol=1e-12)


def test_retract_examples(rng):
    np.testing.assert_allclose(retract(col(2.0, 0.0)), col(1.0, 0.0))
    q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    np.testing.assert_allclose(retract(q), q, atol=1e-12)
    l = rng.normal(size=(5, 2))
    out = retract(l)
    np.testing.assert_allclose(out.T @ out, np.eye(2), atol=1e-9)
    # same column span
    proj_in = l @ np.linalg.pinv(l)
    proj_out = out @ out.T
    np.testing.assert_allclose(proj_in, proj_out, atol=1e-9)


def test_retract_rejects_rank_deficient():
    l = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="rank deficient"):
        retract(l)
    with pytest.raises(ValueError, match="rank deficient"):
        _retract_lean(l, l.T @ l)


def test_retract_is_scale_invariant(rng):
    # The rank test is relative to the frame's own scale: a full-rank frame
    # shrunk to 1e-7 (Gram eigenvalues near 1e-14) retracts like the original.
    l = rng.normal(size=(50, 2))
    np.testing.assert_allclose(retract(1e-7 * l), retract(l), rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
def test_lean_retraction_equals_retract(rng, order, scale):
    # The retracted loop skips retract's input validation, not its
    # arithmetic: same bits, and the result keeps the frame's layout.
    for _ in range(10):
        l = np.array(scale * rng.normal(size=(40, 3)), order=order)
        lean = _retract_lean(l, l.T @ l)
        np.testing.assert_array_equal(lean, retract(l))
        assert lean.flags[f"{order}_CONTIGUOUS"] and not np.shares_memory(lean, l)


def test_rgd_step_fixed_points_and_formula(rng):
    top = EigState(col(1.0, 0.0))
    np.testing.assert_allclose(rgd_step(top, TOY, 0.3).l, top.l, atol=1e-12)
    saddle = EigState(col(0.0, 1.0))
    np.testing.assert_allclose(rgd_step(saddle, TOY, 0.3).l, saddle.l, atol=1e-12)
    for _ in range(10):
        target = random_psd_target(rng, 6, 2)
        state = EigState(rng.normal(size=(6, 2)))
        retr = retract(state.l)
        expected = dense_rf_oracle(retr, target.matrix, 0.05)
        np.testing.assert_allclose(rgd_step(state, target, 0.05).l, expected, atol=1e-12)


# --- diagnostics ------------------------------------------------------------------

def test_proj_error_values():
    oracle = best_rank_r(TOY)
    assert proj_error(EigState(col(1.0, 0.0)), oracle) == pytest.approx(0.0, abs=1e-12)
    assert proj_error(EigState(col(0.0, 1.0)), oracle) == pytest.approx(math.sqrt(2.0))
    assert proj_error(EigState(col(0.0, 0.0)), oracle) == pytest.approx(1.0)
    target3 = make_diagonal_target([3.0, 2.0, 1.0, 0.5], 4, 2)
    zero = EigState(np.zeros((4, 2)))
    assert proj_error(zero, best_rank_r(target3)) == pytest.approx(math.sqrt(2.0))


def test_lift_to_sym():
    # unit eigenvalues pass their rows through unchanged
    near_identity = make_diagonal_target([1.0, 1.0, 0.5], 3, 2)
    l = np.array([[0.3, 0.1], [0.2, -0.4], [0.5, 0.6]])
    lifted = lift_to_sym(EigState(l), near_identity)
    np.testing.assert_allclose(lifted.x[:2], l[:2])
    np.testing.assert_allclose(lifted.x[2], math.sqrt(0.5) * l[2])
    target41 = make_diagonal_target([4.0, 1.0], 2, 1)
    np.testing.assert_allclose(lift_to_sym(EigState(col(1.0, 0.0)), target41).x, col(2.0, 0.0))


def test_rf_step_equivalence_with_sym_gd(rng):
    # scaling by Sigma^(1/2) turns a retraction-free step into a symmetric
    # factored step
    for _ in range(50):
        target = random_psd_target(rng, 7, 2)
        state = EigState(rng.normal(size=(7, 2)) * 0.5)
        lifted_after = lift_to_sym(rf_step(state, target, 0.06), target)
        stepped = gd_step(lift_to_sym(state, target), target, 0.06)
        assert np.max(np.abs(lifted_after.x - stepped.x)) <= 1e-10


def test_bottom_block_contraction_along_trajectory(rng):
    target = make_diagonal_target([3.0, 2.5, 1.0, 0.8, 0.5, 0.2], 6, 2)
    eta = 0.05
    threshold = (target.lambda_r + target.lambda_r_plus_one) / 2.0
    state = EigState(gaussian_factor(6, 2, seed=4))
    for _ in range(400):
        x = lift_to_sym(state, target).x
        sr2 = np.linalg.svd(x, compute_uv=False)[-1] ** 2
        nxt = rf_step(state, target, eta)
        if sr2 >= threshold:
            h_now = np.linalg.norm(state.l[2:], 2)
            h_next = np.linalg.norm(nxt.l[2:], 2)
            assert h_next <= (1 - eta * target.gap / 2.0) * h_now + 1e-10
        state = nxt


# --- runs --------------------------------------------------------------------------

def test_run_eig_top_frame_terminates():
    target = make_diagonal_target([3.0, 2.0, 1.0, 0.5], 4, 2)
    state = EigState(np.eye(4)[:, :2])
    cfg = SolverConfig(eta=0.05, epsilon=1e-6, max_iters=100)
    for method in ("retraction_free", "rgd"):
        trace = run_eig(state, target, cfg, method=method)
        assert trace.converged and trace.iterations == 0


def test_run_eig_converges_both_methods(rng):
    target = make_diagonal_target(
        np.concatenate([np.linspace(7.0, 2.0, 5), np.ones(45)]), 50, 5
    )
    cfg = SolverConfig(eta=0.05, epsilon=1e-5, max_iters=5000)
    oracle = best_rank_r(target)
    for method in ("retraction_free", "rgd"):
        state = EigState(gaussian_factor(50, 5, seed=2))
        trace = run_eig(state, target, cfg, method=method)
        assert trace.converged
        # recorded fast-path error agrees with the dense oracle at the end
        dense = proj_error(trace.final_state, oracle)
        assert trace.final_error == pytest.approx(dense, abs=1e-9)
        # terminal frame aligns with the projector
        pl = oracle.projector @ trace.final_state.l
        assert np.linalg.norm(pl - trace.final_state.l, "fro") <= 1e-5
        if method == "rgd":
            gram = trace.final_state.l.T @ trace.final_state.l
            assert np.max(np.abs(gram - np.eye(5))) <= 1e-8


def test_run_eig_equal_top_setting(rng):
    target = make_diagonal_target(np.concatenate([np.full(3, 3.0), np.ones(37)]), 40, 3)
    cfg = SolverConfig(eta=0.05, epsilon=1e-5, max_iters=5000)
    for method in ("retraction_free", "rgd"):
        trace = run_eig(EigState(gaussian_factor(40, 3, seed=9)), target, cfg, method=method)
        assert trace.converged


STEPS = {"retraction_free": rf_step, "rgd": rgd_step}


@pytest.mark.parametrize("method", ["retraction_free", "rgd"])
def test_run_matches_repeated_steps(method):
    # The run steps in two reused buffers through the shared update kernel;
    # every recorded error and the final frame match fresh rf_step/rgd_step
    # calls bit for bit (rgd records and returns the retracted frame).
    target = make_diagonal_target(np.concatenate([np.linspace(7.0, 2.0, 5), np.ones(45)]), 50, 5)
    err_fn = _proj_error_fn(target)
    manual = EigState(gaussian_factor(50, 5, seed=2))
    trace = run_eig(manual, target, SolverConfig(eta=0.05, epsilon=1e-14, max_iters=60), method=method)
    assert trace.iterations == 60
    for t, rec in enumerate(trace.records):
        if t:
            manual = STEPS[method](manual, target, 0.05)
        frame = retract(manual.l) if method == "rgd" else manual.l
        assert rec.iter == t and rec.proj_error == err_fn(frame)[0]
    np.testing.assert_array_equal(trace.final_state.l, frame)


@pytest.mark.parametrize("method", ["retraction_free", "rgd"])
@pytest.mark.parametrize("tail", [1, 2000])
def test_run_above_one_block_matches_repeated_steps(method, tail):
    # The frame spans three row blocks of the step kernel.
    target = multi_block_target(tail)
    err_fn = _proj_error_fn(target)
    manual = EigState(gaussian_factor(target.dim, target.rank, seed=2))
    trace = run_eig(manual, target, SolverConfig(eta=0.05, epsilon=1e-14, max_iters=20), method=method)
    assert trace.iterations == 20
    for t, rec in enumerate(trace.records):
        if t:
            manual = STEPS[method](manual, target, 0.05)
        frame = retract(manual.l) if method == "rgd" else manual.l
        assert rec.iter == t and rec.proj_error == err_fn(frame)[0]
    np.testing.assert_array_equal(trace.final_state.l, frame)


@pytest.mark.parametrize("method", ["retraction_free", "rgd"])
@pytest.mark.parametrize("flat", [True, False], ids=["flat", "sloped"])
@pytest.mark.parametrize("blocks", [1, 3])
def test_run_matches_repeated_steps_over_either_floor(blocks, flat, method):
    # The Gram mu L^T L + L^T (R L) and the head's product: kept in the
    # scratch between the two when the head fits one block, formed twice in
    # blocks when it does not. Either way the run has the steps' bits.
    target = multi_block_target(2000, flat=flat) if blocks == 3 else floor_target(60, flat)
    err_fn = _proj_error_fn(target)
    manual = EigState(gaussian_factor(target.dim, target.rank, seed=6))
    trace = run_eig(manual, target, SolverConfig(eta=0.05, epsilon=1e-14, max_iters=15), method=method)
    assert trace.iterations == 15
    for t, rec in enumerate(trace.records):
        if t:
            manual = STEPS[method](manual, target, 0.05)
        frame = retract(manual.l) if method == "rgd" else manual.l
        assert rec.iter == t and rec.proj_error == err_fn(frame)[0]
    np.testing.assert_array_equal(trace.final_state.l, frame)


@pytest.mark.parametrize("method", ["retraction_free", "rgd"])
@pytest.mark.parametrize("iters", [1, 2, 5])
def test_run_eig_leaves_state0_untouched(method, iters):
    target = make_diagonal_target([3.0, 2.0, 1.0, 0.5, 0.2], 5, 2)
    state = EigState(np.linspace(-0.4, 0.5, 10).reshape(5, 2))
    before = state.l.copy()
    trace = run_eig(state, target, SolverConfig(eta=0.05, epsilon=1e-14, max_iters=iters), method=method)
    assert trace.iterations == iters
    np.testing.assert_array_equal(state.l, before)
    assert not np.shares_memory(trace.final_state.l, state.l)


@pytest.mark.parametrize("method", ["retraction_free", "rgd"])
def test_run_eig_frames_follow_the_factor_order(rng, method):
    # Column-major for a diagonal target, whose diagonal multiply then runs
    # down contiguous columns; row-major for a rotated one.
    values = [3.0, 2.0, 1.0, 0.5, 0.2, 0.1]
    cfg = SolverConfig(eta=0.05, epsilon=1e-14, max_iters=3)
    l0 = np.array(gaussian_factor(6, 2, seed=3), order="C")
    for target, flag in ((make_diagonal_target(values, 6, 2), "F_CONTIGUOUS"),
                         (make_target(values, 2, random_orthogonal(rng, 6)), "C_CONTIGUOUS")):
        assert run_eig(EigState(l0), target, cfg, method=method).final_state.l.flags[flag]


def test_run_eig_rgd_overflow_raises_divergence_with_trace():
    # lambda_1 = 1e200: the first step's frame is finite but its Gram is
    # not, so the run ends at the divergence guard rather than in the
    # retraction's input validation.
    target = make_diagonal_target([1e200, 1e199] + [1.0] * 18, 20, 2)
    cfg = SolverConfig(eta=0.5, epsilon=1e-4, max_iters=100)
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError) as excinfo:
        run_eig(EigState(0.5 * gaussian_factor(20, 2, seed=1)), target, cfg, method="rgd")
    trace = excinfo.value.trace
    assert not trace.converged and trace.iterations == 1
    assert [rec.iter for rec in trace.records] == [0, 1]
    assert math.isfinite(trace.records[0].proj_error)


def test_run_eig_reports_wall_time():
    target = make_diagonal_target([3.0, 1.0, 0.5], 3, 1)
    trace = run_eig(
        EigState(gaussian_factor(3, 1, seed=1)), target,
        SolverConfig(eta=0.05, epsilon=1e-8, max_iters=2000),
    )
    assert trace.wall_time > 0.0
