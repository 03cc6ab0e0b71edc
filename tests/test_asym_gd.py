import math

import numpy as np
import pytest

from conftest import floor_target, multi_block_target, pad_square, random_orthogonal
from lowrank_gd import (
    AsymState,
    DivergenceError,
    FactorState,
    SolverConfig,
    asym_error,
    asym_step,
    balance_gap,
    gaussian_factor,
    gd_step,
    lift,
    make_diagonal_target,
    run_asym,
)
from lowrank_gd.engine import DIVERGENCE_LIMIT


def dense_step_oracle(x, y, sigma, eta, regularized):
    """The update written exactly as the gradients read, via the dense residual."""
    residual = sigma - x @ y.T
    x_next = x + eta * residual @ y
    y_next = y + eta * residual.T @ x
    if regularized:
        imbalance = x.T @ x - y.T @ y
        x_next = x_next - 0.5 * eta * x @ imbalance
        y_next = y_next + 0.5 * eta * y @ imbalance
    return x_next, y_next


def test_balanced_minimum_is_fixed_point(rng):
    x = rng.normal(size=(4, 2))
    sigma = x @ x.T
    state = AsymState(x, x.copy())
    for reg in (True, False):
        nxt = asym_step(state, sigma, 0.1, regularized=reg)
        np.testing.assert_allclose(nxt.x, x, atol=1e-14)
        np.testing.assert_allclose(nxt.y, x, atol=1e-14)


def test_scalar_hand_example():
    state = AsymState(np.array([[1.0]]), np.array([[2.0]]))
    nxt = asym_step(state, np.array([[2.0]]), 0.1, regularized=True)
    assert nxt.x[0, 0] == pytest.approx(1.15)
    assert nxt.y[0, 0] == pytest.approx(1.7)
    unreg = asym_step(state, np.array([[2.0]]), 0.1, regularized=False)
    assert unreg.x[0, 0] == pytest.approx(1.0)
    assert unreg.y[0, 0] == pytest.approx(2.0)


def test_step_matches_dense_residual_oracle(rng):
    for _ in range(30):
        d1, d2, r = int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(1, 3))
        sigma = rng.normal(size=(d1, d2))
        state = AsymState(rng.normal(size=(d1, r)), rng.normal(size=(d2, r)))
        eta = float(rng.uniform(0.01, 0.2))
        for reg in (True, False):
            nxt = asym_step(state, sigma, eta, regularized=reg)
            ox, oy = dense_step_oracle(state.x, state.y, sigma, eta, reg)
            assert np.max(np.abs(nxt.x - ox)) <= 1e-12
            assert np.max(np.abs(nxt.y - oy)) <= 1e-12


def test_step_dimension_mismatch():
    state = AsymState(np.zeros((3, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        asym_step(state, np.zeros((3, 3)), 0.1)


# --- lifting -----------------------------------------------------------------

def test_lift_balanced_and_antibalanced(rng):
    x = rng.normal(size=(3, 2))
    balanced = lift(AsymState(x, x.copy()))
    np.testing.assert_allclose(balanced.w[:3], math.sqrt(2.0) * x)
    np.testing.assert_allclose(balanced.w[3:], 0.0)
    anti = lift(AsymState(x, -x))
    np.testing.assert_allclose(anti.w[:3], 0.0)
    np.testing.assert_allclose(anti.w[3:], math.sqrt(2.0) * x)


def test_lift_requires_square():
    with pytest.raises(ValueError, match="square"):
        lift(AsymState(np.zeros((3, 1)), np.zeros((2, 1))))


def test_lift_commutes_with_step(rng):
    # the change of variables turns one regularized asymmetric step into one
    # symmetric step on diag(2 sigma, -2 sigma) with half the step size;
    # the identity needs a symmetric sigma
    for _ in range(50):
        d, r = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        a = rng.normal(size=(d, d))
        sigma = 0.5 * (a + a.T)
        state = AsymState(rng.normal(size=(d, r)), rng.normal(size=(d, r)))
        eta = float(rng.uniform(0.01, 0.1))
        after = lift(asym_step(state, sigma, eta, regularized=True))
        before = lift(state, sigma)
        stepped = gd_step(FactorState(before.w), before.lifted_target, eta / 2.0)
        assert np.max(np.abs(after.w - stepped.x)) <= 1e-10


def test_pad_square_commutes_with_step(rng):
    for _ in range(10):
        d1, d2, r = 5, 3, 2
        sigma = rng.normal(size=(d1, d2))
        padded_sigma = np.zeros((d1, d1))
        padded_sigma[:, :d2] = sigma
        state = AsymState(rng.normal(size=(d1, r)), rng.normal(size=(d2, r)))
        eta = 0.05
        stepped = pad_square(asym_step(state, sigma, eta, regularized=True))
        padded_step = asym_step(pad_square(state), padded_sigma, eta, regularized=True)
        assert np.max(np.abs(stepped.x - padded_step.x)) <= 1e-12
        assert np.max(np.abs(stepped.y - padded_step.y)) <= 1e-12


# --- diagnostics ---------------------------------------------------------------

def test_balance_gap_values(rng):
    x = rng.normal(size=(4, 2))
    assert balance_gap(AsymState(x, x.copy())) == 0.0
    assert balance_gap(AsymState(np.array([[1.0]]), np.array([[2.0]]))) == pytest.approx(3.0)
    frame, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    q = random_orthogonal(rng, 2)
    assert balance_gap(AsymState(frame, frame @ q)) == pytest.approx(0.0, abs=1e-12)


def test_balance_gap_rotation_invariance(rng):
    x = rng.normal(size=(4, 2))
    y = rng.normal(size=(5, 2))
    q = random_orthogonal(rng, 2)
    rotated = AsymState(x @ q, y @ q)
    assert balance_gap(rotated) == pytest.approx(balance_gap(AsymState(x, y)), rel=1e-12)


def test_asym_error_exact_cases(rng):
    sigma = np.diag([3.0, 1.0])
    state = AsymState(np.array([[math.sqrt(3.0)], [0.0]]), np.array([[math.sqrt(3.0)], [0.0]]))
    assert asym_error(state, sigma, 1) == pytest.approx(0.0, abs=1e-12)
    zero = AsymState(np.zeros((2, 1)), np.zeros((2, 1)))
    assert asym_error(zero, sigma, 1) == pytest.approx(3.0)


def test_asym_error_fast_path_matches_dense(rng):
    vals = np.sort(rng.uniform(0.1, 5.0, 7))[::-1]
    sigma = np.diag(vals)
    r = 3
    sigma_r = np.diag(np.concatenate([vals[:r], np.zeros(4)]))
    for _ in range(20):
        state = AsymState(rng.normal(size=(7, r)), rng.normal(size=(7, r)))
        dense = np.linalg.norm(sigma_r - state.x @ state.y.T, "fro")
        assert asym_error(state, sigma, r) == pytest.approx(dense, abs=1e-10)


def test_asym_error_general_matrix(rng):
    sigma = rng.normal(size=(5, 4))
    u, s, vt = np.linalg.svd(sigma, full_matrices=False)
    sigma_r = (u[:, :2] * s[:2]) @ vt[:2]
    state = AsymState(rng.normal(size=(5, 2)), rng.normal(size=(4, 2)))
    dense = np.linalg.norm(sigma_r - state.x @ state.y.T, "fro")
    assert asym_error(state, sigma, 2) == pytest.approx(dense, abs=1e-12)


# --- runs ----------------------------------------------------------------------

def test_run_from_balanced_minimum(rng):
    x = rng.normal(size=(4, 2))
    sigma = x @ x.T
    cfg = SolverConfig(eta=0.05, epsilon=1e-6, max_iters=100)
    trace = run_asym(AsymState(x, x.copy()), sigma, cfg, regularized=True)
    assert trace.converged and trace.iterations == 0


def test_run_matches_repeated_steps(rng):
    sigma = np.diag([3.0, 2.0, 1.0, 0.5])
    state = AsymState(0.1 * rng.normal(size=(4, 2)), 0.1 * rng.normal(size=(4, 2)))
    cfg = SolverConfig(eta=0.05, epsilon=1e-14, max_iters=40)
    trace = run_asym(state, sigma, cfg, regularized=True)
    manual = state
    for _ in range(40):
        manual = asym_step(manual, sigma, 0.05, regularized=True)
    np.testing.assert_array_equal(trace.final_state.x, manual.x)
    np.testing.assert_array_equal(trace.final_state.y, manual.y)


def _run_and_step(state, sigma, regularized, iters, eta=0.05):
    trace = run_asym(state, sigma, SolverConfig(eta=eta, epsilon=1e-14, max_iters=iters), regularized)
    manual = state
    for _ in range(trace.iterations):
        manual = asym_step(manual, sigma, eta, regularized=regularized)
    return trace, manual


@pytest.mark.parametrize("regularized", [True, False])
@pytest.mark.parametrize("problem", ["indefinite", "rectangular"])
def test_run_matches_repeated_steps_on_dense_sigma(rng, problem, regularized):
    # The run applies a dense Sigma into reused buffers, asym_step into
    # fresh ones: an indefinite Target (not its own SVD) and a d1 != d2 array.
    if problem == "indefinite":
        sigma = make_diagonal_target([3.0, 2.0, -1.0, -2.0], 4, 2)
        state = AsymState(0.1 * rng.normal(size=(4, 2)), 0.1 * rng.normal(size=(4, 2)))
    else:
        sigma = rng.normal(size=(6, 4))
        state = AsymState(0.1 * rng.normal(size=(6, 2)), 0.1 * rng.normal(size=(4, 2)))
    trace, manual = _run_and_step(state, sigma, regularized, 41)
    assert trace.iterations == 41
    np.testing.assert_array_equal(trace.final_state.x, manual.x)
    np.testing.assert_array_equal(trace.final_state.y, manual.y)


@pytest.mark.parametrize("regularized", [True, False])
@pytest.mark.parametrize("tail", [1, 2000])
def test_run_above_one_block_matches_repeated_steps(tail, regularized):
    # Both factors span three row blocks of the step kernel.
    target = multi_block_target(tail)
    d, r = target.dim, target.rank
    state = AsymState(0.5 * gaussian_factor(d, r, seed=1), 0.5 * gaussian_factor(d, r, seed=2))
    trace, manual = _run_and_step(state, target, regularized, 20)
    assert trace.iterations == 20
    np.testing.assert_array_equal(trace.final_state.x, manual.x)
    np.testing.assert_array_equal(trace.final_state.y, manual.y)


@pytest.mark.parametrize("regularized", [True, False])
@pytest.mark.parametrize("flat", [True, False], ids=["flat", "sloped"])
@pytest.mark.parametrize("blocks", [1, 3])
def test_run_matches_repeated_asym_step_over_either_floor(blocks, flat, regularized):
    # Over a flat floor the head of Sigma's split is the r leading rows;
    # over a sloped tail it is every row but the last, and at three blocks
    # of a factor it spans every block of the joint iterate's scratch.
    # Either way every record and the final pair have asym_step's bits.
    target = multi_block_target(2000, flat=flat) if blocks == 3 else floor_target(60, flat)
    d, r = target.dim, target.rank
    manual = AsymState(0.5 * gaussian_factor(d, r, seed=6), 0.5 * gaussian_factor(d, r, seed=7))
    trace = run_asym(manual, target, SolverConfig(eta=0.05, epsilon=1e-14, max_iters=15), regularized)
    assert trace.iterations == 15
    for t, rec in enumerate(trace.records):
        if t:
            manual = asym_step(manual, target, 0.05, regularized=regularized)
        assert rec.iter == t and rec.error == asym_error(manual, target, r)
    np.testing.assert_array_equal(trace.final_state.x, manual.x)
    np.testing.assert_array_equal(trace.final_state.y, manual.y)


@pytest.mark.parametrize("d1, d2", [(7, 4), (4, 7)])
def test_rectangular_run_keeps_each_factor_at_its_length(rng, d1, d2):
    # The shorter factor is zero-padded in the joint iterate; the final
    # state holds the real rows only and equals repeated steps.
    sigma = rng.normal(size=(d1, d2))
    state = AsymState(0.3 * rng.normal(size=(d1, 2)), 0.3 * rng.normal(size=(d2, 2)))
    trace, manual = _run_and_step(state, sigma, True, 30, eta=0.02)
    assert trace.iterations == 30
    assert trace.final_state.x.shape == (d1, 2) and trace.final_state.y.shape == (d2, 2)
    np.testing.assert_array_equal(trace.final_state.x, manual.x)
    np.testing.assert_array_equal(trace.final_state.y, manual.y)


@pytest.mark.parametrize("iters", [1, 2, 5])
def test_run_leaves_state0_untouched(rng, iters):
    sigma = np.diag([3.0, 2.0, 1.0, 0.5])
    state = AsymState(0.1 * rng.normal(size=(4, 2)), 0.1 * rng.normal(size=(4, 2)))
    before = state.x.copy(), state.y.copy()
    trace, _ = _run_and_step(state, sigma, True, iters)
    assert trace.iterations == iters
    np.testing.assert_array_equal(state.x, before[0])
    np.testing.assert_array_equal(state.y, before[1])
    final = trace.final_state
    assert not any(np.shares_memory(a, b) for a in (final.x, final.y) for b in (state.x, state.y))


def test_guard_stop_carries_the_guard_time_iterate():
    sigma = make_diagonal_target([3.0, 2.0, 1.0, 0.5, 0.2], 5, 2)
    x0 = np.linspace(-1.0, 1.5, 10).reshape(5, 2)
    state = AsymState(x0, x0[::-1].copy())
    with pytest.raises(DivergenceError) as excinfo:
        run_asym(state, sigma, SolverConfig(eta=0.5, epsilon=1e-9, max_iters=100, record_every=50))
    trace = excinfo.value.trace
    assert trace.iterations == 4
    manual = state
    for _ in range(4):
        manual = asym_step(manual, sigma, 0.5)
    assert max(np.linalg.norm(manual.x), np.linalg.norm(manual.y)) >= DIVERGENCE_LIMIT
    np.testing.assert_array_equal(trace.final_state.x, manual.x)
    np.testing.assert_array_equal(trace.final_state.y, manual.y)


def test_regularized_run_balances_at_termination(rng):
    sigma = np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
    state = AsymState(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
    cfg = SolverConfig(eta=0.05, epsilon=1e-5, max_iters=50000)
    trace = run_asym(state, sigma, cfg, regularized=True)
    assert trace.converged
    assert trace.final_balance <= 1e-5
    assert balance_gap(trace.final_state) <= 1e-5


def test_unregularized_run_stops_on_error_alone(rng):
    sigma = np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
    state = AsymState(rng.normal(size=(5, 2)), 2.0 * rng.normal(size=(5, 2)))
    cfg = SolverConfig(eta=0.05, epsilon=1e-5, max_iters=50000)
    trace = run_asym(state, sigma, cfg, regularized=False)
    assert trace.converged
    assert trace.final_error <= 1e-5
