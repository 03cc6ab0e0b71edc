import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import floor_target, multi_block_target, random_orthogonal, random_psd_target, sample_state_in_region, scaled_random_state
from lowrank_gd import (
    DivergenceError,
    FactorState,
    SolverConfig,
    approximation_error,
    best_rank_r,
    check_condition_1,
    gaussian_factor,
    gd_step,
    in_region_r,
    in_region_r2,
    local_iteration_budget,
    make_diagonal_target,
    make_target,
    max_step_size,
    noise_signal_ratio,
    run,
    signal_residual,
    warmup_budget,
)
from lowrank_gd import experiment_spectrum, linalg, load_config
from lowrank_gd.engine import DIVERGENCE_LIMIT
from lowrank_gd.sym_gd import DEFAULT_REGION_SLACK, block_values, eigen_blocks

ROOT = Path(__file__).resolve().parent.parent

TOY = make_diagonal_target([2.0, 1.0], 2, 1)


def col(*vals):
    return np.array(vals, dtype=float).reshape(-1, 1)


def block_update_oracle(u, j, lam_head, lam_tail, eta):
    """The split form of the update applied directly to the blocks."""
    x = np.vstack([u, j])
    gram = x.T @ x
    u_next = u + eta * (np.diag(lam_head) @ u) - eta * (u @ gram)
    j_next = j + eta * (np.diag(lam_tail) @ j) - eta * (j @ gram)
    return u_next, j_next


# --- gd_step ---------------------------------------------------------------

def test_gd_step_fixed_point_at_minimum():
    target = make_diagonal_target([1.0, 0.0], 2, 1)
    state = FactorState(col(1.0, 0.0))
    nxt = gd_step(state, target, 0.7)
    np.testing.assert_allclose(nxt.x, state.x)


def test_gd_step_hand_example():
    nxt = gd_step(FactorState(col(1.0, 1.0)), TOY, 0.1)
    np.testing.assert_allclose(nxt.x, col(1.0, 0.9))


def test_gd_step_origin_is_stationary():
    nxt = gd_step(FactorState(np.zeros((3, 2))), make_diagonal_target([2.0, 1.5, 0.5], 3, 2), 0.1)
    np.testing.assert_allclose(nxt.x, 0.0)


def test_gd_step_dimension_mismatch():
    with pytest.raises(ValueError):
        gd_step(FactorState(np.zeros((3, 1))), TOY, 0.1)


def test_gd_step_matches_block_form(rng):
    for _ in range(20):
        d, r = 6, 2
        target = random_psd_target(rng, d, r)
        x = rng.normal(size=(d, r))
        nxt = gd_step(FactorState(x), target, 0.05)
        u_next, j_next = block_update_oracle(
            x[:r], x[r:], target.eigenvalues[:r], target.eigenvalues[r:], 0.05
        )
        assert np.max(np.abs(nxt.x - np.vstack([u_next, j_next]))) <= 1e-14


# --- regions ---------------------------------------------------------------

def test_region_r_examples():
    assert in_region_r(FactorState(col(1.0, 0.5)), TOY, 0.0)
    assert not in_region_r(FactorState(col(0.1, 0.5)), TOY, 0.0)


def test_region_r_contains_minimizer():
    state = FactorState(col(math.sqrt(2.0), 0.0))
    assert in_region_r(state, TOY, 0.0)


def test_region_r2_examples():
    assert in_region_r2(FactorState(col(0.1, 0.5)), TOY, 0.0)
    assert not in_region_r2(FactorState(col(math.sqrt(5.0), 0.0)), TOY, 0.0)
    assert in_region_r2(FactorState(col(0.0, 0.0)), TOY, 0.0)


# --- scalar diagnostics ----------------------------------------------------

def test_max_step_size_values():
    assert max_step_size(TOY) == pytest.approx(1.0 / 288.0)
    assert max_step_size(make_diagonal_target([1.0, 0.0], 2, 1)) == pytest.approx(1.0 / 36.0)
    wide = make_diagonal_target(experiment_spectrum(7.0, 2.0, 10, 1000), 1000, 10)
    assert max_step_size(wide) == pytest.approx(1.0 / 12348.0)
    # the experiments run eta = 0.05, far above this bound
    assert 0.05 > max_step_size(wide)


def test_noise_signal_ratio():
    assert noise_signal_ratio(FactorState(col(1.0, 0.5)), TOY) == pytest.approx(0.25)
    assert noise_signal_ratio(FactorState(col(1.0, 0.0)), TOY) == 0.0
    assert noise_signal_ratio(FactorState(col(0.0, 0.3)), TOY) == math.inf


def test_signal_residual():
    assert signal_residual(FactorState(col(math.sqrt(2.0), 0.0)), TOY) == pytest.approx(0.0, abs=1e-12)
    assert signal_residual(FactorState(col(1.0, 0.0)), TOY) == pytest.approx(1.0)
    assert signal_residual(FactorState(col(0.0, 0.0)), TOY) == pytest.approx(2.0)


def test_an_overflowing_noise_signal_ratio_reads_inf():
    # sigma_r(U) = 1e-200 is above SIGNAL_FLOOR, yet (0.5 / 1e-200)^2 leaves
    # the float range, where Python's float ** raises OverflowError.
    target = make_diagonal_target([3.0, 2.0, 1.0, 1.0, 1.0, 1.0], 6, 2)
    x = np.zeros((6, 2))
    x[0, 0], x[1, 1], x[2, 0] = 1.0, 1e-200, 0.5
    state = FactorState(x)
    assert noise_signal_ratio(state, target) == math.inf
    assert not in_region_r(state, target) and in_region_r2(state, target)
    assert not check_condition_1(state, target, 0.05).holds
    trace = run(state, target, SolverConfig(eta=0.05, epsilon=1e-6, max_iters=3, record_every=1))
    assert [rec.ratio for rec in trace.records] == [math.inf] * 4
    assert not any(rec.in_r for rec in trace.records)


def test_each_record_takes_one_decomposition(monkeypatch):
    # block_values decomposes its four r x r blocks as one stack: one
    # singular_values call per record, whose values equal the four separate
    # calls' bit for bit on every record of a run.
    target = make_diagonal_target(experiment_spectrum(7.0, 2.0, 4, 60), 60, 4)
    state = FactorState(0.01 * gaussian_factor(60, 4, seed=3))
    cfg = SolverConfig(eta=0.05, epsilon=1e-12, max_iters=40, record_every=1)
    calls = []

    def counted(m, _f=linalg.singular_values):
        calls.append(np.shape(m))
        return _f(m)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "singular_values", counted)
        block_values(eigen_blocks(state, target))
        assert calls == [(4, 4, 4)]
        trace = run(state, target, cfg)
    assert len(calls) == 1 + len(trace.records) == 42
    sv = linalg.singular_values
    for t, rec in enumerate(trace.records):
        if t:
            state = gd_step(state, target, cfg.eta)
        u, top, gram_u, gram_j = eigen_blocks(state, target)
        s1j, sru = math.sqrt(sv(gram_j)[0]), float(sv(u)[-1])
        want = (math.sqrt(sv(gram_u + gram_j)[0]), s1j, sru, (s1j / sru) ** 2, float(sv(top)[0]))
        assert (rec.sigma1_x, rec.sigma1_j, rec.sigmar_u, rec.ratio, rec.sigma1_p) == want, t


def test_local_iteration_budget_example():
    assert local_iteration_budget(TOY, 1.0 / 288.0, 1e-3) == 33274


def test_local_iteration_budget_unit_log():
    eta = 1.0 / 288.0
    eps = 200.0 * 1 * 4.0 / eta  # makes the log argument exactly 1
    assert local_iteration_budget(TOY, eta, eps) == 0


def test_local_iteration_budget_halving():
    eta = 1.0 / 288.0
    for eps in (1e-2, 1e-4, 1e-6):
        delta = local_iteration_budget(TOY, eta, eps / 2) - local_iteration_budget(TOY, eta, eps)
        assert delta <= math.ceil((6.0 / (eta * TOY.gap)) * math.log(2.0)) + 1
        assert delta >= 0


# --- run -------------------------------------------------------------------

def test_run_fixed_point_terminates_immediately():
    state = FactorState(col(math.sqrt(2.0), 0.0))
    trace = run(state, TOY, SolverConfig(eta=1 / 288, epsilon=1e-6, max_iters=100))
    assert trace.converged and trace.iterations == 0
    assert trace.final_error <= 1e-10
    assert len(trace.records) == 1


def test_run_toy_matches_oracle():
    trace = run(
        FactorState(col(0.6, 0.1)), TOY, SolverConfig(eta=1 / 288, epsilon=1e-6, max_iters=200000)
    )
    assert trace.converged
    oracle = best_rank_r(TOY)
    xx = trace.final_state.x @ trace.final_state.x.T
    assert np.linalg.norm(oracle.sigma_r_matrix - xx, "fro") <= 1e-6


def test_run_error_column_matches_dense_oracle():
    target = make_diagonal_target([3.0, 2.0, 1.0, 0.5, 0.2], 5, 2)
    oracle = best_rank_r(target)
    state = FactorState(np.linspace(-0.4, 0.5, 10).reshape(5, 2))
    trace = run(state, target, SolverConfig(eta=0.01, epsilon=1e-9, max_iters=50))
    # spot-check first and last records against the dense error
    first = trace.records[0]
    dense = np.linalg.norm(oracle.sigma_r_matrix - state.x @ state.x.T, "fro")
    assert first.error == pytest.approx(dense, abs=1e-11)
    last_state = trace.final_state
    dense_last = np.linalg.norm(oracle.sigma_r_matrix - last_state.x @ last_state.x.T, "fro")
    assert trace.final_error == pytest.approx(dense_last, abs=1e-11)
    assert approximation_error(last_state, target) == pytest.approx(dense_last, abs=1e-11)


def test_run_records_cadence():
    target = make_diagonal_target([3.0, 2.0, 1.0], 3, 1)
    state = FactorState(col(0.9, 0.05, 0.05))
    trace = run(state, target, SolverConfig(eta=0.01, epsilon=1e-12, max_iters=25, record_every=10))
    iters = [rec.iter for rec in trace.records]
    assert iters == [0, 10, 20, 25]


def test_run_divergence_guard_carries_trace():
    state = FactorState(col(1e5, 0.0))
    with pytest.raises(DivergenceError) as excinfo:
        run(state, TOY, SolverConfig(eta=1.0, epsilon=1e-6, max_iters=1000))
    trace = excinfo.value.trace
    assert trace is not None and not trace.converged
    assert len(trace.records) >= 1


@pytest.mark.parametrize("iters", [1, 2, 7])
def test_run_leaves_state0_untouched(iters):
    # The run steps in its own pair of buffers; after an odd or even number
    # of steps the final iterate is one of them, never the caller's array.
    target = make_diagonal_target([3.0, 2.0, 1.0, 0.5, 0.2], 5, 2)
    state = FactorState(np.linspace(-0.4, 0.5, 10).reshape(5, 2))
    before = state.x.copy()
    trace = run(state, target, SolverConfig(eta=0.01, epsilon=1e-14, max_iters=iters))
    assert trace.iterations == iters
    np.testing.assert_array_equal(state.x, before)
    assert not np.shares_memory(trace.final_state.x, state.x)


def test_run_on_rotated_target_matches_repeated_gd_step():
    # A rotated target applies its dense matrix into the step's buffer;
    # every recorded error and the final iterate match fresh gd_step calls
    # bit for bit.
    d, r = 30, 3
    values = np.concatenate([np.linspace(3.0, 2.0, r), np.linspace(1.0, 0.5, d - r)])
    target = make_target(values, r, basis=random_orthogonal(np.random.default_rng(5), d))
    manual = FactorState(0.5 * gaussian_factor(d, r, seed=2))
    trace = run(manual, target, SolverConfig(eta=0.05, epsilon=1e-14, max_iters=25))
    for t, rec in enumerate(trace.records):
        if t:
            manual = gd_step(manual, target, 0.05)
        assert rec.iter == t and rec.error == approximation_error(manual, target)
    np.testing.assert_array_equal(trace.final_state.x, manual.x)


@pytest.mark.parametrize("tail", [1, 2000])
def test_run_above_one_block_matches_repeated_gd_step(tail):
    # The factor spans three row blocks of the step kernel (the last one a
    # single row or a partial block); the run's block-sized scratch and
    # gd_step's give the same bits.
    target = multi_block_target(tail)
    manual = FactorState(0.5 * gaussian_factor(target.dim, target.rank, seed=4))
    trace = run(manual, target, SolverConfig(eta=0.05, epsilon=1e-14, max_iters=20))
    assert trace.iterations == 20
    for t, rec in enumerate(trace.records):
        if t:
            manual = gd_step(manual, target, 0.05)
        assert rec.iter == t and rec.error == approximation_error(manual, target)
    np.testing.assert_array_equal(trace.final_state.x, manual.x)


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "sloped"])
@pytest.mark.parametrize("blocks", [1, 3])
def test_run_matches_repeated_gd_step_over_either_floor(blocks, flat):
    # Over a flat floor the head of Sigma's split is the r leading rows; over
    # a sloped tail it is every row but the last, and at three blocks its
    # product spans all of them. Either way the run has gd_step's bits.
    target = multi_block_target(2000, flat=flat) if blocks == 3 else floor_target(60, flat)
    manual = FactorState(0.5 * gaussian_factor(target.dim, target.rank, seed=6))
    trace = run(manual, target, SolverConfig(eta=0.05, epsilon=1e-14, max_iters=15))
    assert trace.iterations == 15
    for t, rec in enumerate(trace.records):
        if t:
            manual = gd_step(manual, target, 0.05)
        assert rec.iter == t and rec.error == approximation_error(manual, target)
    np.testing.assert_array_equal(trace.final_state.x, manual.x)


def test_guard_stop_carries_the_guard_time_iterate():
    # The guard trips on the third iterate; that iterate, not the one
    # before it nor a buffer written afterwards, is the final state.
    target = make_diagonal_target([3.0, 2.0, 1.0, 0.5, 0.2], 5, 2)
    manual = FactorState(np.linspace(-2.0, 3.0, 10).reshape(5, 2))
    with pytest.raises(DivergenceError) as excinfo:
        run(manual, target, SolverConfig(eta=0.5, epsilon=1e-9, max_iters=100, record_every=50))
    trace = excinfo.value.trace
    assert trace.iterations == 3
    for _ in range(3):
        manual = gd_step(manual, target, 0.5)
    assert np.linalg.norm(manual.x) >= DIVERGENCE_LIMIT
    np.testing.assert_array_equal(trace.final_state.x, manual.x)


def test_gram_diagnostics_match_svd_on_shipped_trajectories():
    # sigma_1(X) and sigma_1(J) are taken from r x r Gram blocks; every
    # record of the first repeat of each sym_magnitudes alpha is checked
    # against SVDs of the iterate, rebuilt step by step with gd_step.
    cfg = load_config(ROOT / "configs" / "sym_magnitudes.json")
    target = make_diagonal_target(cfg.values, cfg.dim, cfg.rank)
    r, slack, lam_r = cfg.rank, DEFAULT_REGION_SLACK, np.diag(target.leading)
    solver_cfg = SolverConfig(cfg.eta, cfg.epsilon, cfg.max_iters, record_every=1)

    def sv(m):
        return np.linalg.svd(m, compute_uv=False)

    def close(got, want):
        return abs(got - want) <= 1e-12 * abs(want)

    for alpha in cfg.alphas:
        state = FactorState(alpha * gaussian_factor(cfg.dim, r, cfg.seed))
        trace = run(state, target, solver_cfg)
        assert len(trace.records) == trace.iterations + 1
        for t, rec in enumerate(trace.records):
            if t:
                state = gd_step(state, target, cfg.eta)
            x = state.x
            s1x, s1j, sru = sv(x)[0], sv(x[r:])[0], sv(x[:r])[-1]
            in_r2 = s1x**2 <= 2 * target.lambda_top + slack and s1j**2 <= target.lambda_r - target.gap / 2 + slack
            in_r = in_r2 and sru**2 >= target.gap / 4 - slack
            assert close(rec.sigma1_x, s1x) and close(rec.sigma1_j, s1j), (alpha, t)
            assert close(rec.ratio, (s1j / sru) ** 2), (alpha, t)
            want = (t, approximation_error(state, target), sru, sv(lam_r - x[:r] @ x[:r].T)[0], in_r, in_r2)
            assert (rec.iter, rec.error, rec.sigmar_u, rec.sigma1_p, rec.in_r, rec.in_r2) == want, (alpha, t)
        assert np.array_equal(state.x, trace.final_state.x)


ROTATED_FLOATS = ("error", "sigma1_x", "sigma1_j", "sigmar_u", "ratio", "sigma1_p")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rotated_target_records_match_diagonal(seed):
    # Rotating target and iterate by the same orthogonal basis leaves every
    # diagnostic unchanged: they are taken in eigenbasis coordinates.
    d, r = 50, 3
    values = np.concatenate([np.linspace(3.0, 2.0, r), np.linspace(1.0, 0.5, d - r)])
    basis = random_orthogonal(np.random.default_rng(seed), d)
    x0 = 0.5 * gaussian_factor(d, r, seed=1)
    # a fixed budget (epsilon out of reach) so both runs record the same iterations
    cfg = SolverConfig(eta=0.05, epsilon=1e-12, max_iters=430, record_every=10)
    rotated_target = make_target(values, r, basis=basis)
    plain = run(FactorState(x0), make_diagonal_target(values, d, r), cfg)
    rotated = run(FactorState(basis @ x0), rotated_target, cfg)
    assert [rec.iter for rec in rotated.records] == [rec.iter for rec in plain.records]
    for want, got in zip(plain.records, rotated.records):
        for name in ROTATED_FLOATS:
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-8, abs=1e-10), name
    final = plain.records[-1]
    assert final.in_r and final.in_r2
    assert (rotated.records[-1].in_r, rotated.records[-1].in_r2) == (final.in_r, final.in_r2)
    assert in_region_r(rotated.final_state, rotated_target)
    assert signal_residual(rotated.final_state, rotated_target) == pytest.approx(final.sigma1_p, rel=1e-8, abs=1e-10)
    assert noise_signal_ratio(rotated.final_state, rotated_target) == pytest.approx(final.ratio, rel=1e-8, abs=1e-10)
    # The entry condition and the warm-up budget of a small start, too.
    small = 1e-3 * gaussian_factor(d, r, seed=1)
    diag_target = make_diagonal_target(values, d, r)
    want = check_condition_1(FactorState(small), diag_target, cfg.eta)
    got = check_condition_1(FactorState(basis @ small), rotated_target, cfg.eta)
    assert [c.holds for c in got.clauses] == [c.holds for c in want.clauses] and got.holds == want.holds
    for g, w in zip(got.clauses, want.clauses):
        assert g.margin == pytest.approx(w.margin, rel=1e-8, abs=1e-10), w.name
    assert warmup_budget(FactorState(basis @ small), rotated_target, cfg.eta) == 861
    assert warmup_budget(FactorState(small), diag_target, cfg.eta) == 861


DIAGNOSTICS = [
    eigen_blocks, approximation_error, in_region_r, in_region_r2, noise_signal_ratio, signal_residual,
    lambda state, target: check_condition_1(state, target, 0.05),
    lambda state, target: warmup_budget(state, target, 0.05),
]
DIAGNOSTIC_IDS = ["eigen_blocks", "approximation_error", "in_region_r", "in_region_r2", "noise_signal_ratio",
                  "signal_residual", "check_condition_1", "warmup_budget"]


@pytest.mark.parametrize("diagnostic", DIAGNOSTICS, ids=DIAGNOSTIC_IDS)
def test_diagnostics_reject_a_state_of_the_wrong_dimension(diagnostic):
    # A 4-row iterate against a 5-dimensional diagonal target: the raw-row
    # blocks would exist, so only the shape check stops the evaluation.
    target = make_diagonal_target([3.0, 2.0, 1.0, 0.5, 0.2], 5, 2)
    with pytest.raises(ValueError, match="does not match"):
        diagnostic(FactorState(np.full((4, 2), 0.1)), target)


@pytest.mark.parametrize("diagnostic", DIAGNOSTICS, ids=DIAGNOSTIC_IDS)
def test_diagnostics_of_a_rotated_target_leave_its_matrix_unformed(rng, diagnostic):
    # The dimension check compares two numbers: no diagnostic forms the
    # dense d x d target, and a state of the wrong dimension still fails by
    # name, before the eigenbasis product could fail without naming it.
    target = make_target([3.0, 2.0, 1.0, 0.8, 0.5, 0.2], 2, basis=random_orthogonal(rng, 6))
    diagnostic(FactorState(0.1 * rng.normal(size=(6, 2))), target)
    with pytest.raises(ValueError, match="does not match"):
        diagnostic(FactorState(np.full((5, 2), 0.1)), target)
    assert target._matrix is None


def test_run_rejects_indefinite_target():
    target = make_diagonal_target([2.0, 1.0, -1.0], 3, 1)
    with pytest.raises(ValueError, match="PSD"):
        run(FactorState(np.zeros((3, 1))), target, SolverConfig(eta=0.01, epsilon=1e-6, max_iters=5))


# --- absorbing regions and rate inequalities (quick versions; the full-size
# --- statements run in the acceptance suite) --------------------------------

def test_region_r_is_absorbing(rng):
    for _ in range(3):
        target = random_psd_target(rng, 9, 2)
        eta = max_step_size(target)
        for _ in range(8):
            state = sample_state_in_region(rng, target)
            for _ in range(60):
                state = gd_step(state, target, eta)
                assert in_region_r(state, target, 1e-8)


def test_region_r2_is_absorbing(rng):
    for _ in range(3):
        target = random_psd_target(rng, 9, 2)
        eta = 1.0 / (12.0 * target.lambda_top)
        for _ in range(8):
            x = scaled_random_state(rng, 9, 2, math.sqrt(2 * target.lambda_top))
            state = FactorState(x)
            if not in_region_r2(state, target, 0.0):
                continue
            for _ in range(60):
                state = gd_step(state, target, eta)
                assert in_region_r2(state, target, 1e-8)


def test_ratio_decay_along_trajectories(rng):
    for _ in range(3):
        target = random_psd_target(rng, 9, 2)
        eta = max_step_size(target)
        factor = 1.0 - eta * target.gap / 3.0
        state = sample_state_in_region(rng, target)
        prev = noise_signal_ratio(state, target)
        for _ in range(120):
            state = gd_step(state, target, eta)
            ratio = noise_signal_ratio(state, target)
            assert ratio <= factor * prev + 1e-12
            prev = ratio


def test_signal_residual_envelope(rng):
    # run long enough that the envelope actually bites
    target = make_diagonal_target([2.0, 1.8, 1.0, 0.6, 0.4, 0.2], 6, 2)
    eta = max_step_size(target)
    prefactor = 100.0 * target.lambda_top**2 / (eta * target.gap**2)
    decay = 1.0 - eta * target.gap / 4.0
    state = sample_state_in_region(rng, target)
    for t in range(1, 40000):
        state = gd_step(state, target, eta)
        assert signal_residual(state, target) <= prefactor * decay**t + 1e-8


def test_sigma1_per_step_contraction(rng):
    for _ in range(300):
        d, r = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        if r >= d:
            continue
        target = random_psd_target(rng, d, r)
        x = rng.normal(size=(d, r)) * rng.uniform(0.05, 1.5)
        s1 = np.linalg.norm(x, 2)
        eta = rng.uniform(0.2, 1.0) / (3.0 * s1 * s1)  # guarantees s1 <= 1/sqrt(3 eta)
        s1_next = np.linalg.norm(gd_step(FactorState(x), target, eta).x, 2)
        assert s1_next <= (1 + eta * target.lambda_top - eta * s1 * s1) * s1 + 1e-10


def test_noise_per_step_contraction(rng):
    for _ in range(300):
        d, r = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        if r >= d:
            continue
        target = random_psd_target(rng, d, r)
        x = scaled_random_state(rng, d, r, math.sqrt(2 * target.lambda_top))
        eta = rng.uniform(0.01, 1.0) / (12.0 * target.lambda_top)
        s1j = np.linalg.norm(x[r:], 2)
        sru = np.linalg.svd(x[:r], compute_uv=False)[-1]
        s1j_next = np.linalg.norm(gd_step(FactorState(x), target, eta).x[r:], 2)
        bound = (1 + eta * (target.lambda_r_plus_one - s1j**2 - sru**2)) * s1j
        assert s1j_next <= bound + 1e-10


def test_equal_top_signal_growth(rng):
    checked = 0
    while checked < 300:
        d, r = int(rng.integers(4, 9)), int(rng.integers(2, 4))
        if r >= d:
            continue
        target = random_psd_target(rng, d, r, equal_top=True)
        x = scaled_random_state(rng, d, r, math.sqrt(2 * target.lambda_top))
        state = FactorState(x)
        if not in_region_r2(state, target, 0.0):
            continue
        checked += 1
        eta = rng.uniform(0.01, 1.0) / (12.0 * target.lambda_top)
        sru2 = np.linalg.svd(x[:r], compute_uv=False)[-1] ** 2
        sru2_next = np.linalg.svd(gd_step(state, target, eta).x[:r], compute_uv=False)[-1] ** 2
        assert sru2_next >= (1 + eta * target.gap - 2 * eta * sru2) * sru2 - 1e-10
