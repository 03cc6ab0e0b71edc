import inspect
import math
import tracemalloc

import numpy as np
import pytest

from conftest import floor_target, random_orthogonal
from lowrank_gd import (
    AsymState,
    EigState,
    FactorState,
    Sigma,
    asym_step,
    best_rank_r,
    experiment_spectrum,
    gd_step,
    kappa,
    make_diagonal_target,
    make_target,
    rf_step,
    rgd_step,
)
from lowrank_gd import linalg
from lowrank_gd.asym_gd import _multiplier


def givens(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_experiment_spectrum_interpolation():
    vals = experiment_spectrum(7.0, 2.0, 10, 1000)
    # linear interpolation with step (7-2)/9
    np.testing.assert_allclose(vals[:3], [7.0, 7.0 - 5.0 / 9.0, 7.0 - 10.0 / 9.0])
    assert vals[9] == pytest.approx(2.0)
    assert vals.size == 1000
    np.testing.assert_allclose(vals[10:], 1.0)


def test_experiment_spectrum_minimal():
    np.testing.assert_allclose(experiment_spectrum(7.0, 2.0, 2, 4), [7.0, 2.0, 1.0, 1.0])


def test_experiment_spectrum_rejects_unit_tail_collision():
    with pytest.raises(ValueError):
        experiment_spectrum(7.0, 1.0, 10, 100)
    with pytest.raises(ValueError):
        experiment_spectrum(3.0, 3.0, 10, 500)


def test_diagonal_target_experiment_values():
    vals = experiment_spectrum(7.0, 2.0, 10, 1000)
    target = make_diagonal_target(vals, 1000, 10)
    assert target.gap == pytest.approx(1.0)
    oracle = best_rank_r(target)
    diag = np.diag(oracle.sigma_r_matrix)
    np.testing.assert_allclose(diag[:10], vals[:10])
    np.testing.assert_allclose(diag[10:], 0.0)


def test_diagonal_target_equal_top():
    vals = np.concatenate([np.full(10, 3.0), np.ones(490)])
    target = make_diagonal_target(vals, 500, 10)
    assert target.gap == pytest.approx(2.0)
    assert target.lambda_top == 3.0


def test_diagonal_target_two_point():
    target = make_diagonal_target([2.0, 1.0], 2, 1)
    assert target.gap == pytest.approx(1.0)
    np.testing.assert_allclose(target.matrix, np.diag([2.0, 1.0]))


def test_diagonal_target_rejects_nondescending():
    with pytest.raises(ValueError, match="descending"):
        make_diagonal_target([1.0, 2.0], 2, 1)


def test_diagonal_target_rejects_zero_gap():
    with pytest.raises(ValueError, match="eigengap"):
        make_diagonal_target([2.0, 2.0, 1.0], 3, 1)


def test_best_rank_r_diagonal():
    target = make_diagonal_target([3.0, 2.0, 1.0], 3, 2)
    oracle = best_rank_r(target)
    np.testing.assert_allclose(oracle.sigma_r_matrix, np.diag([3.0, 2.0, 0.0]))
    np.testing.assert_allclose(oracle.projector, np.diag([1.0, 1.0, 0.0]))


def test_best_rank_r_rotated():
    theta = 0.37
    q = givens(theta)
    target = make_target([2.0, 1.0], rank=1, basis=q)
    oracle = best_rank_r(target)
    s = np.linalg.svd(oracle.sigma_r_matrix, compute_uv=False)
    assert s[0] == pytest.approx(2.0)
    assert s[1] == pytest.approx(0.0, abs=1e-10)
    # residual equals the dropped eigenvalue
    assert np.linalg.norm(target.matrix - oracle.sigma_r_matrix, "fro") == pytest.approx(1.0)


def test_target_matrix_reconstruction():
    theta = 1.1
    target = make_target([5.0, 2.0], rank=1, basis=givens(theta))
    rebuilt = (target.basis * target.eigenvalues) @ target.basis.T
    assert np.max(np.abs(target.matrix - rebuilt)) <= 1e-10


def test_eckart_young_optimality(rng):
    vals = np.sort(rng.uniform(0.1, 4.0, 8))[::-1]
    if vals[2] - vals[3] < 0.05:
        vals[3:] *= 0.5
        vals = np.sort(vals)[::-1]
    target = make_target(vals, rank=3)
    oracle = best_rank_r(target)
    resid_sq = np.linalg.norm(target.matrix - oracle.sigma_r_matrix, "fro") ** 2
    assert resid_sq == pytest.approx(float(np.sum(vals[3:] ** 2)), rel=1e-8)


def test_projector_fixes_truncation():
    target = make_target([4.0, 3.0, 1.0, 0.5], rank=2, basis=None)
    oracle = best_rank_r(target)
    assert np.max(np.abs(oracle.projector @ oracle.sigma_r_matrix - oracle.sigma_r_matrix)) <= 1e-9
    # projector is symmetric, idempotent, trace r
    p = oracle.projector
    assert np.max(np.abs(p - p.T)) <= 1e-10
    assert np.max(np.abs(p @ p - p)) <= 1e-10
    assert np.trace(p) == pytest.approx(2.0, abs=1e-8)


def test_basis_must_be_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        make_target([2.0, 1.0], rank=1, basis=np.array([[1.0, 1.0], [0.0, 1.0]]))


# --- Sigma operator -------------------------------------------------------------

def test_sigma_path_choice():
    # One rule: a Target without a basis is diagonal at any sign, and so is
    # a square diagonal array whose entries do not increase; anything else
    # is dense. The two-factor solver's truncation rule lives in asym_gd.
    for values in ([3.0, 2.0, 1.0, 0.0], [3.0, 2.0, 1.0, -5.0]):
        assert Sigma(make_diagonal_target(values, 4, 2)).diag is not None
    np.testing.assert_array_equal(Sigma(np.diag([3.0, 2.0, 1.0])).diag, [3.0, 2.0, 1.0])
    np.testing.assert_array_equal(Sigma(np.diag([3.0, 2.0, -1.0])).diag, [3.0, 2.0, -1.0])
    off_diagonal = np.diag([3.0, 2.0, 1.0])
    off_diagonal[2, 0] = 1e-300
    for dense in (np.diag([1.0, 2.0, 3.0]), off_diagonal, np.ones((3, 3)), np.diag([3.0, 2.0, 1.0])[:, :2]):
        op = Sigma(dense)
        assert op.diag is None and op.matrix.shape == dense.shape


def test_sigma_detects_a_diagonal_array_without_a_square_temporary(rng):
    # The off-diagonal test counts nonzeros instead of subtracting the
    # diagonal: 1000 x 1000 doubles are 8 MB, so one temporary would show.
    diagonal = np.diag(np.linspace(3.0, 1.0, 1000))
    noise = rng.normal(size=(1000, 1000))
    symmetric = diagonal + 1e-3 * (noise + noise.T)
    symmetric[np.diag_indices(1000)] = np.linspace(3.0, 1.0, 1000)
    for a, is_diagonal in ((diagonal, True), (symmetric, False)):
        tracemalloc.start()
        try:
            op = Sigma(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (op.diag is not None) == is_diagonal and peak < 1 << 20


@pytest.mark.parametrize("values, rank, mu, s", [
    ([4.0, 3.0, 1.0, 1.0, 1.0], 2, 1.0, 2),
    ([4.0, 3.0, 2.0, 1.5, 1.0], 2, 1.0, 4),
    ([5.0, 3.0, 3.0, 2.0, 1.0, 1.0], 1, 1.0, 4),
], ids=["flat-tail", "strictly-decreasing", "repeated-mid-value"])
def test_sigma_split_of_a_diagonal(values, rank, mu, s):
    # mu is the last entry and the head stops where the trailing run of mu
    # starts: at r over a flat tail, at d - 1 on a strictly decreasing
    # spectrum (R's last entry would be 0), and past a repeated value that
    # sits above the floor.
    got_mu, got_s, rest = Sigma(make_diagonal_target(values, len(values), rank)).split()
    assert (got_mu, got_s) == (mu, s)
    np.testing.assert_array_equal(rest, np.array(values[:s]) - mu)
    assert np.all(rest > 0)


def test_sigma_split_of_a_dense_operator(rng):
    target = make_target([3.0, 2.0, 1.0, 1.0], 2, basis=random_orthogonal(rng, 4))
    mu, s, rest = Sigma(target).split()
    assert (mu, s) == (0.0, 4) and rest is target.matrix


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("sandwich", [False, True], ids=["sym", "eig"])
def test_floor_step_matches_the_dense_update(rng, monkeypatch, order, sandwich):
    # (I + eta Sigma) v - eta v G with G = gram, or G = v^T Sigma v for the
    # eigenspace, whose map takes the gram itself; with the map's head in
    # one block, and with it built under a 1-byte BLOCK_BYTES, whose 8-row
    # blocks take a sloped diagonal head in several blocks (the last one
    # partial).
    d, r, eta = 11, 2, 0.1
    targets = [floor_target(d, True, r), floor_target(d, False, r),
               make_target(floor_target(d, False, r).eigenvalues, r, basis=random_orthogonal(rng, d))]
    for target in targets:
        v = np.asarray(rng.normal(size=(d, r)), order=order)
        sigma = target.matrix
        gram = v.T @ v
        m = eta * (v.T @ sigma @ v if sandwich else gram)
        want = v + eta * sigma @ v - v @ m
        for block_bytes in (linalg.BLOCK_BYTES, 1):
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "BLOCK_BYTES", block_bytes)
                op = Sigma(target)
                step = op.step_map(eta, r)
            m = gram.copy() if sandwich else eta * gram
            out = step(v, m, np.empty_like(v), sandwich=sandwich)
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-14)


def _count_rows(patch):
    """Patch numpy's matmul and elementwise calls to log (name, most rows
    of any array argument) into the returned list."""
    calls = []
    for name in ("matmul", "multiply", "add", "subtract"):
        def counted(*args, _f=getattr(np, name), _name=name, **kwargs):
            arrays = [a for a in (*args, kwargs.get("out")) if isinstance(a, np.ndarray)]
            calls.append((_name, max(a.shape[0] for a in arrays)))
            return _f(*args, **kwargs)
        patch.setattr(np, name, counted)
    return calls


@pytest.mark.parametrize("sandwich", [False, True], ids=["sym", "eig"])
def test_flat_floor_step_is_one_factor_matmul(rng, monkeypatch, sandwich):
    # Over a flat floor the rows past the head get no pass of their own:
    # one matmul over all d rows, every other call on the r head rows or r x r.
    d, r = 5000, 4
    op = Sigma(floor_target(d, True, r))
    step = op.step_map(0.05, r)
    v = np.asarray(rng.normal(size=(d, r)), order="F")
    m, out = 0.05 * (v.T @ v), np.empty_like(v)
    calls = _count_rows(monkeypatch)
    step(v, m, out, sandwich=sandwich)
    assert [name for name, rows in calls if rows == d] == ["matmul"]
    assert all(rows <= r for name, rows in calls if rows != d)


def test_dense_head_is_formed_once_per_step(rng, monkeypatch):
    # A dense operator's head scratch holds all its rows, even under a
    # 1-byte BLOCK_BYTES: an eigenspace step multiplies by the matrix once,
    # for the Gram and the update together, and a two-factor step once by
    # it and once by its transpose. In 8-row blocks the 11 rows would take
    # two blocks, each formed for the Gram and again for the update.
    d, r = 11, 2
    sigma = make_target(floor_target(d, False, r).eigenvalues, r, basis=random_orthogonal(rng, d)).matrix
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "BLOCK_BYTES", 1)
        step, pair = Sigma(sigma).step_map(0.1, r), Sigma(sigma).step_map(0.1, r, pair=True)
    v = np.asarray(rng.normal(size=(d, r)), order="F")
    z, out = linalg.step_buffers(v, v)
    calls = []

    def matmul(a, *args, _f=np.matmul, **kwargs):
        calls.append(np.shares_memory(a, sigma))
        return _f(a, *args, **kwargs)
    monkeypatch.setattr(np, "matmul", matmul)
    step(v, v.T @ v, np.empty_like(v), sandwich=True)
    assert sum(calls) == 1
    calls.clear()
    pair(z, _multiplier(0.1, True, v.T @ v, v.T @ v), out)
    assert sum(calls) == 2


def _pair_oracle(x, y, sigma, eta, regularized):
    """The two-factor update as the gradients read, through dense products."""
    gram_x, gram_y = x.T @ x, y.T @ y
    x_next = x + eta * (sigma @ y - x @ gram_y)
    y_next = y + eta * (sigma.T @ x - y @ gram_x)
    if regularized:
        x_next -= 0.5 * eta * x @ (gram_x - gram_y)
        y_next += 0.5 * eta * y @ (gram_x - gram_y)
    return x_next, y_next


@pytest.mark.parametrize("regularized", [True, False])
def test_pair_step_matches_the_dense_update(rng, monkeypatch, regularized):
    # z A plus the head on the leading rows, against the dense update: a
    # diagonal Sigma over a flat floor and over a sloped tail, a rotated one,
    # and rectangular arrays either way round, whose shorter factor is
    # zero-padded in z and stays zero there. With the map's head in one
    # block, and with it built under a 1-byte BLOCK_BYTES, whose 8-row
    # blocks take a sloped diagonal head in several.
    d, r, eta = 11, 2, 0.1
    sources = [floor_target(d, True, r), floor_target(d, False, r),
               make_target(floor_target(d, False, r).eigenvalues, r, basis=random_orthogonal(rng, d)),
               rng.normal(size=(d, 7)), rng.normal(size=(7, d))]
    for source in sources:
        op = Sigma(source)
        sigma = source.matrix if hasattr(source, "matrix") else source
        d1, d2 = sigma.shape
        x, y = rng.normal(size=(d1, r)), rng.normal(size=(d2, r))
        want = _pair_oracle(x, y, sigma, eta, regularized)
        for block_bytes in (linalg.BLOCK_BYTES, 1):
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "BLOCK_BYTES", block_bytes)
                step = op.step_map(eta, r, pair=True)
            z, out = linalg.step_buffers(x, y)
            out.fill(np.nan)
            got = step(z, _multiplier(eta, regularized, x.T @ x, y.T @ y), out)
            assert got is out
            np.testing.assert_allclose(out[:d1, :r], want[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(out[:d2, r:], want[1], rtol=0, atol=1e-14)
            assert not out[d1:, :r].any() and not out[d2:, r:].any()


def test_flat_floor_pair_step_is_one_matmul(rng, monkeypatch):
    # Over a flat floor both factors step in one matmul of the joint
    # iterate, and no other call touches more than the 2r rows of the head
    # and the r x r and 2r x 2r multipliers. The map's head scratch holds
    # the head's s = r rows of both factors.
    d, r = 5000, 4
    op = Sigma(floor_target(d, True, r))
    x, y = rng.normal(size=(d, r)), rng.normal(size=(d, r))
    z, out = linalg.step_buffers(x, y)
    for regularized in (True, False):
        step, m = op.step_map(0.05, r, pair=True), _multiplier(0.05, regularized, x.T @ x, y.T @ y)
        assert inspect.getclosurevars(step).nonlocals["scratch"].shape == (r, 2 * r)
        with monkeypatch.context() as patch:
            calls = _count_rows(patch)
            step(z, m, out)
        assert [name for name, rows in calls if rows == d] == ["matmul"]
        assert all(rows <= 2 * r for name, rows in calls if rows != d)


def test_sloped_pair_step_forms_the_matmul_beside_each_head_block(rng, monkeypatch):
    # Over a sloped tail the head spans s = d - 1 rows, in blocks of
    # block_rows(s, r) rows of both factors, as many as a one-factor map's:
    # 8 rows under a 1-byte BLOCK_BYTES, and 16 (not the 8 rows of 2r
    # columns that fit) under 16 rows of r columns. Each block's rows of
    # z A are formed next to the block, and the one floor row apart, whose
    # matmul counts its 2r x 2r multiplier; no matmul spans more rows than
    # a block.
    d, r = 40, 2
    x, y = rng.normal(size=(d, r)), rng.normal(size=(d, r))
    z, out = linalg.step_buffers(x, y)
    m = _multiplier(0.05, True, x.T @ x, y.T @ y)
    for block_bytes, heights in ((1, [8, 8, 8, 8, 7]), (16 * r * 8, [16, 16, 7])):
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "BLOCK_BYTES", block_bytes)
            step = Sigma(floor_target(d, False, r)).step_map(0.05, r, pair=True)
        assert inspect.getclosurevars(step).nonlocals["scratch"].shape == (heights[0], 2 * r)
        with monkeypatch.context() as patch:
            calls = _count_rows(patch)
            step(z, m, out)
        assert [rows for name, rows in calls if name == "matmul"] == [2 * r] + heights


ETA_TARGET = make_diagonal_target([3.0, 1.0, 0.5], 3, 1)
ETA_USERS = {
    "gd_step": lambda eta: gd_step(FactorState(np.ones((3, 1))), ETA_TARGET, eta),
    "asym_step": lambda eta: asym_step(AsymState(np.ones((3, 1)), np.ones((3, 1))), ETA_TARGET, eta),
    "rf_step": lambda eta: rf_step(EigState(np.ones((3, 1))), ETA_TARGET, eta),
    "rgd_step": lambda eta: rgd_step(EigState(np.ones((3, 1))), ETA_TARGET, eta),
    "kappa": lambda eta: kappa(ETA_TARGET, eta),
}


@pytest.mark.parametrize("eta", [0.0, -0.5, math.nan])
@pytest.mark.parametrize("name", sorted(ETA_USERS))
def test_steps_and_kappa_reject_a_nonpositive_eta_by_name(name, eta):
    # A negative eta would take an ascent step, and a NaN one would fail
    # later as a non-finite factor, without naming eta.
    ETA_USERS[name](0.1)
    with pytest.raises(ValueError, match="eta must be positive"):
        ETA_USERS[name](eta)


def test_target_to_eigen(rng):
    basis = random_orthogonal(rng, 4)
    x = rng.normal(size=(4, 2))
    np.testing.assert_allclose(make_target([3.0, 2.0, 1.0, 0.5], 2, basis=basis).to_eigen(x), basis.T @ x)
    assert make_diagonal_target([3.0, 2.0, 1.0, 0.5], 4, 2).to_eigen(x) is x
