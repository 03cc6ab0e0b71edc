import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import floor_target, random_orthogonal
from lowrank_gd import (
    AsymState,
    EigState,
    FactorState,
    Sigma,
    approximation_error,
    asym_error,
    asym_step,
    best_rank_r,
    experiment_spectrum,
    gd_step,
    kappa,
    make_diagonal_target,
    make_target,
    proj_error,
    rf_step,
    rgd_step,
)
from lowrank_gd import linalg
from lowrank_gd.asym_gd import _multiplier
from lowrank_gd.eigenspace import _proj_error_fn


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


def test_sigma_stops_counting_a_dense_array_at_its_first_off_diagonal_block(monkeypatch):
    # Nonzeros are counted one row block at a time: a dense array with a
    # sorted diagonal is called dense after its first block, while a
    # diagonal array is counted in full, and a lone off-diagonal entry in
    # the last, partial block still makes an array dense.
    d = 1001
    rows, values = linalg.block_rows(d, d), np.linspace(3.0, 1.0, d)
    assert d % rows
    counted, count_nonzero = [], np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero", lambda a: counted.append(np.size(a)) or count_nonzero(a))
    dense = np.ones((d, d))
    dense[np.diag_indices(d)] = values
    assert Sigma(dense).diag is None and sum(counted) == rows * d + rows
    counted.clear()
    np.testing.assert_array_equal(Sigma(np.diag(values)).diag, values)
    assert sum(counted) == d * d + d
    late = np.diag(values)
    late[d - 1, 0] = 1e-300
    assert Sigma(late).diag is None


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


def test_target_split(rng):
    # A diagonal split is the views x[:r] and x[r:]; a rotated one matches
    # the blocks of basis^T x, though it reads only the top r columns.
    values, r = [3.0, 2.0, 1.0, 0.5, 0.2], 2
    x = rng.normal(size=(5, 3))
    u, gram_u, gram_j = make_diagonal_target(values, 5, r).split(x)
    assert u.base is x
    np.testing.assert_array_equal(u, x[:r])
    np.testing.assert_array_equal(gram_u, x[:r].T @ x[:r])
    np.testing.assert_array_equal(gram_j, x[r:].T @ x[r:])
    basis = random_orthogonal(rng, 5)
    z = basis.T @ x
    u, gram_u, gram_j = make_target(values, r, basis=basis).split(x)
    np.testing.assert_allclose(u, z[:r], rtol=0, atol=1e-14)
    np.testing.assert_allclose(gram_u, z[:r].T @ z[:r], rtol=0, atol=1e-13)
    np.testing.assert_allclose(gram_j, z[r:].T @ z[r:], rtol=0, atol=1e-13)


def haar(rng, n):
    """A Haar-random orthogonal matrix: Q of a Gaussian's QR, with the signs
    of R's diagonal moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def split_target(kind, d, r, rng):
    """r values in [2, 5] over a floor from 1 to 0.5: diagonal, Haar-rotated,
    or diagonal with a negative last entry that the rank-r SVD truncation
    drops (``indefinite``, lambda_r >= -lambda_min) or keeps (``svd``)."""
    values = np.concatenate([np.sort(rng.uniform(2.0, 5.0, r))[::-1], np.linspace(1.0, 0.5, d - r)])
    if kind == "indefinite":
        values[-1] = -rng.uniform(0.0, values[r - 1])
    elif kind == "svd":
        values[-1] = -values[r - 1] - rng.uniform(0.5, 3.0)
    return make_target(values, r, basis=haar(rng, d) if kind == "rotated" else None)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(4, 30), r=st.integers(1, 3),
       kind=st.sampled_from(["diagonal", "rotated", "indefinite", "svd"]), near=st.booleans())
def test_every_error_matches_its_dense_oracle(seed, d, r, kind, near):
    # Each solver's error against its dense textbook form: the symmetric one
    # against the eigen truncation, the eigenspace one against the rank-r
    # projector, the two-factor one against the SVD truncation. Iterates are
    # random, or within 1e-8 of a solution, where the eigenspace identity
    # r - 2||B_r^T L||^2 + ||L^T L||^2 cancelled to noise.
    rng = np.random.default_rng(seed)
    target = split_target(kind, d, r, rng)
    oracle = best_rank_r(target)
    left, svals, right_t = np.linalg.svd(target.matrix)
    svd_r = (left[:, :r] * svals[:r]) @ right_t[:r]
    if near:
        top = np.eye(d)[:, :r] if target.basis is None else target.basis[:, :r]
        q = haar(rng, r)
        x, l = (top * np.sqrt(target.leading)) @ q, top @ q
        xa, ya = (left[:, :r] * np.sqrt(svals[:r])) @ q, (right_t[:r].T * np.sqrt(svals[:r])) @ q
        x, l, xa, ya = (v + 1e-8 * rng.normal(size=v.shape) / math.sqrt(v.size) for v in (x, l, xa, ya))
    else:
        x, l, xa, ya = (rng.normal(size=(d, r)) for _ in range(4))
    errors = {
        "sym": (approximation_error(FactorState(x), target), np.linalg.norm(oracle.sigma_r_matrix - x @ x.T)),
        "eig": (_proj_error_fn(target)(l)[0], proj_error(EigState(l), oracle)),
        "asym": (asym_error(AsymState(xa, ya), target, r), np.linalg.norm(svd_r - xa @ ya.T)),
    }
    for name, (got, want) in errors.items():
        assert got == pytest.approx(want, rel=1e-5 if near else 1e-10), name
    if kind == "svd":
        # The SVD truncation keeps the negative entry, so a block identity
        # over the top r eigenvectors would miss the two-factor oracle.
        assert np.linalg.norm(svd_r - oracle.sigma_r_matrix) > 1.0
