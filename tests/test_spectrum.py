import math

import numpy as np
import pytest

from conftest import random_orthogonal
from lowrank_gd import Sigma, best_rank_r, experiment_spectrum, make_diagonal_target, make_target


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

def test_sigma_products_match_the_dense_matrix(rng):
    values = [3.0, 2.0, 1.0, -0.5]
    v = rng.normal(size=(4, 2))
    for target in (make_diagonal_target(values, 4, 2),
                   make_target(values, 2, basis=random_orthogonal(rng, 4))):
        for svd in (False, True):
            op = Sigma(target, svd=svd)
            np.testing.assert_allclose(op.apply(v), target.matrix @ v, atol=1e-14)
            np.testing.assert_allclose(op.apply_t(v), target.matrix.T @ v, atol=1e-14)
    rect = rng.normal(size=(3, 4))
    op = Sigma(rect, svd=True)
    np.testing.assert_allclose(op.apply(v), rect @ v)
    w = rng.normal(size=(3, 2))
    np.testing.assert_allclose(op.apply_t(w), rect.T @ w)


def test_sigma_products_write_into_out(rng):
    values = [3.0, 2.0, 1.0, -0.5]
    v, w = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    cases = [(Sigma(make_diagonal_target(values, 4, 2)), v, v),
             (Sigma(make_target(values, 2, basis=random_orthogonal(rng, 4))), v, v),
             (Sigma(rng.normal(size=(3, 4)), svd=True), v, w)]
    for op, right, left in cases:
        for product, arg in ((op.apply, right), (op.apply_t, left)):
            want = product(arg)
            buf = np.empty_like(want)
            assert product(arg, out=buf) is buf
            np.testing.assert_array_equal(buf, want)


def test_sigma_path_choice():
    nonneg = make_diagonal_target([3.0, 2.0, 1.0, 0.0], 4, 2)
    indefinite = make_diagonal_target([3.0, 2.0, 1.0, -5.0], 4, 2)
    assert Sigma(nonneg).diag is not None and Sigma(nonneg, svd=True).diag is not None
    # eigen-truncation of a diagonal target is its first r entries; SVD
    # truncation is not once an entry is negative
    assert Sigma(indefinite).diag is not None
    assert Sigma(indefinite, svd=True).diag is None
    assert Sigma(np.diag([3.0, 2.0, 1.0]), svd=True).diag is not None
    assert Sigma(np.diag([3.0, 2.0, 1.0])).diag is None
    assert Sigma(np.diag([1.0, 2.0, 3.0]), svd=True).diag is None
    assert Sigma(np.ones((3, 3)), svd=True).diag is None


def test_sigma_to_eigen(rng):
    basis = random_orthogonal(rng, 4)
    x = rng.normal(size=(4, 2))
    np.testing.assert_allclose(Sigma(make_target([3.0, 2.0, 1.0, 0.5], 2, basis=basis)).to_eigen(x),
                               basis.T @ x)
    assert Sigma(make_diagonal_target([3.0, 2.0, 1.0, 0.5], 4, 2)).to_eigen(x) is x
    with pytest.raises(ValueError, match="eigenbasis"):
        Sigma(np.ones((4, 4))).to_eigen(x)
