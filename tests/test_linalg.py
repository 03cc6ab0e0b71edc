import math

import numpy as np
import pytest

from lowrank_gd import linalg


def eig2x2_symmetric(a, b, c):
    """Closed-form eigenvalues of [[a, b], [b, c]], descending."""
    mean = (a + c) / 2.0
    disc = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return mean + disc, mean - disc


def test_frobenius_zero():
    assert linalg.frobenius_norm(np.zeros((2, 2))) == 0.0


def test_frobenius_identity():
    assert linalg.frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3))


def test_frobenius_direct_summation():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    # independent oracle: plain python summation
    expected = math.sqrt(sum(v * v for v in m.ravel()))
    assert linalg.frobenius_norm(m) == pytest.approx(expected, abs=0.0)
    assert expected == pytest.approx(math.sqrt(30))


def test_frobenius_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.frobenius_norm(np.array([[1.0, np.nan]]))


def test_singular_values_identity():
    np.testing.assert_allclose(linalg.singular_values(np.eye(3)), [1, 1, 1])


def test_singular_values_sign_invariance():
    np.testing.assert_allclose(linalg.singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])


def test_singular_values_char_poly_oracle(rng):
    # squared singular values of a 3x2 matrix are the eigenvalues of the
    # 2x2 Gram matrix, available in closed form
    for _ in range(25):
        m = rng.normal(size=(3, 2))
        g = m.T @ m
        hi, lo = eig2x2_symmetric(g[0, 0], g[0, 1], g[1, 1])
        expected = np.sqrt([max(hi, 0.0), max(lo, 0.0)])
        np.testing.assert_allclose(linalg.singular_values(m), expected, atol=1e-9)


def test_singular_values_of_a_stack_match_separate_calls(rng):
    # The shapes of a sym record: three r x r matrices and one signal
    # block, here taken as a strided view as the record takes it.
    x = np.asfortranarray(rng.normal(size=(40, 4)))
    u, j = x[:4], x[4:]
    mats = [u.T @ u + j.T @ j, j.T @ j, u, np.diag([4.0, 3.0, 2.0, 1.0]) - u @ u.T]
    stacked = linalg.singular_values(np.stack(mats))
    assert stacked.shape == (4, 4)
    for row, m in zip(stacked, mats):
        np.testing.assert_array_equal(row, linalg.singular_values(m))


def test_singular_values_reject_non_finite_anywhere_in_a_stack():
    for bad in (np.nan, np.inf):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.singular_values(stack)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 3, 3), ()])
def test_singular_values_need_a_matrix_or_a_stack(shape):
    with pytest.raises(ValueError, match="ndim"):
        linalg.singular_values(np.ones(shape))


def test_singular_values_squared_match_gram_eigs(rng):
    m = rng.normal(size=(5, 3))
    s = linalg.singular_values(m)
    gram_eigs = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
    np.testing.assert_allclose(s**2, gram_eigs, rtol=1e-10, atol=1e-12)


def test_svd_diagonal():
    _, s, _ = linalg.svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(s, [3.0, 1.0])


def test_svd_zero():
    _, s, _ = linalg.svd(np.zeros((3, 2)))
    np.testing.assert_allclose(s, 0.0)


def test_svd_cross_checks_singular_values(rng):
    m = rng.normal(size=(3, 2))
    _, s, _ = linalg.svd(m)
    np.testing.assert_allclose(s, linalg.singular_values(m), atol=1e-10)


def test_svd_reconstruction_and_orthonormality(rng):
    for shape in [(4, 4), (6, 3), (3, 6)]:
        m = rng.normal(size=shape)
        left, s, right = linalg.svd(m)
        resid = linalg.frobenius_norm(m - (left * s) @ right.T)
        assert resid <= 1e-9 * max(1.0, linalg.frobenius_norm(m))
        np.testing.assert_allclose(left.T @ left, np.eye(len(s)), atol=1e-10)
        np.testing.assert_allclose(right.T @ right, np.eye(len(s)), atol=1e-10)


def test_spd_inv_sqrt_identity():
    np.testing.assert_allclose(linalg.spd_inv_sqrt(np.eye(2)), np.eye(2), atol=1e-12)


def test_spd_inv_sqrt_diagonal():
    r = linalg.spd_inv_sqrt(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(r, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)


def test_spd_inv_sqrt_residual(rng):
    a = rng.normal(size=(5, 5))
    s = a.T @ a + np.eye(5)
    r = linalg.spd_inv_sqrt(s)
    np.testing.assert_allclose(r @ s @ r, np.eye(5), atol=1e-9)
    assert np.max(np.abs(r - r.T)) <= 1e-10


def test_spd_inv_sqrt_rejects_rank_deficient():
    with pytest.raises(ValueError, match="rank deficient"):
        linalg.spd_inv_sqrt(np.diag([1.0, 0.0]))


def test_singular_values_transpose_invariance(rng):
    for _ in range(10):
        m = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
        np.testing.assert_allclose(
            linalg.singular_values(m), linalg.singular_values(m.T), atol=1e-10
        )


def test_psd_singular_values_equal_eigenvalues(rng):
    a = rng.normal(size=(5, 5))
    s = a.T @ a
    w = np.linalg.eigvalsh(s)[::-1]
    np.testing.assert_allclose(linalg.singular_values(s), w, atol=1e-10)


def test_step_buffers_are_aligned_column_major_copies(rng):
    r = 3
    rows = linalg.block_rows(10**9, r)
    for d in (37, 2 * rows + 5):
        x = rng.normal(size=(d, r))
        buffers = linalg.step_buffers(x)
        assert len(buffers) == 2
        np.testing.assert_array_equal(buffers[0], x)
        for b in buffers:
            assert b.shape == x.shape and b.dtype == np.float64
            assert b.flags["F_CONTIGUOUS"] and b.flags.writeable
            assert b.ctypes.data % linalg.BUFFER_ALIGN == 0
            assert not np.shares_memory(b, x)
        assert not np.shares_memory(*buffers)


def test_step_buffers_place_a_pair_side_by_side(rng):
    # The two-factor iterate [x | y] has the longer factor's rows; the
    # shorter one's missing rows are zero.
    r = 3
    rows = linalg.block_rows(10**9, 2 * r)
    for d1, d2 in ((5, 5), (7, 4), (4, 7), (2 * rows + 5, rows)):
        x, y = rng.normal(size=(d1, r)), rng.normal(size=(d2, r))
        z, spare = linalg.step_buffers(x, y)
        d = max(d1, d2)
        assert z.shape == spare.shape == (d, 2 * r)
        assert all(b.flags["F_CONTIGUOUS"] and b.ctypes.data % linalg.BUFFER_ALIGN == 0
                   for b in (z, spare))
        np.testing.assert_array_equal(z[:d1, :r], x)
        np.testing.assert_array_equal(z[:d2, r:], y)
        assert not z[d1:, :r].any() and not z[d2:, r:].any()


def test_block_rows_fit_the_block_in_multiples_of_eight():
    for r in (1, 3, 10, 64, 10**6):
        rows = linalg.block_rows(10**9, r)
        assert rows % 8 == 0 and rows >= 8
        assert rows * r * 8 <= linalg.BLOCK_BYTES or rows == 8
        assert (rows + 8) * r * 8 > linalg.BLOCK_BYTES
        assert linalg.block_rows(rows, r) == rows and linalg.block_rows(5, r) == 5
