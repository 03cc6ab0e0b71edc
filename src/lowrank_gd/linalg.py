"""Dense matrix kernels shared by every solver module.

All routines operate on plain 2-D float64 numpy arrays and are pure
functions of their inputs, apart from the aligned column-major buffers
every step runs in. Decompositions are delegated to LAPACK via numpy; the
wrappers pin down validation, ordering conventions, and the error
behaviour the solvers rely on.
"""

import numpy as np

# Entrywise tolerance below which a matrix counts as symmetric. Inputs
# within this band are symmetrized before decomposing, so repeated
# floating-point updates do not poison eigensolves.
SYMMETRY_TOL = 1e-12

# Smallest admissible eigenvalue for inverse-square-root inputs, relative
# to the largest one.
SPD_MIN_EIG = 1e-12

# Byte boundary the solvers' step buffers and the step maps' head scratch
# start on: one cache line. malloc puts a large array 16 bytes past a page
# or anywhere in a line, depending on what the process allocated before;
# the d=20000, r=10 symmetric loop ran about 10% slower on buffers 8 or 16
# bytes off a line than on aligned ones (2-vCPU Xeon VM).
BUFFER_ALIGN = 64

# Bytes of one factor's rows a step map (``spectrum.Sigma.step_map``)
# forms the head of Sigma's split in at once, so each block's product
# stays in L2 until the update reads it back; the two-factor map's blocks
# hold as many rows of both factors, twice the bytes. Blocks run only on a
# diagonal head longer than one block, which a sloped tail has; no
# shipped config or benchmark workload has one, as their spiked heads are
# r rows. On a sloped tail at d=20000, r=10, one step-map call took, in
# us, with 320 KiB blocks against one pass: symmetric 339 against 537,
# eigenspace 594 against 1015 (medians of 12 alternating in-process rounds
# of 50 calls), two-factor 1042 against 1162, and 1389 in blocks of half
# the rows (12 rounds each; 2-vCPU Xeon VM, 2 MiB L2 per core, OpenBLAS
# 0.3.31).
BLOCK_BYTES = 320 * 1024


class NumericalError(RuntimeError):
    """A matrix decomposition failed to converge."""


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-D float64 array, checking shape and finiteness."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def frobenius_norm(m) -> float:
    """Frobenius norm: sqrt of the sum of squared entries."""
    return float(np.linalg.norm(as_matrix(m), "fro"))


def singular_values(m) -> np.ndarray:
    """Singular values of ``m`` in descending order.

    ``m`` is a matrix, or a 3-D stack of equally shaped matrices; a stack
    gets one row of values per matrix, the same bits as separate calls,
    from one NumPy call (LAPACK runs once per matrix). Raises ValueError
    on any other number of dimensions, an empty matrix or a non-finite
    entry, and NumericalError if the underlying iteration does not
    converge.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ValueError(f"singular values need a matrix or a stack of matrices, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError("singular values need at least one row and one column")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalError(f"singular value iteration did not converge: {exc}") from exc


def block_rows(n: int, width: int) -> int:
    """Rows of a head block over ``n`` rows of ``width`` columns: all n
    when they fit, else the most rows, a multiple of 8, whose float64
    entries fit ``BLOCK_BYTES`` (at least 8)."""
    return min(n, max(8, BLOCK_BYTES // (8 * width) // 8 * 8))


def aligned_empty(rows: int, cols: int) -> np.ndarray:
    """An uninitialized column-major float64 ``rows`` x ``cols`` array that
    starts on a ``BUFFER_ALIGN``-byte boundary."""
    size = rows * cols * 8
    raw = np.empty(size + BUFFER_ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % BUFFER_ALIGN
    return raw[start:start + size].view(np.float64).reshape((rows, cols), order="F")


def step_buffers(x, y=None) -> tuple:
    """A run's or a single step's two buffers, each from ``aligned_empty``:
    the first iterate and the uninitialized spare shaped like it, into which
    each step writes the next iterate. The iterate is a copy of ``x``, or
    with ``y`` the two-factor iterate [x | y]: the factors side by side, as
    many rows as the longer one, the shorter one's missing rows zero.
    Column-major, whatever the operator: a diagonal Sigma's elementwise
    products then run down contiguous columns (1.8x faster than along
    r-element rows at d=20000, r=10), each factor of [x | y] is one
    contiguous half, and the step matmul took 126-141 us there against
    223 us row-major; dense runs at d=500-1000 were level or faster."""
    parts = [np.asarray(p, dtype=np.float64) for p in ((x,) if y is None else (x, y))]
    d, width = max(p.shape[0] for p in parts), sum(p.shape[1] for p in parts)
    z, spare = aligned_empty(d, width), aligned_empty(d, width)
    col = 0
    for p in parts:
        n, cols = p.shape
        z[:n, col:col + cols] = p
        z[n:, col:col + cols] = 0.0
        col += cols
    return z, spare


def svd(m):
    """Thin SVD ``m = left @ diag(s) @ right.T`` with descending ``s``."""
    a = as_matrix(m)
    try:
        left, s, right_t = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return left, s, right_t.T


def spd_inv_sqrt(s) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix.

    Returns the symmetric ``R`` with ``R @ S @ R = I``. Raises ValueError
    on an input that is not 2-D, not finite, not square or not symmetric
    within ``SYMMETRY_TOL``, and when the smallest eigenvalue is at or
    below ``SPD_MIN_EIG`` times the largest, which for a Gram signals a
    rank-deficient frame. The test is relative, so a full-rank frame of any
    scale passes, as the retraction L (L^T L)^(-1/2) is scale-invariant.
    """
    a = as_matrix(s, "spd_inv_sqrt input")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"spd_inv_sqrt input must be square, got shape {a.shape}")
    drift = float(np.max(np.abs(a - a.T)))
    if drift > SYMMETRY_TOL:
        raise ValueError(
            f"spd_inv_sqrt input is not symmetric: max |S - S^T| = {drift:.3e} > {SYMMETRY_TOL:.0e}"
        )
    return inv_sqrt_symmetric(a)


def inv_sqrt_symmetric(a: np.ndarray) -> np.ndarray:
    """``spd_inv_sqrt`` of a finite square matrix known to be symmetric up
    to rounding, without the checks: symmetrize, eigh, the relative rank
    test, (v / sqrt(w)) v^T, then symmetrize the result. Raises the same
    ValueError on a rank-deficient input. The polar retraction
    (``eigenspace._retract_lean``) calls this on the Gram it has formed."""
    try:
        w, v = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"symmetric eigensolve did not converge: {exc}") from exc
    if w[0] <= SPD_MIN_EIG * w[-1]:
        raise ValueError(
            f"matrix is not positive definite (eigenvalues {w[0]:.3e} to {w[-1]:.3e}): "
            "frame is rank deficient"
        )
    r = (v / np.sqrt(w)) @ v.T
    return 0.5 * (r + r.T)
