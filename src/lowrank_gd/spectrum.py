"""Target matrices, their spectral metadata, the Sigma operator the
solvers apply, and rank-r ground-truth oracles."""

from dataclasses import dataclass, field

import numpy as np

from . import linalg

# Orthonormality tolerance for user-supplied bases.
BASIS_TOL = 1e-10


@dataclass
class Target:
    """A symmetric matrix with known eigen-structure.

    ``eigenvalues`` are descending; ``basis`` holds the eigenvectors as
    orthonormal columns, or ``None`` for the diagonal case. The dense
    matrix is materialized lazily since the solvers only need it for
    non-diagonal targets.
    """

    dim: int
    rank: int
    eigenvalues: np.ndarray
    basis: np.ndarray | None = None
    _matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64).ravel()
        if self.dim < 2 or not (1 <= self.rank < self.dim):
            raise ValueError(f"need dim >= 2 and 1 <= rank < dim, got dim={self.dim}, rank={self.rank}")
        if self.eigenvalues.size != self.dim:
            raise ValueError(f"expected {self.dim} eigenvalues, got {self.eigenvalues.size}")
        if not np.isfinite(self.eigenvalues).all():
            raise ValueError("eigenvalues contain non-finite entries")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be in descending order")
        if self.gap <= 0:
            raise ValueError(
                f"eigengap across the rank-{self.rank} cut must be positive, got {self.gap}"
            )
        if self.basis is not None:
            b = linalg.as_matrix(self.basis, "basis")
            if b.shape != (self.dim, self.dim):
                raise ValueError(f"basis must be {self.dim}x{self.dim}, got {b.shape}")
            if linalg.frobenius_norm(b.T @ b - np.eye(self.dim)) > BASIS_TOL * self.dim:
                raise ValueError("basis columns are not orthonormal")
            self.basis = b

    @property
    def gap(self) -> float:
        """Spectral separation across the truncation cut."""
        return float(self.eigenvalues[self.rank - 1] - self.eigenvalues[self.rank])

    @property
    def lambda_top(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_r(self) -> float:
        return float(self.eigenvalues[self.rank - 1])

    @property
    def lambda_r_plus_one(self) -> float:
        return float(self.eigenvalues[self.rank])

    @property
    def leading(self) -> np.ndarray:
        """The top ``rank`` eigenvalues (diagonal of the signal block)."""
        return self.eigenvalues[: self.rank]

    @property
    def is_psd(self) -> bool:
        return bool(self.eigenvalues[-1] >= -linalg.SYMMETRY_TOL)

    @property
    def matrix(self) -> np.ndarray:
        """The dense target matrix, built on first access."""
        if self._matrix is None:
            if self.basis is None:
                self._matrix = np.diag(self.eigenvalues)
            else:
                self._matrix = (self.basis * self.eigenvalues) @ self.basis.T
        return self._matrix


class Sigma:
    """The target as a linear operator on tall factors.

    Built from a Target or an array. A diagonal operator keeps the
    diagonal in ``diag`` and applies it elementwise; a dense one applies
    ``matrix`` (square or rectangular; for a Target, its ``Target.matrix``).
    A Target without a basis is diagonal; an array is dense. With
    ``svd=True`` (the two-factor problem, whose rank-r truncation is by
    singular values) the diagonal path also needs descending non-negative
    entries, so that the diagonal is its own SVD: a Target with a negative
    eigenvalue is then dense, and an array is diagonal when it is a square
    diagonal matrix with such entries.
    """

    def __init__(self, source, svd: bool = False):
        self.diag = self.matrix = None
        if isinstance(source, Target):
            self.shape = (source.dim, source.dim)
            self.basis = source.basis
            self._identity_basis = source.basis is None
            if source.basis is None and not (svd and source.eigenvalues[-1] < 0):
                self.diag = source.eigenvalues
            else:
                self.matrix = source.matrix
            return
        a = np.asarray(source, dtype=np.float64)
        self.shape = a.shape
        self.basis = None
        if svd and a.ndim == 2 and a.shape[0] == a.shape[1]:
            d = np.diag(a)
            if not (np.any(d < 0) or np.any(np.diff(d) > 0) or np.any(a - np.diag(d))):
                self.diag = d.copy()
        if self.diag is None:
            self.matrix = a
        self._identity_basis = self.diag is not None

    @property
    def factor_order(self) -> str:
        """Memory order of every solver's factor buffers: the symmetric and
        two-factor iterates and the eigenspace frames, in runs and in the
        eigenspace single steps. "F" for a diagonal operator: its
        elementwise product then runs down contiguous columns, not r-element
        rows (1.8x faster at d=20000, r=10). The symmetric and two-factor
        products give the same bits as on row-major factors; the eigenspace
        Gram L^T Sigma L rounds differently (the shipped projection errors
        moved by up to 6.3e-11). "C" for a dense one, whose products would
        round differently on "F"."""
        return "F" if self.diag is not None else "C"

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sigma @ v, written into ``out`` when given."""
        if self.diag is not None:
            return np.multiply(self.diag[:, None], v, out=out)
        return np.matmul(self.matrix, v, out=out)

    def apply_t(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sigma^T @ v, written into ``out`` when given."""
        if self.diag is not None:
            return np.multiply(self.diag[:, None], v, out=out)
        return np.matmul(self.matrix.T, v, out=out)

    def shifted(self, eta: float):
        """The map ``(v, out) -> v + eta * Sigma v`` into ``out``: the base of
        the symmetric step. A diagonal Sigma forms the column 1 + eta * diag
        here, once per run, so the map is one multiply."""
        if self.diag is not None:
            col = (1.0 + eta * self.diag)[:, None]
            return lambda v, out: np.multiply(col, v, out=out)
        ascent = self.ascent(eta)
        return lambda v, out: ascent(v, v, out)

    def ascent(self, eta: float, transpose: bool = False):
        """The map ``(v, base, out) -> base + eta * Sigma v`` (``Sigma^T v``
        with ``transpose``) into ``out``: the base of the two-factor step. A
        diagonal Sigma forms the column eta * diag here, once per run."""
        if self.diag is not None:
            col = (eta * self.diag)[:, None]
            return lambda v, base, out: np.add(base, np.multiply(col, v, out=out), out=out)
        apply = self.apply_t if transpose else self.apply

        def step(v, base, out):
            np.multiply(eta, apply(v, out=out), out=out)
            return np.add(base, out, out=out)

        return step

    def to_eigen(self, x: np.ndarray) -> np.ndarray:
        """x in eigenbasis coordinates: basis^T @ x for a rotated Target,
        x itself when the eigenbasis is the identity."""
        if self.basis is not None:
            return self.basis.T @ x
        if not self._identity_basis:
            raise ValueError("the eigenbasis of a dense array operator is unknown")
        return x

    def check_shape(self, rows: int, cols: int | None = None):
        """Raise ValueError unless Sigma is ``rows`` x ``cols`` (``cols`` defaults to ``rows``)."""
        want = (rows, rows if cols is None else cols)
        if tuple(self.shape) != want:
            raise ValueError(f"sigma of shape {tuple(self.shape)} does not match factors {want[0]}x{want[1]}")


@dataclass
class RankROracle:
    """Ground truth for error measurement: the best rank-r truncation and
    the projector onto the leading eigenspace."""

    sigma_r_matrix: np.ndarray
    projector: np.ndarray
    gap: float


def make_target(values, rank: int, basis=None) -> Target:
    """Build a Target from a descending spectrum and an optional rotation."""
    values = np.asarray(values, dtype=np.float64).ravel()
    return Target(dim=values.size, rank=int(rank), eigenvalues=values, basis=basis)


def make_diagonal_target(values, dim: int, rank: int) -> Target:
    """Diagonal target ``diag(values)`` with the declared dimension and rank."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size != dim:
        raise ValueError(f"expected {dim} values, got {values.size}")
    return Target(dim=int(dim), rank=int(rank), eigenvalues=values, basis=None)


def experiment_spectrum(hi: float, lo: float, r: int, d: int) -> np.ndarray:
    """Spectrum used by the convergence experiments: ``r`` equally spaced
    values from ``hi`` down to ``lo``, followed by ``d - r`` ones."""
    if r < 2:
        raise ValueError("need r >= 2 for an interpolated leading block")
    if not (hi > lo):
        raise ValueError(f"need hi > lo, got hi={hi}, lo={lo}")
    if lo <= 1.0:
        raise ValueError(f"need lo > 1 so the gap to the unit tail is positive, got lo={lo}")
    if d <= r:
        raise ValueError(f"need d > r, got d={d}, r={r}")
    head = np.linspace(hi, lo, r)
    return np.concatenate([head, np.ones(d - r)])


def best_rank_r(target: Target) -> RankROracle:
    """Best rank-r approximation of the target and the associated projector."""
    if target.gap <= 0:
        raise ValueError("rank-r truncation is not unique without a positive eigengap")
    d, r = target.dim, target.rank
    truncated = np.zeros(d)
    truncated[:r] = target.eigenvalues[:r]
    ones = np.zeros(d)
    ones[:r] = 1.0
    if target.basis is None:
        sigma_r = np.diag(truncated)
        projector = np.diag(ones)
    else:
        b = target.basis
        sigma_r = (b * truncated) @ b.T
        projector = (b * ones) @ b.T
    return RankROracle(sigma_r_matrix=sigma_r, projector=projector, gap=target.gap)
