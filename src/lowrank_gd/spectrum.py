"""Target matrices, their spectral metadata, the Sigma operator the
solvers apply, and rank-r ground-truth oracles."""

from dataclasses import dataclass, field

import numpy as np

from . import linalg

# Orthonormality tolerance for user-supplied bases.
BASIS_TOL = 1e-10


def check_eta(eta: float):
    """Raise ValueError naming ``eta`` unless it is positive and finite (NaN
    fails too). Sigma's step maps (so every single step), the budgets and
    ``initialization.kappa`` call it."""
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")


def _blocks(head, v, s, scratch):
    """``(start, stop, head(v, start, stop, block))`` for each row block of
    the head's ``s`` rows, every block formed in ``scratch``."""
    for start in range(0, s, max(1, len(scratch))):
        stop = min(start + len(scratch), s)
        yield start, stop, head(v, start, stop, scratch[:stop - start])


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
    diagonal matrix with such entries. Every step sees the operator as a
    flat floor plus a head, mu I + R (``split``), so each step is one
    matmul of the iterate plus a product on the head's rows: ``floor_step``
    for the symmetric and eigenspace steps, ``pair_step`` for the
    two-factor one, whose iterate holds both factors side by side. Sigma
    owns a step's memory: each map keeps its own head scratch, and
    ``buffers`` makes a run's iterate and spare.
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
        """Memory order of every buffer this operator hands out: the
        symmetric and two-factor iterates, the eigenspace frames and the
        step maps' head scratch, in runs and in the single steps. "F" for a
        diagonal operator: its elementwise products (the head of a spectrum
        without a flat floor) then run down contiguous columns, not
        r-element rows (1.8x faster at d=20000, r=10), each factor of the
        two-factor iterate [X | Y] is one contiguous half, and the step's
        v K matmul took 126-141 us there against 223 us on "C". The
        eigenspace Gram rounds differently on "F" (the shipped projection
        errors moved by up to 6.3e-11). "C" for a dense one, whose products
        would round differently on "F"."""
        return "F" if self.diag is not None else "C"

    def buffers(self, x, y=None) -> tuple:
        """A run's or a single step's iterate, a copy of ``x`` (with ``y``,
        [x | y]), and its spare: ``linalg.step_buffers`` in ``factor_order``."""
        return linalg.step_buffers(x, self.factor_order, y)

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

    def split(self):
        """Sigma as mu I + R, returned as ``(mu, s, R)``: R is nonzero only
        on its leading ``s`` rows. A diagonal operator's mu is its last
        (smallest) entry, s counts the entries before the trailing run equal
        to mu, and R is given as those s entries minus mu; a spiked spectrum
        (r values over a flat noise floor) has s = r. A dense operator has
        mu = 0, s = d and R = ``matrix``."""
        if self.diag is None:
            return 0.0, self.shape[0], self.matrix
        mu = float(self.diag[-1])
        s = int(np.count_nonzero(self.diag != mu))
        return mu, s, self.diag[:s] - mu

    def floor_step(self, eta: float, rank: int):
        """The symmetric and eigenspace update for step size ``eta`` on d x
        ``rank`` factors, built once per run from ``split``: the map ``(v,
        gram, out, sandwich=False) -> out`` that writes
        (I + eta Sigma) v - v M into ``out`` and returns it. M is eta ``gram``
        (the symmetric step, gram = X^T X); with ``sandwich`` it is
        eta v^T Sigma v = eta mu ``gram`` + v^T (eta R) v (the eigenspace
        step, gram = L^T L). Since the rows past s of I + eta Sigma are the
        scalar 1 + eta mu, the update is one matmul,
        v ((1 + eta mu) I - M) into ``out``, plus eta R v added to the
        leading s rows. That product is formed in the map's head scratch,
        so no step allocates a d x r array: once for both uses when the
        head fits one block (every spiked spectrum), else once per use in
        row blocks, with each block's rows of the matmul formed while the
        block sits in L2 (d=20000, r=10, strictly decreasing tail: symmetric
        step 335 us against 393 us for the earlier x + eta Sigma x - x M,
        and eigenspace 581 against 987)."""
        check_eta(eta)
        mu, s, rest = self.split()
        scale = (1.0 + eta * mu) * np.eye(rank)
        scratch = linalg.aligned_empty(linalg.block_rows(s, rank), rank, self.factor_order)
        if self.diag is not None:
            col = (eta * rest)[:, None]

            def head(v, start, stop, out):
                return np.multiply(col[start:stop], v[start:stop], out=out)
        else:
            def head(v, start, stop, out):
                return np.multiply(eta, np.matmul(rest[start:stop], v, out=out), out=out)

        def step(v, gram, out, sandwich=False):
            m = (eta * mu if sandwich else eta) * gram
            if s <= scratch.shape[0]:
                # The head fits one block: formed once, for the Gram and the
                # update, around one matmul over every row.
                block = head(v, 0, s, scratch)
                if sandwich:
                    m += v[:s].T @ block
                np.matmul(v, np.subtract(scale, m, out=m), out=out)
                top = out[:s]
                np.add(top, block, out=top)
                return out
            if sandwich:
                m += sum(v[start:stop].T @ block for start, stop, block in _blocks(head, v, s, scratch))
            k = np.subtract(scale, m, out=m)
            # Each head block's rows of the matmul are formed next to the
            # block's product, while both sit in L2; the floor rows at once.
            np.matmul(v[s:], k, out=out[s:])
            for start, stop, block in _blocks(head, v, s, scratch):
                np.matmul(v[start:stop], k, out=out[start:stop])
                np.add(out[start:stop], block, out=out[start:stop])
            return out

        return step

    def pair_step(self, eta: float, rank: int, regularized: bool):
        """The two-factor update for step size ``eta`` on factors of ``rank``
        columns, built once per run: the map ``(z, gram_x, gram_y, out) ->
        out`` on the joint iterate z = [X | Y], d x 2r with d the longer
        factor's rows, the shorter factor's missing rows zero (``buffers``).
        With ``split`` = (mu, s, R) the update is one matmul, z A into
        ``out`` with A = [[I - M_x, eta mu I], [eta mu I, I - M_y]], plus
        eta R Y added to X's columns and eta R^T X to Y's on the leading s
        rows (a dense Sigma: mu = 0, every real row), formed beside each
        other in row blocks of the map's head scratch. Regularized,
        M_x = M_y = (eta/2)(G_x + G_y), which is eta G_y + (eta/2)(G_x - G_y)
        and eta G_x - (eta/2)(G_x - G_y): the balancing term folds into the
        r x r multiplier. Unregularized, M_x = eta G_y and M_y = eta G_x.
        Padding rows stay zero, since mu = 0 whenever the factors differ in
        length and the head writes real rows only."""
        check_eta(eta)
        mu, s, rest = self.split()
        r = rank
        multiplier = np.kron([[1.0, eta * mu], [eta * mu, 1.0]], np.eye(r))
        if self.diag is not None:
            col = (eta * rest)[:, None]

            def head(z, start, stop, block):
                np.multiply(col[start:stop], z[start:stop, r:], out=block[:, :r])
                np.multiply(col[start:stop], z[start:stop, :r], out=block[:, r:])
                return block
        else:
            (d1, d2), s = self.shape, max(self.shape)

            def head(z, start, stop, block):
                # eta Sigma Y beside eta Sigma^T X, so the update adds whole
                # rows; a half past its factor's rows is 0.
                for mat, v, half, n in ((rest, z[:d2, r:], block[:, :r], d1),
                                        (rest.T, z[:d1, :r], block[:, r:], d2)):
                    real = max(0, min(stop, n) - start)
                    np.matmul(mat[start:start + real], v, out=half[:real])
                    half[real:] = 0.0
                return np.multiply(eta, block, out=block)
        scratch = linalg.aligned_empty(linalg.block_rows(s, 2 * r), 2 * r, self.factor_order)

        def step(z, gram_x, gram_y, out):
            a = multiplier.copy()
            if regularized:
                m = np.add(gram_x, gram_y)
                m *= 0.5 * eta
                a[:r, :r] -= m
                a[r:, r:] -= m
            else:
                a[:r, :r] -= eta * gram_y
                a[r:, r:] -= eta * gram_x
            np.matmul(z, a, out=out)
            for start, stop, block in _blocks(head, z, s, scratch):
                np.add(out[start:stop], block, out=out[start:stop])
            return out

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
