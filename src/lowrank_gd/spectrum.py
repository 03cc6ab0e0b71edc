"""Target matrices, their spectral metadata and the eigenbasis split every
error reads, the Sigma operator the solvers apply, and rank-r oracles."""

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


def eigen_split(x: np.ndarray, r: int, top: np.ndarray | None):
    """``(U, U^T U, J^T J)`` of a tall iterate x, the one split every error
    reads: U = B_r^T x on the top r eigenvectors B_r (``top``) and J = x -
    B_r U, in O(d r^2); with ``top`` None (the identity), the views x[:r]
    and x[r:]."""
    u = x[:r] if top is None else top.T @ x
    j = x[r:] if top is None else x - top @ u
    return u, u.T @ u, j.T @ j


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
        # B_r, all that ``split`` reads of the basis, column-major like the iterates.
        self._top = None if self.basis is None else np.asfortranarray(self.basis[:, : self.rank])

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

    def split(self, x: np.ndarray):
        """``eigen_split`` of x over the target's top ``rank`` eigenvectors."""
        return eigen_split(x, self.rank, self._top)

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

    Built from a Target or an array, it decides only how Sigma is applied.
    A diagonal operator keeps the diagonal in ``diag`` and applies it
    elementwise; a dense one applies ``matrix`` (square or rectangular; for
    a Target, its ``Target.matrix``). A Target without a basis is diagonal
    at any sign, and so is a square diagonal array whose entries do not
    increase, as ``split`` needs; anything else is dense. Every step sees
    the operator as a flat floor plus a head, mu I + R (``split``), so each
    step is one matmul of the iterate plus a product on the head's rows:
    ``step_map``, alone for the symmetric and eigenspace steps and ``pair``
    for the two-factor one, with the multiplier each solver builds.
    """

    def __init__(self, source):
        self.diag = self.matrix = None
        if isinstance(source, Target):
            self.shape = (source.dim, source.dim)
            if source.basis is None:
                self.diag = source.eigenvalues
            else:
                self.matrix = source.matrix
            return
        a = np.asarray(source, dtype=np.float64)
        self.shape = a.shape
        if a.ndim == 2 and a.shape[0] == a.shape[1]:
            d, n = np.diag(a), linalg.block_rows(*a.shape)
            # Counted by row blocks, a dense array stops at its first off-diagonal nonzero.
            if not np.any(np.diff(d) > 0) and all(np.count_nonzero(a[i:i + n]) == np.count_nonzero(d[i:i + n])
                                                  for i in range(0, d.size, n)):
                self.diag = d.copy()
        if self.diag is None:
            self.matrix = a

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

    def step_map(self, eta: float, rank: int, pair: bool = False):
        """The update for step size ``eta`` on factors of ``rank`` columns,
        built once per run from ``split`` = (mu, s, R): the map ``(v, m, out,
        sandwich=False) -> out`` that writes v (S - m) + H(v) into ``out``
        and overwrites the multiplier ``m``, which each solver builds. Alone
        (the symmetric and eigenspace steps), S = (1 + eta mu) I and
        H(v) = eta R v. With ``pair`` (the two-factor step), v = [X | Y]
        from ``linalg.step_buffers``, S = [[I, eta mu I], [eta mu I, I]] and
        H(v) = [eta R Y | eta R^T X], zero past each factor's rows; padding
        rows stay zero, as mu = 0 whenever the factors differ in length.
        ``sandwich`` takes v^T v in ``m`` and first makes it eta v^T Sigma v,
        eta mu m plus v^T H(v). H is zero past row s, so the update is one
        matmul v (S - m) plus H(v) on the leading s rows, formed in the
        map's column-major head scratch: in one piece, for the sandwich and
        the update alike, when it fits one block (a spiked spectrum, or a
        dense operator, whose scratch holds all s = d rows), else in row
        blocks, each block's rows of the matmul formed beside it while both
        sit in L2. No step allocates a d x r array."""
        check_eta(eta)
        mu, s, rest = self.split()
        r, eta_mu = rank, eta * mu
        # The iterate's column halves: H writes halves[i] from sources[i],
        # the other factor's half when paired, v itself alone.
        halves = (slice(0, r), slice(r, 2 * r))[:1 + pair]
        sources, width = halves[::-1], r * len(halves)
        scale = np.kron([[1.0, eta_mu], [eta_mu, 1.0]] if pair else [[1.0 + eta_mu]], np.eye(r))
        if self.diag is not None:
            col = (eta * rest)[:, None]

            def head(v, start, stop, block):
                rows = col[start:stop]
                if not pair:
                    return np.multiply(rows, v[start:stop], out=block)
                for src, dst in zip(sources, halves):
                    np.multiply(rows, v[start:stop, src], out=block[:, dst])
                return block
        else:
            (d1, d2), s = self.shape, max(self.shape)

            def head(v, start, stop, block):
                # All s rows in one block; a half past its factor's rows is 0.
                for mat, n_in, n_out, src, dst in zip((rest, rest.T), (d2, d1), (d1, d2), sources, halves):
                    np.matmul(mat, v[:n_in, src], out=block[:n_out, dst])
                    block[n_out:, dst] = 0.0
                return np.multiply(eta, block, out=block)
        # A block's height is that of one factor's block, so the pair's
        # blocks hold as many rows as the others (and twice their bytes).
        scratch = linalg.aligned_empty(s if self.diag is None else linalg.block_rows(s, r), width)

        def step(v, m, out, sandwich=False):
            # A head that fits one block is formed once, for the Gram and the
            # update alike, around one matmul over every row.
            block = head(v, 0, s, scratch) if s <= scratch.shape[0] else None
            if sandwich:
                m *= eta_mu
                m += v[:s].T @ block if block is not None else sum(
                    v[start:stop].T @ block for start, stop, block in _blocks(head, v, s, scratch))
            k = np.subtract(scale, m, out=m)
            if block is not None:
                np.matmul(v, k, out=out)
                top = out[:s]
                np.add(top, block, out=top)
                return out
            # Each head block's rows of the matmul are formed next to the
            # block's product, while both sit in L2; the floor rows at once.
            np.matmul(v[s:], k, out=out[s:])
            for start, stop, block in _blocks(head, v, s, scratch):
                np.matmul(v[start:stop], k, out=out[start:stop])
                np.add(out[start:stop], block, out=out[start:stop])
            return out

        return step

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
