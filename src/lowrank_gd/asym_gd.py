"""Gradient descent for asymmetric low-rank approximation.

The regularized iteration keeps the two factors' Gram matrices balanced;
the unregularized ablation drops that term. A change of variables stacks
the factor sum and difference into one tall factor driven by the
symmetric update on a block-diagonal matrix, which serves both as a
per-step correctness oracle and as the bridge to the symmetric theory.

Sigma (a Target or an array) is applied through ``spectrum.Sigma``, and
``run_asym`` is a thin caller of the shared ``engine.iterate``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .engine import Trace, iterate
from .spectrum import Sigma


@dataclass
class AsymState:
    """Factor pair (X, Y) with X of shape d1 x r and Y of shape d2 x r."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = linalg.as_matrix(self.x, "x factor")
        self.y = linalg.as_matrix(self.y, "y factor")
        if self.x.shape[1] != self.y.shape[1]:
            raise ValueError(
                f"factors disagree on rank: {self.x.shape[1]} vs {self.y.shape[1]}"
            )

    @property
    def rank(self) -> int:
        return self.x.shape[1]


@dataclass
class LiftedState:
    """Stacked factor w = [(X+Y)/sqrt2 ; (X-Y)/sqrt2] and the block-diagonal
    matrix diag(2 Sigma, -2 Sigma) driving its symmetric update."""

    w: np.ndarray
    lifted_target: np.ndarray


@dataclass
class AsymRecord:
    iter: int
    error: float
    balance: float


def asym_step(state: AsymState, sigma, eta: float, regularized: bool = True) -> AsymState:
    """One gradient step on the (optionally regularized) asymmetric objective.

    Regularized:
        X' = X + eta (Sigma - X Y^T) Y - (eta/2) X (X^T X - Y^T Y)
        Y' = Y + eta (Sigma - X Y^T)^T X + (eta/2) Y (X^T X - Y^T Y)
    The unregularized variant drops the (eta/2) terms. ``sigma`` is a
    Target or an array.
    """
    op = Sigma(sigma, svd=True)
    op.check_shape(state.x.shape[0], state.y.shape[0])
    x, y = state.x, state.y
    out = np.empty_like(x), np.empty_like(y)
    scratch = np.empty_like(x), np.empty_like(y)
    return AsymState(*_step(op, x, y, x.T @ x, y.T @ y, eta, regularized, out, scratch))


def _step(op: Sigma, x, y, gram_x, gram_y, eta: float, regularized: bool, out, scratch):
    """The update of ``asym_step`` written into the pair ``out``, with the
    products held in the pair ``scratch``."""
    x_next, y_next = out
    sx, sy = scratch
    linalg.descent_update(op.apply(y, out=x_next), x, gram_y, eta, sx)
    linalg.descent_update(op.apply_t(x, out=y_next), y, gram_x, eta, sy)
    if regularized:
        imbalance = gram_x - gram_y
        half = 0.5 * eta
        np.multiply(half, np.matmul(x, imbalance, out=sx), out=sx)
        np.subtract(x_next, sx, out=x_next)
        np.multiply(half, np.matmul(y, imbalance, out=sy), out=sy)
        np.add(y_next, sy, out=y_next)
    return out


def lift(state: AsymState, sigma=None) -> LiftedState:
    """Stack the factors into the symmetric side of the change of variables.

    Defined for square problems (d1 == d2); zero-pad rectangular factors
    with ``pad_square`` first. When ``sigma`` is given, the block-diagonal
    driver diag(2 Sigma, -2 Sigma) is attached.
    """
    d1, d2 = state.x.shape[0], state.y.shape[0]
    if d1 != d2:
        raise ValueError(f"lifting needs square factors, got d1={d1}, d2={d2}")
    s = 1.0 / math.sqrt(2.0)
    w = np.vstack([(state.x + state.y) * s, (state.x - state.y) * s])
    lifted = None
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=np.float64)
        Sigma(sigma).check_shape(d1)
        lifted = np.zeros((2 * d1, 2 * d1))
        lifted[:d1, :d1] = 2.0 * sigma
        lifted[d1:, d1:] = -2.0 * sigma
    return LiftedState(w=w, lifted_target=lifted)


def pad_square(state: AsymState) -> AsymState:
    """Zero-pad the shorter factor so both live in max(d1, d2) rows."""
    d = max(state.x.shape[0], state.y.shape[0])
    r = state.rank
    x = np.zeros((d, r))
    y = np.zeros((d, r))
    x[: state.x.shape[0]] = state.x
    y[: state.y.shape[0]] = state.y
    return AsymState(x, y)


def balance_gap(state: AsymState) -> float:
    """Frobenius norm of X^T X - Y^T Y; zero iff the Gram matrices agree."""
    return float(np.linalg.norm(state.x.T @ state.x - state.y.T @ state.y, "fro"))


def _error_fn(op: Sigma, r: int):
    """Closure for ||Sigma_r - X Y^T||_F with Sigma_r the rank-r SVD
    truncation. A diagonal operator (its own SVD) uses a block identity
    that avoids forming d1 x d2 matrices per call."""
    if r < 1 or r > min(op.shape):
        raise ValueError(f"rank {r} out of range for sigma of shape {op.shape}")
    if op.diag is not None:
        s_r = np.diag(op.diag[:r])

        def err(x: np.ndarray, y: np.ndarray) -> float:
            ux, jx = x[:r], x[r:]
            uy, jy = y[:r], y[r:]
            top = s_r - ux @ uy.T
            sq = (
                float(np.sum(top * top))
                + float(np.sum((ux.T @ ux) * (jy.T @ jy)))
                + float(np.sum((jx.T @ jx) * (uy.T @ uy)))
                + float(np.sum((jx.T @ jx) * (jy.T @ jy)))
            )
            return math.sqrt(max(sq, 0.0))

        return err

    left, svals, right = linalg.svd(op.matrix)
    sigma_r = (left[:, :r] * svals[:r]) @ right[:, :r].T

    def err(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.linalg.norm(sigma_r - x @ y.T, "fro"))

    return err


def asym_error(state: AsymState, sigma, r: int) -> float:
    """Frobenius error of X Y^T against the rank-r truncation of sigma."""
    op = Sigma(sigma, svd=True)
    op.check_shape(state.x.shape[0], state.y.shape[0])
    return _error_fn(op, r)(state.x, state.y)


def run_asym(state0: AsymState, sigma, config, regularized: bool = True) -> Trace:
    """Iterate the asymmetric update until the approximation error (and,
    for the regularized variant, the balance gap) falls below the
    tolerance, or the budget runs out.

    ``sigma`` is a Target or an array. Records (iteration, error, balance)
    at the configured cadence plus the first and last iterations. Steps
    write into buffers of the run's own, so ``state0`` is never modified;
    the trace's ``final_state`` holds the last of them. Raises
    DivergenceError, carrying the trace so far, if either factor norm hits
    the divergence guard.
    """
    op = Sigma(sigma, svd=True)
    op.check_shape(state0.x.shape[0], state0.y.shape[0])
    err_fn = _error_fn(op, state0.rank)
    eta, epsilon = config.eta, config.epsilon
    xy0 = np.array(state0.x, order=op.factor_order), np.array(state0.y, order=op.factor_order)
    # Spare buffers right after the iterate, as in ``sym_gd.run``.
    spare = tuple(map(np.empty_like, xy0))
    scratch = tuple(map(np.empty_like, xy0))

    def measure(xy):
        x, y = xy
        err = err_fn(x, y)
        grams = x.T @ x, y.T @ y
        # np.maximum, unlike max, carries a NaN in either trace to the guard.
        norm = math.sqrt(np.maximum(np.trace(grams[0]), np.trace(grams[1])))
        balance = float(np.linalg.norm(grams[0] - grams[1], "fro"))
        done = err <= epsilon and (not regularized or balance <= epsilon)
        return xy, norm, err, done, (grams, balance)

    return iterate(
        xy0, spare,
        lambda xy, aux, out: _step(op, *xy, *aux[0], eta, regularized, out, scratch), measure,
        lambda t, xy, err, aux: AsymRecord(t, err, aux[1]), config, lambda xy: AsymState(*xy),
    )
