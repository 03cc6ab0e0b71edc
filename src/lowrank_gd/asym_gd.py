"""Gradient descent for asymmetric low-rank approximation.

The regularized iteration keeps the two factors' Gram matrices balanced;
the unregularized ablation drops that term. A change of variables stacks
the factor sum and difference into one tall factor driven by the
symmetric update on a block-diagonal matrix, which serves both as a
per-step correctness oracle and as the bridge to the symmetric theory.

Sigma (a Target or an array) is applied through ``spectrum.Sigma``. The
two factors step side by side in one buffer [X | Y], so each step is one
matmul of that buffer plus Sigma's head (``Sigma.step_map`` with
``pair``). The step's multiplier, where the regularizer lives, is built
here (``_multiplier``) from Grams that the error reads off the eigenbasis
split where it applies (``_error_fn``); ``run_asym`` is a thin caller of
the shared ``engine.iterate``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .engine import Trace, iterate
from .spectrum import Sigma, Target, eigen_split


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
    Target or an array. The step is ``Sigma.step_map`` with ``pair`` on the
    joint iterate [X | Y] from ``linalg.step_buffers`` and ``_multiplier``
    of the Grams, formed as the error closure forms them, as in
    ``run_asym``, so a run equals repeated steps bit for bit.
    """
    op = Sigma(sigma)
    d1, d2, r = state.x.shape[0], state.y.shape[0], state.rank
    op.check_shape(d1, d2)
    step = op.step_map(eta, r, pair=True)
    z, out = linalg.step_buffers(state.x, state.y)
    split = _split_fn(sigma, op, r)[0]
    grams = [v.T @ v if split is None else np.add(*split(v)[1:]) for v in (z[:d1, :r], z[:d2, r:])]
    step(z, _multiplier(eta, regularized, *grams), out)
    return AsymState(out[:d1, :r], out[:d2, r:])


def _multiplier(eta: float, regularized: bool, gram_x: np.ndarray, gram_y: np.ndarray) -> np.ndarray:
    """The two-factor step's 2r x 2r multiplier diag(M_x, M_y) for
    ``Sigma.step_map`` with ``pair``, from G_x = X^T X and G_y = Y^T Y.
    Regularized, M_x = M_y = (eta/2)(G_x + G_y), which is
    eta G_y + (eta/2)(G_x - G_y) and eta G_x - (eta/2)(G_x - G_y): the
    balancing term folds into the r x r multiplier. Unregularized,
    M_x = eta G_y and M_y = eta G_x."""
    r = gram_x.shape[0]
    m = np.zeros((2 * r, 2 * r))
    if regularized:
        m[:r, :r] = m[r:, r:] = np.add(gram_x, gram_y) * (0.5 * eta)
    else:
        m[:r, :r], m[r:, r:] = eta * gram_y, eta * gram_x
    return m


def lift(state: AsymState, sigma=None) -> LiftedState:
    """Stack the factors into the symmetric side of the change of variables.

    Defined for square problems (d1 == d2); zero-pad rectangular factors
    to max(d1, d2) rows first. When ``sigma`` is given, the block-diagonal
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
        if sigma.shape != (d1, d1):
            raise ValueError(f"sigma of shape {sigma.shape} does not match factors {d1}x{d1}")
        lifted = np.zeros((2 * d1, 2 * d1))
        lifted[:d1, :d1] = 2.0 * sigma
        lifted[d1:, d1:] = -2.0 * sigma
    return LiftedState(w=w, lifted_target=lifted)


def balance_gap(state: AsymState) -> float:
    """Frobenius norm of X^T X - Y^T Y; zero iff the Gram matrices agree."""
    return float(np.linalg.norm(state.x.T @ state.x - state.y.T @ state.y, "fro"))


def _split_fn(sigma, op: Sigma, r: int):
    """``(split, Lambda_r)`` for Sigma's rank-r SVD truncation, or ``(None,
    None)`` for a dense array. The truncation of a symmetric Sigma keeps
    its r eigenvalues of largest magnitude, with their signs: on a
    non-increasing spectrum, the first r - m and the last m, a first one
    winning a tie. ``split`` is the factors' ``eigen_split`` over those
    eigenvectors, the rows of a diagonal or the basis columns of a rotated
    Target, and Lambda_r holds their values."""
    rotated = isinstance(sigma, Target) and sigma.basis is not None
    values = sigma.eigenvalues if rotated else op.diag
    if values is None:
        return None, None
    m = 0
    for k in range(r):
        m += int(-values[-1 - m] > abs(values[k - m]))
    kept = np.r_[0:r - m, values.size - m:values.size]
    top, tail = (np.asfortranarray(sigma.basis[:, kept]), 0) if rotated else (None, m)
    return (lambda v: eigen_split(v, r, top, tail)), np.diag(values[kept])


def _error_fn(sigma, op: Sigma, r: int):
    """Closure for ||Sigma_r - X Y^T||_F, Sigma_r the rank-r SVD truncation
    (Eckart-Young) of ``sigma`` (applied as ``op``), and ``(X^T X, Y^T Y,
    balance gap)``. With ``_split_fn``'s split, a block identity over each
    factor's U and rest J forms no d1 x d2 matrix; a dense array's calls
    form the residual to its SVD's Sigma_r."""
    if r < 1 or r > min(op.shape):
        raise ValueError(f"rank {r} out of range for sigma of shape {op.shape}")
    split, s_r = _split_fn(sigma, op, r)
    if split is None:
        left, svals, right = linalg.svd(op.matrix)
        sigma_r = (left[:, :r] * svals[:r]) @ right[:, :r].T

    def err(x: np.ndarray, y: np.ndarray):
        if split is None:
            error, gram_x, gram_y = float(np.linalg.norm(sigma_r - x @ y.T, "fro")), x.T @ x, y.T @ y
        else:
            (ux, gux, gjx), (uy, guy, gjy) = split(x), split(y)
            top = s_r - ux @ uy.T
            sq = float(np.vdot(top, top) + np.vdot(gux, gjy) + np.vdot(gjx, guy) + np.vdot(gjx, gjy))
            error, gram_x, gram_y = math.sqrt(max(sq, 0.0)), gux + gjx, guy + gjy
        gap = gram_x - gram_y
        return error, (gram_x, gram_y, math.sqrt(np.vdot(gap, gap)))

    return err


def asym_error(state: AsymState, sigma, r: int) -> float:
    """Frobenius error of X Y^T against the rank-r truncation of sigma."""
    op = Sigma(sigma)
    op.check_shape(state.x.shape[0], state.y.shape[0])
    return _error_fn(sigma, op, r)(state.x, state.y)[0]


def run_asym(state0: AsymState, sigma, config, regularized: bool = True) -> Trace:
    """Iterate the asymmetric update until the approximation error (and,
    for the regularized variant, the balance gap) falls below the
    tolerance, or the budget runs out.

    ``sigma`` is a Target or an array. Records (iteration, error, balance)
    at the configured cadence plus the first and last iterations. Steps
    write into buffers of the run's own, so ``state0`` is never modified;
    the trace's ``final_state`` holds views of the real rows of the last
    of them. Both factors live in one buffer, [X | Y] (see
    ``Sigma.step_map``), so each step is one matmul of that buffer; the
    regularizer enters through ``_multiplier``. Raises
    DivergenceError, carrying the trace so far, if either factor norm hits
    the divergence guard.
    """
    op = Sigma(sigma)
    d1, d2, r = state0.x.shape[0], state0.y.shape[0], state0.rank
    op.check_shape(d1, d2)
    err_fn = _error_fn(sigma, op, r)
    epsilon = config.epsilon
    step = op.step_map(config.eta, r, pair=True)
    z0, spare = linalg.step_buffers(state0.x, state0.y)

    def measure(z):
        err, aux = err_fn(z[:d1, :r], z[:d2, r:])
        gram_x, gram_y, balance = aux
        # np.maximum, unlike max, carries a NaN in either trace to the guard.
        norm = math.sqrt(np.maximum(np.trace(gram_x), np.trace(gram_y)))
        done = err <= epsilon and (not regularized or balance <= epsilon)
        return z, norm, err, done, aux

    return iterate(
        z0, spare, lambda z, aux, out: step(z, _multiplier(config.eta, regularized, *aux[:2]), out), measure,
        lambda t, z, err, aux: AsymRecord(t, err, aux[2]), config,
        lambda z: AsymState(z[:d1, :r], z[:d2, r:]),
    )
