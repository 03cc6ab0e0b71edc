"""Gradient descent for symmetric low-rank approximation.

Implements the factored update X <- X + eta * (Sigma - X X^T) X together
with the block-level diagnostics used to machine-check its convergence
behaviour: membership in the absorbing regions, the noise-to-signal
ratio, the signal residual, and closed-form iteration budgets.

The target is applied through ``spectrum.Sigma``; the diagnostics are
taken in its eigenbasis coordinates, so a rotated target reports the
same values as its diagonal copy. ``run`` is a thin caller of the shared
``engine.iterate``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .engine import SolverConfig, Trace, iterate
from .spectrum import Sigma, Target

# Additive slack absorbing floating-point drift in region membership.
DEFAULT_REGION_SLACK = 1e-8

# Signal levels below this are reported as an infinite ratio.
SIGNAL_FLOOR = 1e-300


@dataclass
class FactorState:
    """A d x r iterate of the factored problem."""

    x: np.ndarray

    def __post_init__(self):
        self.x = linalg.as_matrix(self.x, "factor")

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    @property
    def rank(self) -> int:
        return self.x.shape[1]


@dataclass
class TraceRecord:
    """Per-iteration diagnostics of a symmetric run."""

    iter: int
    error: float
    sigma1_x: float
    sigma1_j: float
    sigmar_u: float
    ratio: float
    sigma1_p: float
    in_r: bool
    in_r2: bool


def gd_step(state: FactorState, target, eta: float) -> FactorState:
    """One gradient step X + eta * (Sigma - X X^T) X. ``target`` is a
    Target or a symmetric array (the lifting oracles pass the latter)."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    op = Sigma(target)
    op.check_shape(state.dim)
    x = state.x
    return FactorState(_step(op, x, eta, np.empty_like(x), np.empty_like(x)))


def _step(op: Sigma, x: np.ndarray, eta: float, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """x + eta * (Sigma x - x (x^T x)) written into ``out``."""
    return linalg.descent_update(op.apply(x, out=out), x, x.T @ x, eta, scratch)


def split_blocks(state: FactorState):
    """Split the iterate into the signal block (top r rows) and the noise
    block (remaining d - r rows)."""
    if state.dim <= state.rank:
        raise ValueError(f"block split needs d > r, got d={state.dim}, r={state.rank}")
    r = state.rank
    return state.x[:r], state.x[r:]


def block_values(u: np.ndarray, gram_u: np.ndarray, gram_j: np.ndarray):
    """(sigma_1(X), sigma_1(J), sigma_r(U), sigma_1^2(J) / sigma_r^2(U)) of an
    iterate in eigenbasis coordinates, from its signal block U and the r x r
    Gram blocks G_u = U^T U, G_j = J^T J: sigma_1 of X and J are roots of the
    top singular values of the PSD G_u + G_j and G_j (relative error O(r eps)),
    so no d x r matrix is decomposed. The ratio is inf for a singular U."""
    s1x = math.sqrt(linalg.singular_values(gram_u + gram_j)[0])
    s1j = math.sqrt(linalg.singular_values(gram_j)[0])
    sru = float(linalg.singular_values(u)[-1])
    ratio = math.inf if sru <= SIGNAL_FLOOR else (s1j / sru) ** 2
    return s1x, s1j, sru, ratio


def region_quantities(blocks, target: Target, slack: float = DEFAULT_REGION_SLACK):
    """``block_values`` plus membership in R and R2 of an iterate given by
    its ``eigen_blocks``. Region membership carries additive slack on each
    clause."""
    u, _, gram_u, gram_j = blocks
    s1x, s1j, sru, ratio = block_values(u, gram_u, gram_j)
    in_r2 = s1x ** 2 <= 2 * target.lambda_top + slack and s1j ** 2 <= target.lambda_r - target.gap / 2 + slack
    in_r = in_r2 and sru ** 2 >= target.gap / 4 - slack
    return s1x, s1j, sru, ratio, in_r, in_r2


def in_region_r(state: FactorState, target: Target, slack: float = DEFAULT_REGION_SLACK) -> bool:
    """Membership in the absorbing region: bounded magnitude, controlled
    noise, and a signal floor, each with additive slack."""
    return region_quantities(eigen_blocks(state, target), target, slack)[4]


def in_region_r2(state: FactorState, target: Target, slack: float = DEFAULT_REGION_SLACK) -> bool:
    """Membership in the larger absorbing region without the signal floor."""
    return region_quantities(eigen_blocks(state, target), target, slack)[5]


def max_step_size(target: Target) -> float:
    """Largest step size covered by the local convergence guarantee."""
    if target.lambda_top <= 0:
        raise ValueError("step size bound needs a positive top eigenvalue")
    return target.gap ** 2 / (36.0 * target.lambda_top ** 3)


def noise_signal_ratio(state: FactorState) -> float:
    """sigma_1^2(J) / sigma_r^2(U) of an iterate in eigenbasis coordinates;
    inf when the signal block is singular."""
    u, j = split_blocks(state)
    return block_values(u, u.T @ u, j.T @ j)[3]


def signal_residual(state: FactorState, target: Target) -> float:
    """sigma_1 of the signal residual Lambda_r - U U^T."""
    return float(linalg.singular_values(eigen_blocks(state, target)[1])[0])


def local_iteration_budget(target: Target, eta: float, epsilon: float) -> int:
    """Iterations guaranteed to reach the given error from inside the
    absorbing region, with the analysis' printed constants."""
    if eta <= 0 or epsilon <= 0:
        raise ValueError("eta and epsilon must be positive")
    lam1, gap, r = target.lambda_top, target.gap, target.rank
    arg = 200.0 * r * lam1 ** 2 / (eta * gap ** 2 * epsilon)
    return max(0, math.ceil((6.0 / (eta * gap)) * math.log(arg)))


def approximation_error(state: FactorState, target: Target) -> float:
    """Frobenius error against the best rank-r approximation of the target."""
    return _error_fn(target)(state.x)[0]


def eigen_blocks(state: FactorState, target: Target):
    """The blocks ``(U, Lambda_r - U U^T, U^T U, J^T J)`` of the iterate in
    the target's eigenbasis coordinates, as the error forms them; every
    block diagnostic reads these, so a rotated target reports the same
    values as its diagonal copy."""
    return _error_fn(target)(state.x)[1]


def _error_fn(target: Target):
    """Closure evaluating ||Sigma_r - X X^T||_F without forming d x d
    matrices: in eigenbasis coordinates the difference is block-structured
    and each block has a small Gram representation. It returns the error
    and the blocks ``(U, Lambda_r - U U^T, U^T U, J^T J)`` for the record."""
    r = target.rank
    lam_r = np.diag(target.leading)
    to_eigen = Sigma(target).to_eigen

    def err(x: np.ndarray) -> float:
        z = to_eigen(x)
        u, j = z[:r], z[r:]
        top = lam_r - u @ u.T
        gram_u = u.T @ u
        gram_j = j.T @ j
        sq = float(np.sum(top * top) + 2.0 * np.sum(gram_u * gram_j) + np.sum(gram_j * gram_j))
        return math.sqrt(max(sq, 0.0)), (u, top, gram_u, gram_j)

    return err


def run(state0: FactorState, target: Target, config: SolverConfig) -> Trace:
    """Iterate gradient descent until the rank-r approximation error falls
    below ``config.epsilon`` or the iteration budget is exhausted.

    Parameters
    ----------
    state0 : FactorState
        Initial iterate; its dimensions must match the target.
    target : Target
        PSD target with a positive eigengap, diagonal or rotated; block
        diagnostics are taken in its eigenbasis coordinates.
    config : SolverConfig
        Step size, tolerance, budget, and recording cadence.

    Returns
    -------
    Trace
        One TraceRecord every ``record_every`` iterations plus the first
        and last, with ``converged`` stating whether the tolerance was met.
        Steps write into buffers of the run's own, so ``state0`` is never
        modified; ``final_state`` holds the last of them.

    Raises
    ------
    DivergenceError
        If the iterate norm reaches the divergence guard; the partial
        trace rides on the exception.
    """
    if not target.is_psd:
        raise ValueError("symmetric solver requires a PSD target")
    op = Sigma(target)
    op.check_shape(state0.dim)
    err_fn = _error_fn(target)
    eta, epsilon = config.eta, config.epsilon
    x0 = np.array(state0.x, order=op.factor_order)
    # Allocate spare right after x0: with scratch allocated between them,
    # the recorded d=1000, r=10 loop ran about 7% slower in paired runs on
    # a 2-core Xeon VM (buffer placement; the exact cause was not isolated).
    spare, scratch = np.empty_like(x0), np.empty_like(x0)

    def measure(x):
        err, blocks = err_fn(x)
        gram_u, gram_j = blocks[2:]
        norm = math.sqrt(np.trace(gram_u) + np.trace(gram_j))
        return x, norm, err, err <= epsilon, blocks

    def record(t, x, err, blocks):
        s1x, s1j, sru, ratio, in_r, in_r2 = region_quantities(blocks, target)
        s1p = float(linalg.singular_values(blocks[1])[0])
        return TraceRecord(t, err, s1x, s1j, sru, ratio, s1p, in_r, in_r2)

    return iterate(x0, spare, lambda x, _, out: _step(op, x, eta, out, scratch),
                   measure, record, config, FactorState)
