"""Gradient descent for symmetric low-rank approximation.

Implements the factored update X <- X + eta * (Sigma - X X^T) X together
with the block-level diagnostics used to machine-check its convergence
behaviour: membership in the absorbing regions, the noise-to-signal
ratio, the signal residual, and closed-form iteration budgets.

The target is applied through ``spectrum.Sigma``; the error and the
diagnostics read its eigenbasis split (``Target.split``), so a rotated
target reports the same values as its diagonal copy. ``run`` is a thin
caller of the shared ``engine.iterate``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .engine import SolverConfig, Trace, iterate
from .spectrum import Sigma, Target, check_eta

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
    Target or a symmetric array (the lifting oracles pass the latter).
    ``Sigma.step_map`` rejects a step size that is not positive and finite;
    the step's multiplier is eta X^T X."""
    op = Sigma(target)
    op.check_shape(state.dim)
    # For a Target, the Gram of its split as in ``run``: a run equals repeated steps.
    x, out = linalg.step_buffers(state.x)
    gram = np.add(*target.split(x)[1:]) if isinstance(target, Target) else x.T @ x
    return FactorState(op.step_map(eta, state.rank)(x, eta * gram, out))


def block_values(blocks):
    """(sigma_1(X), sigma_1(J), sigma_r(U), sigma_1^2(J) / sigma_r^2(U),
    sigma_1(Lambda_r - U U^T)) of an iterate given by its ``eigen_blocks``,
    from the singular values of the r x r matrices G_u + G_j, G_j, U and
    Lambda_r - U U^T, taken as one stack in one ``singular_values`` (NumPy
    ``svd``) call: LAPACK still decomposes each block, with the bits of
    four separate calls, and the stack saves three calls' overhead.
    sigma_1 of X and J are roots of the top singular values of the PSD
    Grams (relative error O(r eps)), so no d x r matrix is decomposed;
    sigma_r(U) comes from U itself, which keeps its accuracy when U is
    ill-conditioned. The ratio is inf for a singular U and when it
    overflows."""
    u, top, gram_u, gram_j = blocks
    sv = linalg.singular_values(np.array((gram_u + gram_j, gram_j, u, top)))
    s1x, s1j, sru = math.sqrt(sv[0, 0]), math.sqrt(sv[1, 0]), float(sv[2, -1])
    try:
        ratio = math.inf if sru <= SIGNAL_FLOOR else (s1j / sru) ** 2
    except OverflowError:  # float ** raises where the square leaves the range
        ratio = math.inf
    return s1x, s1j, sru, ratio, float(sv[3, 0])


def region_quantities(blocks, target: Target, slack: float = DEFAULT_REGION_SLACK):
    """``block_values`` plus membership in R and R2 of an iterate given by
    its ``eigen_blocks``. Region membership carries additive slack on each
    clause."""
    s1x, s1j, sru, ratio, s1p = block_values(blocks)
    in_r2 = s1x ** 2 <= 2 * target.lambda_top + slack and s1j ** 2 <= target.lambda_r - target.gap / 2 + slack
    in_r = in_r2 and sru ** 2 >= target.gap / 4 - slack
    return s1x, s1j, sru, ratio, s1p, in_r, in_r2


def in_region_r(state: FactorState, target: Target, slack: float = DEFAULT_REGION_SLACK) -> bool:
    """Membership in the absorbing region: bounded magnitude, controlled
    noise, and a signal floor, each with additive slack."""
    return region_quantities(eigen_blocks(state, target), target, slack)[5]


def in_region_r2(state: FactorState, target: Target, slack: float = DEFAULT_REGION_SLACK) -> bool:
    """Membership in the larger absorbing region without the signal floor."""
    return region_quantities(eigen_blocks(state, target), target, slack)[6]


def max_step_size(target: Target) -> float:
    """Largest step size covered by the local convergence guarantee,
    gap^2 / (36 lambda_1^3). Formed as (gap / lambda_1)^2 / (36 lambda_1),
    so a spectrum whose lambda_1^3 leaves the float range gives a number
    (0 at worst) instead of an OverflowError."""
    lam1 = target.lambda_top
    if lam1 <= 0:
        raise ValueError("step size bound needs a positive top eigenvalue")
    ratio = target.gap / lam1
    return ratio * ratio / (36.0 * lam1)


def noise_signal_ratio(state: FactorState, target: Target) -> float:
    """sigma_1^2(J) / sigma_r^2(U) of an iterate in the target's eigenbasis
    coordinates; inf when the signal block is singular."""
    return block_values(eigen_blocks(state, target))[3]


def signal_residual(state: FactorState, target: Target) -> float:
    """sigma_1 of the signal residual Lambda_r - U U^T."""
    return block_values(eigen_blocks(state, target))[4]


def local_iteration_budget(target: Target, eta: float, epsilon: float) -> int:
    """Iterations guaranteed to reach the given error from inside the
    absorbing region, with the analysis' printed constants; eta and
    epsilon must be positive and finite, and not so small that the budget
    leaves the float range."""
    check_eta(eta)
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    lam1, gap, r = target.lambda_top, target.gap, target.rank
    scale = eta * gap ** 2 * epsilon
    # scale > 0 implies eta * gap > 0; a product that underflows to 0
    # leaves the budget beyond the float range, as an overflow does.
    budget = (6.0 / (eta * gap)) * math.log(200.0 * r * lam1 ** 2 / scale) if scale > 0 else math.inf
    return whole_budget(budget, f"eta={eta} and epsilon={epsilon}")


def whole_budget(budget: float, args: str) -> int:
    """An iteration budget formed as a float, rounded up to a count of at
    least 0. Raises ValueError naming ``args`` when it is not finite, as a
    positive but tiny eta or epsilon makes it."""
    if not math.isfinite(budget):
        raise ValueError(f"the iteration budget for {args} lies beyond the float range ({budget})")
    return max(0, math.ceil(budget))


def approximation_error(state: FactorState, target: Target) -> float:
    """Frobenius error against the best rank-r approximation of the target."""
    return _evaluate(state, target)[0]


def eigen_blocks(state: FactorState, target: Target):
    """The blocks ``(U, Lambda_r - U U^T, U^T U, J^T J)`` of the iterate
    over the target's eigenbasis split, as the error forms them; every
    block diagnostic reads these, so a rotated target reports the same
    values as its diagonal copy."""
    return _evaluate(state, target)[1]


def _evaluate(state: FactorState, target: Target):
    """The error and ``eigen_blocks`` of one iterate, after checking that
    its rows match the target's dimension."""
    if state.dim != target.dim:
        raise ValueError(f"target of dimension {target.dim} does not match factor rows {state.dim}")
    return _error_fn(target)(state.x)


def _error_fn(target: Target):
    """Closure evaluating ||Sigma_r - X X^T||_F from ``Target.split`` (U and
    the rest J) as ||Lambda_r - U U^T||^2 + 2 <U^T U, J^T J> + ||J^T J||^2,
    with no d x d matrix. It returns the error and the blocks
    ``(U, Lambda_r - U U^T, U^T U, J^T J)`` for the record."""
    lam_r = np.diag(target.leading)
    split = target.split

    def err(x: np.ndarray) -> float:
        u, gram_u, gram_j = split(x)
        top = lam_r - u @ u.T
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
    step = op.step_map(eta, state0.rank)
    x0, spare = linalg.step_buffers(state0.x)

    def measure(x):
        err, blocks = err_fn(x)
        gram_u, gram_j = blocks[2:]
        norm = math.sqrt(np.trace(gram_u) + np.trace(gram_j))
        return x, norm, err, err <= epsilon, blocks

    def record(t, x, err, blocks):
        try:
            values = region_quantities(blocks, target)
        except ValueError:  # the non-finite blocks of an overflowed iterate
            values = (math.nan,) * 5 + (False, False)
        return TraceRecord(t, err, *values)

    return iterate(x0, spare, lambda x, blocks, out: step(x, eta * np.add(*blocks[2:]), out),
                   measure, record, config, FactorState)
