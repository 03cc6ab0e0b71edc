"""Random initialization schemes and deterministic entry conditions.

Covers the scaled Gaussian initializations, the decay exponent governing
how small "small" has to be, and the four-clause deterministic condition
under which the warm-up phase admits a closed-form iteration budget.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import Target, check_eta
from .sym_gd import FactorState, block_values, eigen_blocks


def gaussian_factor(d: int, r: int, seed: int) -> np.ndarray:
    """d x r matrix with i.i.d. N(0, 1/d) entries.

    Deterministic for fixed (d, r, seed) within one build: draws come from
    numpy's seeded PCG64 generator.
    """
    if d < 1 or r < 1:
        raise ValueError(f"need d >= 1 and r >= 1, got d={d}, r={r}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, r))


def gaussian_pair(d1: int, d2: int, r: int, seed: int):
    """Two independent factors for the asymmetric problem, drawn from one
    seeded stream with variance 1/max(d1, d2)."""
    d = max(d1, d2)
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(d)
    return rng.normal(0.0, scale, size=(d1, r)), rng.normal(0.0, scale, size=(d2, r))


def kappa(target: Target, eta: float) -> float:
    """Decay exponent comparing noise growth against signal growth.

    log(1 + eta * max(0, lambda_{r+1})) / log(1 + eta * (lambda_r - gap/2)),
    with the numerator clamped at zero for indefinite tails.
    """
    check_eta(eta)
    denom_rate = target.lambda_r - target.gap / 2.0
    if denom_rate <= 0:
        raise ValueError("signal growth rate is degenerate: lambda_r - gap/2 <= 0")
    num = math.log1p(eta * max(0.0, target.lambda_r_plus_one))
    den = math.log1p(eta * denom_rate)
    return num / den


def small_alpha_bound(target: Target, eta: float, multiplier: float = 1.0) -> float:
    """Initialization magnitude below which the warm-up analysis applies:
    multiplier * d^(-(1+kappa)/(1-kappa)), for a finite multiplier > 0."""
    if not 0 < multiplier < math.inf:
        raise ValueError(f"multiplier must be positive and finite, got {multiplier}")
    k = kappa(target, eta)
    if k >= 1.0:
        raise ValueError(f"decay exponent must be below 1, got {k}")
    return multiplier * target.dim ** (-(1.0 + k) / (1.0 - k))


@dataclass
class ClauseCheck:
    name: str
    holds: bool
    margin: float


@dataclass
class ConditionReport:
    """Outcome of the four-clause initialization condition. ``margin`` is
    how far inside (positive) or outside (negative) each clause sits."""

    holds: bool
    clauses: list

    def __bool__(self):
        return self.holds


def check_condition_1(state0: FactorState, target: Target, eta: float) -> ConditionReport:
    """Deterministic initialization condition guaranteeing entry into the
    absorbing region within the warm-up budget. The iterate is read in the
    target's eigenbasis coordinates (``sym_gd.eigen_blocks``), so a rotated
    target gives the verdict and margins of its diagonal copy; sigma_1(X)
    and sigma_1(J) come from the r x r Gram blocks."""
    s1x, s1j, sru = block_values(eigen_blocks(state0, target))[:3]
    s1x2, s1j2, sru2 = s1x * s1x, s1j * s1j, sru * sru
    lam1, lam_r, gap = target.lambda_top, target.lambda_r, target.gap
    k = kappa(target, eta)
    c1 = gap ** (1.0 - k / 2.0) / (2.0 ** (3.0 - k) * math.sqrt(lam1))

    clauses = [
        ClauseCheck("magnitude: sigma1^2(X0) <= lambda_1", s1x2 <= lam1, lam1 - s1x2),
        ClauseCheck(
            "noise: sigma1^2(J0) <= lambda_r - gap/2",
            s1j2 <= lam_r - gap / 2.0,
            lam_r - gap / 2.0 - s1j2,
        ),
        ClauseCheck(
            "signal window: 0 < sigma_r^2(U0) < gap/4",
            0.0 < sru2 < gap / 4.0,
            min(sru2, gap / 4.0 - sru2),
        ),
        ClauseCheck(
            "head start: sigma1^2(J0) <= c1 * sigma_r(U0)^(1+kappa)",
            s1j2 <= c1 * sru ** (1.0 + k),
            c1 * sru ** (1.0 + k) - s1j2,
        ),
    ]
    return ConditionReport(all(c.holds for c in clauses), clauses)


def warmup_budget(state0: FactorState, target: Target, eta: float) -> int:
    """Iterations needed for the signal block U (the top r rows in the
    target's eigenbasis coordinates) to clear gap/4, with the printed
    constant; zero when it already does (a bad eta raises even then)."""
    check_eta(eta)
    sru2 = block_values(eigen_blocks(state0, target))[2] ** 2
    gap = target.gap
    if sru2 >= gap / 4.0:
        return 0
    if sru2 <= 0:
        raise ValueError("warm-up budget needs a nonsingular signal block")
    return math.ceil((2.0 / (eta * gap)) * math.log(gap / (4.0 * sru2)))
