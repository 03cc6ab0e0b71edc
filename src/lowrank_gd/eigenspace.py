"""Leading-eigenspace computation on the Stiefel manifold, with and
without retraction.

The retraction-free iteration L <- L + eta (I - L L^T) Sigma L drives
L L^T to the projector onto the top-r eigenspace. The retracted variant
re-orthonormalizes the frame before every update and is the baseline the
wall-clock benchmark compares against. Scaling a frame by the matrix
square root of the target maps one retraction-free step onto one step of
the symmetric factored iteration, which is used as a per-step oracle.

Both methods apply the target through ``spectrum.Sigma``, and ``run_eig``
is a thin caller of the shared ``engine.iterate``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .engine import Trace, iterate
from .spectrum import RankROracle, Sigma, Target
from .sym_gd import FactorState

METHODS = ("retraction_free", "rgd")


@dataclass
class EigState:
    """A d x r frame; orthonormal columns only after retraction."""

    l: np.ndarray

    def __post_init__(self):
        self.l = linalg.as_matrix(self.l, "frame")

    @property
    def dim(self) -> int:
        return self.l.shape[0]

    @property
    def rank(self) -> int:
        return self.l.shape[1]


@dataclass
class EigRecord:
    iter: int
    proj_error: float

    @property
    def error(self) -> float:
        """The projection error, under the name ``Trace`` reads."""
        return self.proj_error


def rf_step(state: EigState, sigma, eta: float) -> EigState:
    """One retraction-free step L + eta (I - L L^T) Sigma L. ``sigma`` is a
    Target or a symmetric array."""
    op = Sigma(sigma)
    op.check_shape(state.dim)
    l = state.l
    return EigState(_step(op, l, eta, np.empty_like(l), np.empty_like(l)))


def _step(op: Sigma, l: np.ndarray, eta: float, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(l + eta Sigma l) - l (eta l^T Sigma l) written into ``out``: Sigma is
    applied once, and its product both forms the Gram and builds the base."""
    sl = op.apply(l, out=out)
    gram = l.T @ sl
    # Sigma.ascent's dense branch, inlined because the Gram needs Sigma l.
    base = np.add(l, np.multiply(eta, sl, out=sl), out=sl)
    return linalg.descent_update(base, l, eta * gram, scratch)


def retract(l_tilde) -> np.ndarray:
    """Pull a full-rank frame back onto the Stiefel manifold:
    L = L~ (L~^T L~)^(-1/2). Raises on rank-deficient input."""
    l_tilde = linalg.as_matrix(l_tilde, "frame")
    return l_tilde @ linalg.spd_inv_sqrt(l_tilde.T @ l_tilde)


def rgd_step(state: EigState, sigma, eta: float) -> EigState:
    """Retract the frame, then apply the Riemannian gradient update."""
    return rf_step(EigState(retract(state.l)), sigma, eta)


def proj_error(state: EigState, oracle: RankROracle) -> float:
    """Frobenius distance of L L^T from the rank-r projector."""
    l = state.l
    return float(np.linalg.norm(oracle.projector - l @ l.T, "fro"))


def lift_to_sym(state: EigState, target: Target) -> FactorState:
    """Map the frame to the factored iterate X = Sigma^(1/2) L."""
    if not target.is_psd:
        raise ValueError("square-root lifting needs a PSD target")
    if target.dim != state.dim:
        raise ValueError(f"target is {target.dim}-dimensional, frame is {state.dim}")
    roots = np.sqrt(np.maximum(target.eigenvalues, 0.0))
    if target.basis is None:
        return FactorState(roots[:, None] * state.l)
    half = (target.basis * roots) @ target.basis.T
    return FactorState(half @ state.l)


def _proj_error_fn(target: Target):
    """Closure for ||Pi_r - L L^T||_F via the Gram identity
    r - 2 ||B_r^T L||_F^2 + ||L^T L||_F^2, avoiding d x d products."""
    r = target.rank
    to_eigen = Sigma(target).to_eigen

    def err(l: np.ndarray) -> float:
        top = to_eigen(l)[:r]
        gram = l.T @ l
        sq = r - 2.0 * float(np.sum(top * top)) + float(np.sum(gram * gram))
        return math.sqrt(max(sq, 0.0))

    return err


def run_eig(state0: EigState, target: Target, config, method: str = "retraction_free") -> Trace:
    """Iterate the chosen eigenspace method until the projection error
    falls below the tolerance or the budget runs out.

    Parameters
    ----------
    state0 : EigState
        Initial frame (used directly by the retraction-free method; the
        retracted method orthonormalizes it each iteration).
    target : Target
        PSD target with a positive eigengap.
    config : SolverConfig
        Step size, tolerance, budget, recording cadence.
    method : str
        "retraction_free" or "rgd".

    Returns
    -------
    Trace
        EigRecords of the projection error at the recording cadence;
        ``wall_time`` measures the iteration loop only (the retraction
        included), so benchmark comparisons exclude setup.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if not target.is_psd:
        raise ValueError("eigenspace computation needs a PSD target")
    op = Sigma(target)
    op.check_shape(state0.dim)
    err_fn = _proj_error_fn(target)
    retracted = method == "rgd"
    eta, epsilon = config.eta, config.epsilon
    # Row-major whatever ``op.factor_order``: on column-major frames the
    # products round differently and the eig CSVs would change. The spare
    # buffer comes right after the frame, as in ``sym_gd.run``.
    l0 = np.array(state0.l, order="C")
    spare, scratch = np.empty_like(l0), np.empty_like(l0)

    def measure(l):
        if retracted:
            l = l @ linalg.spd_inv_sqrt(l.T @ l)
        norm = float(np.linalg.norm(l))
        err = err_fn(l)
        return l, norm, err, err <= epsilon, None

    return iterate(
        l0, spare, lambda l, _, out: _step(op, l, eta, out, scratch), measure,
        lambda t, l, err, _: EigRecord(t, err), config, EigState,
    )
