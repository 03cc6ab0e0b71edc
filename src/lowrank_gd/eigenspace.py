"""Leading-eigenspace computation on the Stiefel manifold, with and
without retraction.

The retraction-free iteration L <- L + eta (I - L L^T) Sigma L drives
L L^T to the projector onto the top-r eigenspace. The retracted variant
re-orthonormalizes the frame before every update and is the baseline the
wall-clock benchmark compares against. Scaling a frame by the matrix
square root of the target maps one retraction-free step onto one step of
the symmetric factored iteration, which is used as a per-step oracle.

Both methods apply the target through ``spectrum.Sigma``, read the error
and the step's Gram from its eigenbasis split (``Target.split``) and keep
their frames in the column-major buffers of ``linalg.step_buffers``;
``run_eig`` is a thin caller of the shared ``engine.iterate``.
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
    Target or a symmetric array. As in ``run_eig``, the step runs in
    ``linalg.step_buffers``, and the sandwiched ``Sigma.step_map`` is given
    the Gram L^T L, for a Target summed from its split as the error sums
    it, so a run equals repeated steps bit for bit."""
    op = Sigma(sigma)
    op.check_shape(state.dim)
    l, out = linalg.step_buffers(state.l)
    gram = np.add(*sigma.split(l)[1:]) if isinstance(sigma, Target) else l.T @ l
    return EigState(op.step_map(eta, state.rank)(l, gram, out, sandwich=True))


def retract(l_tilde) -> np.ndarray:
    """Pull a full-rank frame back onto the Stiefel manifold:
    L = L~ (L~^T L~)^(-1/2), the polar retraction (Absil, Mahony and
    Sepulchre, 2008, §4.1). Raises ValueError on a non-finite frame, a
    frame whose Gram L~^T L~ is not finite, or a rank-deficient one. The
    result is a new array in the frame's memory layout."""
    l_tilde = linalg.as_matrix(l_tilde, "frame")
    gram = l_tilde.T @ l_tilde
    if not np.isfinite(gram).all():
        raise ValueError("frame Gram L^T L has non-finite entries")
    return _retract_lean(l_tilde, gram)


def _retract_lean(l: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """The polar retraction's one core: l (l^T l)^(-1/2) given the finite
    Gram l^T l, without ``retract``'s input checks, into a new array with
    l's memory layout (column-major for a run's frame), never one of the
    run's step buffers. Raises ValueError on a rank-deficient Gram. The
    retracted loop calls this on the frame and Gram it has just formed."""
    return np.matmul(l, linalg.inv_sqrt_symmetric(gram), out=np.empty_like(l))


def rgd_step(state: EigState, sigma, eta: float) -> EigState:
    """``retract`` the frame, then apply the Riemannian gradient update.
    Both run on a copy in ``linalg.step_buffers``, as in ``run_eig``."""
    return rf_step(EigState(retract(linalg.step_buffers(state.l)[0])), sigma, eta)


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
    """Closure for ||Pi_r - L L^T||_F of an r-column frame from
    ``Target.split`` (U, rest J): with G = U^T U + J^T J, its square is
    ||I_r - G||^2 + 2 tr(J^T J) (the trace as <2 I, J^T J>, one BLAS call),
    terms that do not cancel. It returns G too, for the step and guard."""
    eye = np.eye(target.rank)
    two, split = 2.0 * eye, target.split

    def err(l: np.ndarray):
        _, gram_u, gram_j = split(l)
        gram = gram_u + gram_j
        dev = eye - gram
        return math.sqrt(np.vdot(dev, dev) + np.vdot(two, gram_j)), gram

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
        included), so benchmark comparisons exclude setup. Frames live in
        ``linalg.step_buffers``, and each step is the sandwiched
        ``Sigma.step_map`` given the error closure's Gram G = L^T L.

    Raises
    ------
    DivergenceError
        If the frame norm reaches the divergence guard, or (rgd) the frame's
        Gram is no longer finite; the partial trace rides on the exception.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if not target.is_psd:
        raise ValueError("eigenspace computation needs a PSD target")
    op = Sigma(target)
    op.check_shape(state0.dim)
    if state0.rank != target.rank:
        raise ValueError(f"frame of {state0.rank} columns does not match target rank {target.rank}")
    err_fn = _proj_error_fn(target)
    retracted = method == "rgd"
    eta, epsilon = config.eta, config.epsilon
    step = op.step_map(eta, state0.rank)
    l0, spare = linalg.step_buffers(state0.l)

    def measure(l):
        if retracted:
            gram = l.T @ l
            # A non-finite Gram skips the retraction: its trace then trips
            # the divergence guard below.
            if np.isfinite(gram).all():
                l = _retract_lean(l, gram)
        err, gram = err_fn(l)
        return l, math.sqrt(np.trace(gram)), err, err <= epsilon, gram

    return iterate(
        l0, spare, lambda l, gram, out: step(l, gram, out, sandwich=True), measure,
        lambda t, l, err, _: EigRecord(t, err), config, EigState,
    )
