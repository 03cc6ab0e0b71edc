"""The iteration driver the three solvers share.

``iterate`` owns the timed loop, the divergence guard, the record cadence
and termination; each solver supplies how to measure, record and step its
raw iterate (an array, or a tuple of arrays for the two-factor problem).
Every run returns one ``Trace`` type.
"""

import math
import numbers
import time
from dataclasses import dataclass


# Iterates whose Frobenius norm reaches this are treated as diverged. The
# solver fails loudly instead of overflowing when users pass step sizes
# far above the theoretical bound.
DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """An iterate exceeded the divergence guard. Carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass
class SolverConfig:
    eta: float
    epsilon: float
    max_iters: int
    record_every: int = 1

    def __post_init__(self):
        # Written so that NaN fails every comparison and is rejected.
        if not 0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        for name in ("max_iters", "record_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class Trace:
    """Recorded history of a run plus its outcome. Every record has
    ``iter`` and ``error`` attributes; the last one is the terminal one.
    ``final_state`` is None when a diverged iterate is not finite, as the
    solvers' state types reject one."""

    records: list
    converged: bool
    iterations: int
    final_error: float
    wall_time: float
    final_state: object

    def iterations_to(self, tol: float):
        """First recorded iteration whose error is <= tol, or None."""
        for rec in self.records:
            if rec.error <= tol:
                return rec.iter
        return None

    @property
    def final_balance(self) -> float:
        """Balance gap at termination (two-factor runs)."""
        return self.records[-1].balance


def iterate(x, spare, step, measure, record, config: SolverConfig, wrap) -> Trace:
    """Run ``x <- step(x, aux, spare)`` until the stopping rule holds, the
    budget ``config.max_iters`` runs out, or the iterate diverges.

    ``step`` writes the next iterate into ``spare`` (shaped like ``x``,
    never aliasing it) and returns it; the previous iterate becomes the
    next ``spare``, so a run steps in two buffers that trade places. Each
    pass calls ``measure(x)``, which returns ``(x, norm, error, done,
    aux)``: the iterate to record and step from (the retracted eigenspace
    method retracts here), the norm the divergence guard checks, the
    error, whether the stopping rule holds, and whatever ``step`` and
    ``record`` reuse. ``record(t, x, error, aux)`` builds one record every
    ``config.record_every`` iterations and at termination; on a diverged
    pass the iterate may hold inf or NaN, and ``record`` must still build
    its record. ``wrap`` turns the final raw iterate into the solver's
    state type, or raises ValueError when that iterate is not finite.
    ``wall_time`` covers the loop only.

    Raises DivergenceError, carrying the trace so far, when the norm
    reaches DIVERGENCE_LIMIT or is NaN.
    """
    records = []
    t = 0
    start = time.perf_counter()
    while True:
        x, norm, err, done, aux = measure(x)
        diverged = not norm < DIVERGENCE_LIMIT  # also catches a NaN norm
        terminal = diverged or done or t >= config.max_iters
        if t % config.record_every == 0 or terminal:
            records.append(record(t, x, err, aux))
        if terminal:
            break
        x, spare = step(x, aux, spare), x
        t += 1
    wall = time.perf_counter() - start
    if not diverged:
        return Trace(records, done, t, err, wall, wrap(x))
    try:
        final = wrap(x)
    except ValueError:  # an overflowed iterate
        final = None
    raise DivergenceError(
        f"iterate norm {norm:.3e} reached the divergence guard at iteration {t}",
        Trace(records, False, t, err, wall, final),
    )
