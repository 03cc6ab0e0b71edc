"""Summary statistics for benchmark samples."""

import math

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# ... and is at most this percentile, so that a brief slow spell of the
# host, which moves only the top few percent of a run's samples, does
# not move it.
TAIL_MAX_PCT = 90.0


def tail(samples):
    """The highest nearest-rank percentile, up to TAIL_MAX_PCT, with at
    least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count). Raises ValueError below
    2 * TAIL_BEYOND + 1 samples, where no percentile above the median
    qualifies.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        raise ValueError(f"{n} samples; a tail needs at least {2 * TAIL_BEYOND + 1}")
    rank = min(n - TAIL_BEYOND, math.ceil(TAIL_MAX_PCT * n / 100.0))
    return ordered[rank - 1], 100.0 * rank / n, n
