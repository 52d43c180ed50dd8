"""Order statistics shared by the runner and the compare step."""
from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values) -> dict | None:
    """The highest percentile that still has ``TAIL_BEYOND`` samples beyond
    it: the (TAIL_BEYOND + 1)-th largest sample, with its percentile rank and
    the sample count.  None when there are too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return {"value": ordered[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n,
            "n": n}

