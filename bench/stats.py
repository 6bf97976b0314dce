"""Order statistics and span self-time arithmetic for the benchmark runner.

Pure Python on purpose: the self-test checks these without importing numpy
or mixlr.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 <= q <= 1), interpolating linearly between ranks.

    Matches numpy's default ("linear") method: rank (n - 1) * q of the
    sorted values.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    parents[i] is the index of span i's parent, or -1 for a root. Spans
    of one thread nest, so children never overlap one another and each
    child lies inside its parent; the children's durations then add up to
    the covered part of the parent.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out
