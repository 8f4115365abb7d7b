"""Order statistics and span self-time arithmetic used by the benchmark.

Pure functions over plain numbers, so they can be tested without running a
workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# Percentiles a tail may be reported at, lowest first. The ladder stops at
# p95, which every workload clears with room to spare, so the reported
# percentile stays the same from run to run and commit to commit; otherwise
# a faster program, finishing more items, would be judged further out.
TAIL_LADDER = (50.0, 90.0, 95.0)
# A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0..100) with linear interpolation between ranks.

    Rank 0 is the smallest value and rank n-1 the largest; p maps to rank
    p/100 * (n-1), the same convention as numpy's default.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = p * (len(ordered) - 1) / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of n ranked samples sit strictly above the p-th percentile's rank."""
    if n < 1:
        return 0
    return n - 1 - math.floor(p * (n - 1) / 100.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with MIN_BEYOND of n samples beyond it.

    Falls back to the median when even it lacks MIN_BEYOND samples beyond.
    """
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            chosen = p
    return chosen


def covered_length(intervals: Sequence[tuple[int, int]], start: int, end: int) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if min(e, end) > max(s, start)
    )
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[tuple[int, int, int]]) -> list[int]:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` holds (start, end, parent) triples; ``parent`` is the index of
    the enclosing span in the same sequence, or -1 for a root span.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end, _) in enumerate(spans):
        kids = [(spans[k][0], spans[k][1]) for k in children[index]]
        result.append(end - start - covered_length(kids, start, end))
    return result


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
