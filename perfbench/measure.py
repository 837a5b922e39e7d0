"""Pure arithmetic of the benchmark: percentiles, medians, self time.

Nothing here touches the program under test, so the self-tests in
``test_perfbench.py`` pin these rules without running a workload.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The percentile ladder reported for item latency, lowest first.
PERCENTILE_LADDER: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reportable only with this many samples beyond it.
TAIL_SAMPLES = 10


def highest_percentile(samples: int) -> Optional[float]:
    """The highest ladder percentile with at least ``TAIL_SAMPLES`` beyond it.

    ``None`` when even the median has fewer than ten samples above it
    (fewer than 20 samples in all).  p90 therefore needs 100 samples,
    p99 needs 1000.
    """
    best = None
    for pct in PERCENTILE_LADDER:
        # Integer arithmetic: samples * (100 - pct) / 100 >= TAIL_SAMPLES.
        if samples * (1000 - round(pct * 10)) >= TAIL_SAMPLES * 1000:
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of *values* (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * frac)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*.

    Intervals are clipped to ``[lo, hi]`` first; overlapping or nested
    intervals count once.
    """
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in clipped:
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(
    spans: Sequence[Tuple[float, float, Optional[int]]],
) -> List[float]:
    """Self time of every span: its duration minus what its children cover.

    *spans* are ``(start, end, parent_index)`` triples; a child names its
    parent by index into the same sequence (``None`` for a root).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _parent) in enumerate(spans):
        kids = children.get(index)
        covered = covered_length(kids, start, end) if kids else 0.0
        result.append((end - start) - covered)
    return result
