"""The benchmark's own arithmetic: percentiles, span self time and the
comparison verdicts.

Everything here is a pure function of plain numbers, so
``test_perfbench.py`` checks it on synthetic inputs without a server.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: A timing percentile is reported only where at least this many samples
#: lie beyond it (choosing-metrics section 1).
TAIL_SAMPLES = 10


def tail_percentile(count: int, want: float = 99.0, beyond: int = TAIL_SAMPLES) -> Optional[float]:
    """The highest percentile, at most ``want``, with at least ``beyond``
    of ``count`` samples strictly above it; ``None`` when no percentile
    has that many (fewer than ``beyond + 1`` samples).

    Percentiles are nearest-rank (see :func:`percentile`), so percentile
    ``p`` of ``count`` samples is the sample at rank ``ceil(p/100 * count)``
    and ``count - rank`` samples lie beyond it.
    """
    if count <= beyond:
        return None
    return min(want, 100.0 * (count - beyond) / count)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: always one of the measured samples."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values: Sequence[float], want: float = 99.0) -> Tuple[Optional[float], float]:
    """``(p, value)``: the percentile :func:`tail_percentile` allows for
    this sample and its value (the maximum when the sample is too small,
    with ``p`` None so callers can flag the run)."""
    p = tail_percentile(len(values), want)
    if p is None:
        return None, max(values)
    return p, percentile(values, p)


def self_time(span: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals clipped to the parent is subtracted.
    """
    start, end = span
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in children if min(end, e) > max(start, s)
    )
    covered = 0.0
    cur_s: Optional[float] = None
    cur_e = 0.0
    for s, e in clipped:
        if cur_s is None or s > cur_e:
            if cur_s is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_s is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


def band_mean(keys: Sequence[float], rows: Sequence[Dict[str, float]], lo: float, hi: float) -> Dict[str, float]:
    """Mean of each field of ``rows`` over the rows whose key lies between
    the ``lo`` and ``hi`` percentiles of ``keys`` (inclusive)."""
    low, high = percentile(keys, lo), percentile(keys, hi)
    picked = [row for key, row in zip(keys, rows) if low <= key <= high]
    return {name: statistics.fmean(row[name] for row in picked) for name in picked[0]}


# -- comparing two sets of runs ---------------------------------------------------


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median
    (``statistics.quantiles(values, n=4)``); ``inf`` for a zero median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """Judge one end-to-end metric of one workload, base runs against
    change runs (choosing-metrics sections 6 to 8).

    * ``worse`` when every change run is worse than every base run and
      the medians differ by more than ``bound``, or when both sides are
      steady (spread within ``bound``) and the change's median is worse
      by more than ``bound``;
    * ``unresolved`` when either side's spread exceeds ``bound`` (unless
      every change run beats every base run, which reads ``better``);
    * ``better`` when the change wins at least nine tenths of the pairs
      (ties count for neither) and the medians differ by more than the
      base's own quartile distance, in the better direction;
    * ``within bound`` otherwise.

    Runs pair up in order (``base[i]`` with ``change[i]``).
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0

    def gain(b: float, c: float) -> float:  # > 0: c beats b
        return sign * (b - c)

    med_b, med_c = statistics.median(base), statistics.median(change)
    q1b, _, q3b = statistics.quantiles(base, n=4)
    q1c, _, q3c = statistics.quantiles(change, n=4)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if gain(b, c) > 0)
    losses = sum(1 for b, c in pairs if gain(b, c) < 0)
    all_better = all(gain(b, c) > 0 for b in base for c in change)
    all_worse = all(gain(b, c) < 0 for b in base for c in change)
    worse_by = -gain(med_b, med_c) / abs(med_b) if med_b else math.inf
    widest = max(spread(base), spread(change))
    if all_worse and worse_by > bound:
        label = "worse"
    elif widest > bound:
        label = "better" if all_better else "unresolved"
    elif (
        pairs
        and wins >= 0.9 * len(pairs)
        and gain(med_b, med_c) > (q3b - q1b)
    ):
        label = "better"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "within bound"
    return {
        "verdict": label,
        "base_median": med_b,
        "base_quartiles": [q1b, q3b],
        "change_median": med_c,
        "change_quartiles": [q1c, q3c],
        "change_wins": wins / len(pairs) if pairs else 0.0,
        "base_wins": losses / len(pairs) if pairs else 0.0,
        "worse_by": worse_by,
        "spread": widest,
    }

