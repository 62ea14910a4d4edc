"""Order statistics used by every workload.

Percentiles are nearest-rank: the value at 1-based rank
``ceil(q / 100 * n)`` of the sorted sample.  A failed, shed or
timed-out operation enters the sample as ``inf`` (infinitely late), so
a percentile is finite only while fewer than ``(100 - q)%`` of the
operations failed.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np


def percentile(sample: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    values = np.sort(np.asarray(sample, dtype=np.float64))
    if values.size == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * values.size))
    return float(values[rank - 1])


def beyond(sample: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    values = np.asarray(sample, dtype=np.float64)
    return int(np.count_nonzero(values > percentile(values, q)))


def tail_summary(sample: Sequence[float], qs=(50.0, 90.0, 99.0, 99.9)) -> Dict[str, Dict]:
    """Each percentile with the sample count and how many lie beyond it."""
    n = len(sample)
    return {
        f"p{q:g}": {"value": percentile(sample, q), "n": n, "beyond": beyond(sample, q)}
        for q in qs
    }


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (all of them below four).

    Robust to a few stalled windows, and unlike a median it moves
    smoothly when a run's windows mix a fast and a slow mode.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("interquartile mean of an empty sample")
    cut = ordered.size // 4
    return float(ordered[cut:ordered.size - cut].mean())
