"""Small, crash-free statistics helpers for benchmark samples.

Every helper accepts an empty sample and returns NaN instead of
raising, so a workload that produced no samples for one metric (a
layer it never reaches) yields a visible NaN rather than a crash.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.serve import metrics


def median(values: Iterable[float]) -> float:
    """Median of ``values`` (mean of the middle two for an even count),
    NaN when empty."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]), NaN when empty.

    The program's own latency reports use the same function, so the
    benchmark and the service tables agree on the same sample.
    """
    ordered = list(values)
    if not ordered:
        return math.nan
    return float(metrics.percentile(ordered, q))


def ratio(num: float, den: float) -> float:
    """``num / den``, NaN when the denominator is zero."""
    if den == 0:
        return math.nan
    return num / den


def finite_or_zero(value: float) -> float:
    """Report value for a metric: NaN (no samples, as for a layer the
    workload never reaches) becomes 0.0, because the JSON result admits
    only numbers."""
    return 0.0 if math.isnan(value) else value
