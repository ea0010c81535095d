"""Order statistics the benchmark reports, each with its sample count."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(values: Sequence[float], p: float) -> Dict[str, float]:
    """Nearest-rank ``p``-th percentile of ``values`` with its support.

    Returns ``{"value", "count", "beyond"}``: ``count`` is the sample
    size and ``beyond`` the number of samples strictly above the
    reported value, so a reader can tell whether a tail percentile rests
    on enough samples (the benchmark gates only on percentiles with at
    least ten samples beyond them).
    """
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    return {"value": value, "count": len(ordered), "beyond": beyond}


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))
