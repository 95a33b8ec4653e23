"""Order statistics for benchmark timings (stdlib only).

A tail percentile is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it; with fewer, the value is one or two outliers, not a
tail, and a run-to-run comparison of it measures luck.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (``0 <= q <= 1``), as NumPy's
    default ``np.percentile`` computes it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-quantile's rank."""
    return count - math.ceil(q * count - 1e-9)


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile, or ``None`` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)
