"""The one quantile estimator every repro-e2e number goes through."""

from __future__ import annotations

from typing import List


def quantile(values: List[float], p: float) -> float:
    """Linear-interpolated quantile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = p * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
