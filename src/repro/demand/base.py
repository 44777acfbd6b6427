"""Demand model interface.

"Demand" in the paper is the number of client service requests a replica
receives per unit of time (§2). Everything the algorithms see of demand
goes through :class:`DemandModel.demand(node, time)`, so static and
time-varying models are interchangeable.

A model that sets ``time_invariant`` promises that ``demand(node, t)``
never depends on ``t`` and never changes after construction. Views then
give its beliefs one epoch for ever (:mod:`repro.demand.views`), and
nodes rank their neighbours once, so mutating such a model mid-run (say,
``ExplicitDemand.table``) is unsupported: wrap it in a time-varying
model instead. Every model defaults to ``False``, which is always safe.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import DemandError


class DemandModel:
    """Base class: a (node, time) -> requests-per-time-unit function."""

    #: True: values fixed at construction (see the module docstring).
    time_invariant = False

    def demand(self, node: int, time: float) -> float:
        """Demand of ``node`` at simulated ``time`` (requests per unit)."""
        raise NotImplementedError

    # -- conveniences shared by all models --------------------------------

    def snapshot(self, nodes: Iterable[int], time: float = 0.0) -> Dict[int, float]:
        """Evaluate the model for many nodes at one instant."""
        return {int(n): self.demand(int(n), time) for n in nodes}

    def ranked(self, nodes: Iterable[int], time: float = 0.0) -> List[int]:
        """Nodes sorted by decreasing demand (ties by id for determinism)."""
        snap = self.snapshot(nodes, time)
        return sorted(snap, key=lambda n: (-snap[n], n))

    def top_fraction(
        self, nodes: Sequence[int], fraction: float, time: float = 0.0
    ) -> List[int]:
        """The ``fraction`` (0..1] of nodes with the highest demand.

        Used to define the "high demand" replica subset of Figs. 5-6
        (the *Consistency high demand* curve).
        """
        if not 0 < fraction <= 1:
            raise DemandError(f"fraction must be in (0, 1], got {fraction}")
        ranked = self.ranked(nodes, time)
        count = max(1, round(len(ranked) * fraction))
        return ranked[:count]

    def total(self, nodes: Iterable[int], time: float = 0.0) -> float:
        """Sum of demand over ``nodes`` at ``time``."""
        return sum(self.snapshot(nodes, time).values())


def validate_demand_value(value: float, node: int) -> float:
    """Demands must be finite and non-negative."""
    value = float(value)
    if value < 0 or value != value or value in (float("inf"), float("-inf")):
        raise DemandError(f"invalid demand {value!r} for node {node}")
    return value


def normalize_snapshot(
    snapshot: Dict[int, float], target_total: float
) -> Dict[int, float]:
    """Scale a demand snapshot so its values sum to ``target_total``.

    Keeps relative demand (what the algorithms use) while letting
    request-satisfaction metrics be compared across demand models.
    """
    if target_total <= 0:
        raise DemandError(f"target_total must be positive, got {target_total}")
    current = sum(snapshot.values())
    if current <= 0:
        # All-zero demand: spread the target uniformly.
        if not snapshot:
            return {}
        share = target_total / len(snapshot)
        return {n: share for n in snapshot}
    scale = target_total / current
    return {n: v * scale for n, v in snapshot.items()}


def demand_percentile(
    snapshot: Dict[int, float], percentile: float
) -> float:
    """Value below which ``percentile`` (0..100) of demands fall."""
    if not snapshot:
        raise DemandError("empty snapshot")
    if not 0 <= percentile <= 100:
        raise DemandError(f"percentile must be in [0, 100], got {percentile}")
    values = sorted(snapshot.values())
    if percentile == 100:
        return values[-1]
    index = percentile / 100 * (len(values) - 1)
    low = int(index)
    high = min(low + 1, len(values) - 1)
    weight = index - low
    return values[low] * (1 - weight) + values[high] * weight
