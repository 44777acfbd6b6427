"""Per-node views of neighbour demand.

The §4 dynamic algorithm keys on *what a node believes* its neighbours'
demands are — beliefs may be perfect (an oracle), frozen (the §3 static
straw man that fails under change), or learned from periodic
advertisements (the realistic mechanism, "similar to IP routing
algorithms"). Partner-selection policies consume this interface only,
so every protocol variant can be paired with every knowledge model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from ..errors import DemandError
from .base import DemandModel

Clock = Callable[[], float]


class DemandView:
    """What one node believes about other nodes' demand."""

    __slots__ = ()

    def demand_of(self, node: int) -> float:
        """Believed demand of ``node`` right now."""
        raise NotImplementedError

    def rank(self, nodes: Iterable[int]) -> list:
        """Nodes sorted by decreasing believed demand (ties by id)."""
        nodes = [int(n) for n in nodes]
        return sorted(nodes, key=lambda n: (-self.demand_of(n), n))


class OracleDemandView(DemandView):
    """Perfect, instantaneous knowledge of the true demand model.

    This is the knowledge model implied by the paper's §4 example
    ("if B knows about this, B starts a session with C'").
    """

    __slots__ = ("model", "clock")

    def __init__(self, model: DemandModel, clock: Clock):
        self.model = model
        self.clock = clock

    def demand_of(self, node: int) -> float:
        return self.model.demand(node, self.clock())


class SnapshotDemandView(DemandView):
    """Demand frozen at a fixed instant — the §3 static algorithm.

    When true demand shifts after ``at_time``, this view keeps steering
    updates to yesterday's hot spots, which is exactly the failure mode
    Fig. 4 illustrates.
    """

    def __init__(self, model: DemandModel, nodes: Iterable[int], at_time: float = 0.0):
        self._table: Dict[int, float] = model.snapshot(nodes, at_time)
        self.at_time = at_time

    def demand_of(self, node: int) -> float:
        node = int(node)
        if node not in self._table:
            raise DemandError(f"node {node} missing from snapshot view")
        return self._table[node]


@dataclass
class TableEntry:
    """One believed demand value and when it was learned."""

    value: float
    updated_at: float


class DemandTable:
    """The per-node neighbour table of §4 ("identifying name and demand").

    Filled by :class:`repro.demand.advertisement.DemandAdvertiser`;
    also records update times so staleness can be measured.
    """

    def __init__(self, default: float = 0.0):
        self.default = float(default)
        self._entries: Dict[int, TableEntry] = {}

    def update(self, node: int, value: float, now: float) -> None:
        """Record that ``node`` advertised ``value`` at time ``now``."""
        self._entries[int(node)] = TableEntry(value=float(value), updated_at=now)

    def believed(self, node: int) -> float:
        entry = self._entries.get(int(node))
        return entry.value if entry is not None else self.default

    def staleness(self, node: int, now: float) -> Optional[float]:
        """Age of the belief about ``node``, or None if never heard."""
        entry = self._entries.get(int(node))
        return None if entry is None else now - entry.updated_at

    def known_nodes(self) -> tuple:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class TableDemandView(DemandView):
    """Beliefs read from an advertisement-maintained :class:`DemandTable`."""

    def __init__(self, table: DemandTable):
        self.table = table

    def demand_of(self, node: int) -> float:
        return self.table.believed(node)
