"""Per-node views of neighbour demand.

The §4 dynamic algorithm keys on *what a node believes* its neighbours'
demands are — beliefs may be perfect (an oracle), frozen (the §3 static
straw man that fails under change), or learned from periodic
advertisements (the realistic mechanism, "similar to IP routing
algorithms"). Partner-selection policies consume this interface only,
so every protocol variant can be paired with every knowledge model.

Beliefs carry an *epoch*, the way §4 keeps its order current: a routing
table is recomputed when an advert changes an entry, not per packet.
``DemandView.epoch`` is a token that stays equal for as long as every
belief the view reports is unchanged, and is ``None`` when beliefs may
move at any instant:

* :class:`OracleDemandView` — constant over a time-invariant model
  (``DemandModel.time_invariant``), else ``None``;
* :class:`SnapshotDemandView` — always constant;
* :class:`TableDemandView` — its :class:`DemandTable`'s ``version``,
  which an advert bumps only when it changes a believed value.

A :class:`NeighborRanking` orders one node's neighbours by belief and
rebuilds that order only when the epoch or the neighbour tuple moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Optional, Sequence, Tuple

from ..errors import DemandError
from .base import DemandModel

Clock = Callable[[], float]


class DemandView:
    """What one node believes about other nodes' demand."""

    __slots__ = ()

    #: Equal while every belief is unchanged; None: beliefs may move at
    #: any instant (see the module docstring).
    epoch: Optional[Hashable] = None

    def demand_of(self, node: int) -> float:
        """Believed demand of ``node`` right now."""
        raise NotImplementedError


class NeighborRanking:
    """One node's neighbours in ``(-demand, node)`` order, with their demands.

    ``order`` and ``demands`` are aligned tuples. :meth:`rank` rebuilds
    them only when it is handed a neighbour tuple other than the one they
    were built from (``Topology.neighbors`` hands out a fresh tuple after
    any edge change) or the view's epoch has moved; an epoch of ``None``
    rebuilds on every call. So under a fixed topology and unchanged
    beliefs a node reads each neighbour's demand once.

    Args:
        view: Whose beliefs order the neighbours.
    """

    __slots__ = ("view", "order", "demands", "_neighbors", "_epoch")

    def __init__(self, view: DemandView):
        self.view = view
        self.order: Tuple[int, ...] = ()
        self.demands: Tuple[float, ...] = ()
        self._neighbors: Optional[Tuple[int, ...]] = None
        self._epoch: Optional[Hashable] = None

    def rank(self, neighbors: Sequence[int]) -> Tuple[int, ...]:
        """``order`` for ``neighbors`` (distinct ids) under today's beliefs."""
        epoch = self.view.epoch
        if neighbors is self._neighbors and epoch is not None and epoch == self._epoch:
            return self.order
        if type(neighbors) is not tuple:
            # Only an immutable tuple can be recognised by identity.
            neighbors = tuple(neighbors)
        demand_of = self.view.demand_of
        ranked = sorted(
            [(demand_of(n), n) for n in neighbors], key=lambda dn: (-dn[0], dn[1])
        )
        self.order = tuple([n for _, n in ranked])
        self.demands = tuple([d for d, _ in ranked])
        self._neighbors = neighbors
        self._epoch = epoch
        return self.order


class OracleDemandView(DemandView):
    """Perfect, instantaneous knowledge of the true demand model.

    This is the knowledge model implied by the paper's §4 example
    ("if B knows about this, B starts a session with C'"). Its epoch is
    constant when the model declares itself time-invariant, else None.
    """

    __slots__ = ("model", "clock", "epoch")

    def __init__(self, model: DemandModel, clock: Clock):
        self.model = model
        self.clock = clock
        self.epoch = 0 if model.time_invariant else None

    def demand_of(self, node: int) -> float:
        return self.model.demand(node, self.clock())


class SnapshotDemandView(DemandView):
    """Demand frozen at a fixed instant — the §3 static algorithm.

    When true demand shifts after ``at_time``, this view keeps steering
    updates to yesterday's hot spots, which is exactly the failure mode
    Fig. 4 illustrates. Frozen beliefs have one epoch for ever.
    """

    epoch = 0

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
    ``version`` counts the updates that changed a believed value: a
    repeated advert refreshes ``updated_at`` and leaves it alone.
    """

    def __init__(self, default: float = 0.0):
        self.default = float(default)
        self._entries: Dict[int, TableEntry] = {}
        self.version = 0

    def update(self, node: int, value: float, now: float) -> None:
        """Record that ``node`` advertised ``value`` at time ``now``."""
        node, value = int(node), float(value)
        if value != self.believed(node):
            self.version += 1
        self._entries[node] = TableEntry(value=value, updated_at=now)

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
    """Beliefs read from an advertisement-maintained :class:`DemandTable`;
    its epoch is the table's ``version``."""

    def __init__(self, table: DemandTable):
        self.table = table

    @property
    def epoch(self) -> int:
        return self.table.version

    def demand_of(self, node: int) -> float:
        return self.table.believed(node)
