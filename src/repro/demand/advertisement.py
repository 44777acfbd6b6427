"""Periodic neighbour-demand advertisement (paper §4).

"We assume that every node is periodically informed of the demand of
their neighbours, in a way similar to IP routing algorithms." —
:class:`DemandAdvertiser` is that mechanism: every ``period`` time units
(with optional phase jitter so nodes do not synchronise) a node sends a
small :class:`DemandAdvert` to each physical neighbour; receivers update
their :class:`repro.demand.views.DemandTable`.

The advert is deliberately tiny (one float plus a header) — the paper's
scalability claim rests on demand dissemination being cheap.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from ..errors import DemandError
from ..port.base import Runtime
from ..port.linkstate import Channel
from .base import DemandModel
from .views import DemandTable

#: Bytes of framing per advert (addresses, type tag), plus one float64.
ADVERT_HEADER_BYTES = 20
ADVERT_VALUE_BYTES = 8


class DemandAdvert(NamedTuple):
    """Wire message: ``sender`` currently serves ``value`` requests/unit."""

    sender: int
    value: float

    kind = "demand-advert"

    def size_bytes(self) -> int:
        return ADVERT_HEADER_BYTES + ADVERT_VALUE_BYTES


class DemandAdvertiser:
    """Per-node periodic advertiser plus receiver.

    Args:
        runtime: Owning clock (a :class:`~repro.port.base.Runtime`
            or a bare :class:`~repro.sim.engine.Simulator`).
        transport: The channel adverts are sent on.
        node: This node's id.
        model: Ground-truth demand (the node knows its own demand by
            counting its clients' requests).
        table: The neighbour table to update on received adverts.
        period: Time between advert rounds (in session-time units).
        jitter: The first round fires at ``uniform(0, jitter)`` so nodes
            desynchronise; later rounds are strictly periodic.

    Call :meth:`start` once; :meth:`on_message` must be wired into the
    node's dispatch (done by
    :class:`repro.core.protocol.ReplicationNode`).
    """

    def __init__(
        self,
        runtime: Runtime,
        transport: Channel,
        node: int,
        model: DemandModel,
        table: DemandTable,
        period: float = 1.0,
        jitter: float = 1.0,
    ):
        if period <= 0:
            raise DemandError(f"advert period must be > 0, got {period}")
        if jitter < 0:
            raise DemandError(f"jitter must be >= 0, got {jitter}")
        self.runtime = runtime
        self.transport = transport
        self.node = int(node)
        self.model = model
        self.table = table
        self.period = float(period)
        self.jitter = float(jitter)
        self.rounds_sent = 0
        self.adverts_received = 0
        self._started = False
        self._stopped = False

    def start(self) -> None:
        """Schedule the first advertisement round."""
        if self._started:
            raise DemandError(f"advertiser for node {self.node} already started")
        self._started = True
        rng = self.runtime.rng.stream("advert", self.node)
        first = rng.uniform(0, self.jitter) if self.jitter else 0.0
        self.runtime.schedule_fast(first, self._round)

    def stop(self) -> None:
        """Stop advertising (replica retirement); the timer chain dies
        at its next firing."""
        self._stopped = True

    def _round(self) -> None:
        if self._stopped:
            return
        value = self.model.demand(self.node, self.runtime.now)
        advert = DemandAdvert(sender=self.node, value=value)
        for neighbor in self.transport.physical_neighbors(self.node):
            self.transport.send(self.node, neighbor, advert)
        self.rounds_sent += 1
        # Advertisement rounds run for the lifetime of the node and are
        # never cancelled, so the handle-free fast path applies.
        self.runtime.schedule_fast(self.period, self._round)

    def on_message(self, src: int, message: DemandAdvert) -> None:
        """Handle a received advert (updates the neighbour table)."""
        if not isinstance(message, DemandAdvert):
            raise DemandError(f"unexpected message {message!r}")
        self.adverts_received += 1
        self.table.update(message.sender, message.value, self.runtime.now)


def bootstrap_tables(
    network: Channel, model: DemandModel, at_time: float = 0.0
) -> Dict[int, DemandTable]:
    """Pre-populate every node's table with its neighbours' true demand.

    Gives protocols a warm start (the paper assumes nodes already know
    neighbour demand when the algorithm begins); the advertiser then
    keeps the tables fresh as demand drifts.
    """
    tables: Dict[int, DemandTable] = {}
    for node in network.topology.nodes:
        table = DemandTable()
        for neighbor in network.physical_neighbors(node):
            table.update(neighbor, model.demand(neighbor, at_time), at_time)
        tables[node] = table
    return tables
