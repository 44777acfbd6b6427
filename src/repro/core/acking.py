"""Ack-vector maintenance: safe write-log truncation in the protocol.

Golding's rule: a write may leave the log once *every* replica has
acknowledged it. :class:`AckManager` implements the machinery at one
node:

* it keeps an :class:`repro.replica.acks.AckTable` (everyone's last
  known summary vector), seeded with the node's own summary;
* the anti-entropy agent piggybacks a snapshot of the table on its
  summary messages and feeds received summaries/tables back in, so
  acknowledgement knowledge spreads epidemically with the data;
* after each completed session the manager recomputes the ack vector
  (elementwise minimum over a complete table) and purges the log.

With a lagging or crashed replica the table's minimum stalls, purging
stops, and the log grows — the safety/storage trade-off the paper's
related-work section attributes to Bayou's truncation policies.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..port.base import Runtime
from ..replica.acks import AckTable
from ..replica.log import AckedTruncation
from ..replica.server import ReplicaServer
from ..replica.versions import SummaryVector


class AckManager:
    """Tracks acknowledgements and purges one node's write log."""

    def __init__(self, runtime: Runtime, server: ReplicaServer, population: Iterable[int]):
        self.runtime = runtime
        self.server = server
        self.policy = AckedTruncation()
        server.log.policy = self.policy
        self.table = AckTable(server.node, population)
        self._refresh_own()
        self.total_purged = 0

    def _refresh_own(self) -> None:
        self.table.observe(self.server.node, self.server.summary(), self.runtime.now)

    # -- wire integration ---------------------------------------------------

    def wire_table(self) -> AckTable:
        """Snapshot to piggyback on an outgoing summary message."""
        self._refresh_own()
        return self.table.copy()

    def observe_peer(
        self,
        peer: int,
        summary: SummaryVector,
        table: Optional[AckTable],
    ) -> None:
        """Fold a received summary (and optional ack table) in."""
        self.table.observe(peer, summary, self.runtime.now)
        if table is not None:
            self.table.merge(table)

    # -- purging ---------------------------------------------------------------

    def after_session(self) -> int:
        """Recompute the ack vector and purge; returns entries removed."""
        self._refresh_own()
        ack = self.table.ack_vector()
        self.policy.ack_vector = ack
        removed = self.server.log.purge()
        if removed:
            self.total_purged += removed
            trace = self.runtime.trace
            if trace.wants("log.purge"):
                trace.record(
                    self.runtime.now,
                    "log.purge",
                    node=self.server.node,
                    removed=removed,
                    acked=ack.total_writes(),
                )
        return removed
