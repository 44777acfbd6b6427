"""Acknowledgement tables for safe write-log truncation.

Golding's TSAE purges a write from the log once *every* replica is known
to have received it. Each node therefore gossips a table mapping every
replica to (its last known summary vector, the logical time it was
observed); the elementwise minimum over a *complete* table is the ack
vector — writes it covers are globally stable and can be purged.

The table rides along with anti-entropy sessions (piggybacked on the
summary exchange) so acknowledgement knowledge spreads epidemically,
exactly like the data itself. Safety properties:

* A node missing from the table contributes an implicit zero vector, so
  :meth:`AckTable.ack_vector` returns nothing purgeable until the node
  has heard (transitively) from everyone.
* Summary vectors only grow, so merging tables by pointwise domination
  never regresses knowledge.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from ..errors import ReplicationError
from .versions import ENTRY_BYTES, SummaryVector, elementwise_min


class AckEntry(NamedTuple):
    """What one replica was last known to have received."""

    summary: SummaryVector
    observed_at: float


class AckTable:
    """Per-node knowledge of every replica's summary vector.

    Args:
        owner: The node this table belongs to.
        population: All replica ids that must acknowledge before
            anything may be purged.
    """

    def __init__(self, owner: int, population: Iterable[int]):
        self.owner = int(owner)
        self.population = frozenset(int(n) for n in population)
        if self.owner not in self.population:
            raise ReplicationError(
                f"owner {owner} not part of the replica population"
            )
        self._entries: Dict[int, AckEntry] = {}

    # -- updates ----------------------------------------------------------

    def observe(self, node: int, summary: SummaryVector, at: float) -> None:
        """Record that ``node`` held ``summary`` at time ``at``.

        Older or dominated observations never replace newer knowledge:
        summaries only grow, so the pointwise-larger vector wins.
        """
        node = int(node)
        if node not in self.population:
            raise ReplicationError(f"node {node} outside the replica population")
        current = self._entries.get(node)
        if current is None:
            self._entries[node] = AckEntry(summary.copy(), at)
            return
        if summary.dominates(current.summary):
            self._entries[node] = AckEntry(summary.copy(), max(at, current.observed_at))
        elif current.summary.dominates(summary):
            return
        else:
            # Incomparable (can happen transiently with out-of-order
            # gossip): keep the pointwise maximum, which both dominate.
            merged = current.summary.copy()
            merged.merge(summary)
            self._entries[node] = AckEntry(merged, max(at, current.observed_at))

    def merge(self, other: "AckTable") -> None:
        """Absorb a peer's table (pointwise-dominating entries win)."""
        for node, entry in other._entries.items():
            self.observe(node, entry.summary, entry.observed_at)

    # -- queries ------------------------------------------------------------

    def entry(self, node: int) -> Optional[AckEntry]:
        return self._entries.get(int(node))

    def is_complete(self) -> bool:
        """Whether every replica in the population has been observed."""
        return set(self._entries) == set(self.population)

    def ack_vector(self) -> SummaryVector:
        """Writes acknowledged by everyone (empty until complete)."""
        if not self.is_complete():
            return SummaryVector()
        return elementwise_min(e.summary for e in self._entries.values())

    def size_bytes(self) -> int:
        """Wire size when piggybacked: node id + time + vector each."""
        return sum(
            16 + entry.summary.size_bytes() for entry in self._entries.values()
        )

    def snapshot(self) -> Dict[int, Tuple[Dict[int, int], float]]:
        """Plain-data view (tests, persistence)."""
        return {
            node: (entry.summary.as_dict(), entry.observed_at)
            for node, entry in self._entries.items()
        }

    def copy(self) -> "AckTable":
        """Independent copy (what goes on the wire — the sender's table
        keeps evolving while the message is in flight)."""
        dup = AckTable(self.owner, self.population)
        for node, entry in self._entries.items():
            dup._entries[node] = AckEntry(entry.summary.copy(), entry.observed_at)
        return dup
