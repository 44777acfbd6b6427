"""Logical timestamps for the replication substrate.

Golding's timestamped anti-entropy (the paper's weak-consistency
baseline, [7]) orders every write with a timestamp; replicas compare
"summary timestamps" to decide which messages the partner has not seen
(§2.1 steps 7 and 10). We use Lamport pairs ``(counter, node)`` — a
total order that respects causality of observed events and never needs
synchronised wall clocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReplicationError


@dataclass(frozen=True, order=True)
class Timestamp:
    """A Lamport timestamp: ``(counter, node)``, totally ordered.

    The node id breaks counter ties, so two distinct events never have
    equal timestamps unless they are the same (origin, counter) pair.
    """

    counter: int
    node: int

    def __post_init__(self) -> None:
        if self.counter < 0:
            raise ReplicationError(f"negative timestamp counter {self.counter}")
        if self.node < 0:
            raise ReplicationError(f"negative node id {self.node}")

    def next_for(self, node: int) -> "Timestamp":
        """The timestamp a write at ``node`` gets after observing this."""
        return Timestamp(counter=self.counter + 1, node=node)


#: The timestamp smaller than every real one.
ZERO = Timestamp(counter=0, node=0)


class LamportClock:
    """Per-node Lamport clock.

    ``tick()`` stamps a local event; ``witness(ts)`` merges a remote
    timestamp so later local events order after everything the node has
    seen.
    """

    __slots__ = ("node", "_counter")

    def __init__(self, node: int):
        if node < 0:
            raise ReplicationError(f"negative node id {node}")
        self.node = int(node)
        self._counter = 0

    @property
    def counter(self) -> int:
        return self._counter

    def tick(self) -> Timestamp:
        """Advance the clock and return a fresh timestamp."""
        self._counter += 1
        return Timestamp(counter=self._counter, node=self.node)

    def witness(self, ts: Timestamp) -> None:
        """Absorb a remote timestamp (clock jumps forward if needed)."""
        if ts.counter > self._counter:
            self._counter = ts.counter

    def peek(self) -> Timestamp:
        """Current time without advancing (not unique across calls)."""
        return Timestamp(counter=self._counter, node=self.node)
