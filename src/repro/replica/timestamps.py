"""Logical timestamps for the replication substrate.

Golding's timestamped anti-entropy (the paper's weak-consistency
baseline, [7]) orders every write with a timestamp; replicas compare
"summary timestamps" to decide which messages the partner has not seen
(§2.1 steps 7 and 10). We use Lamport pairs ``(counter, node)`` — a
total order that respects causality of observed events and never needs
synchronised wall clocks.
"""

from __future__ import annotations

import copyreg

from ..errors import ReplicationError


class Timestamp:
    """A Lamport timestamp: ``(counter, node)``, totally ordered.

    The node id breaks counter ties, so two distinct events never have
    equal timestamps unless they are the same (origin, counter) pair.

    Immutable and slotted: one is made per write, so it carries no
    ``__dict__``. It pickles to the bytes it did as a frozen dataclass
    (``copyreg.__newobj__`` and a state dict), which pinned read replies
    on the wire depend on.
    """

    __slots__ = ("counter", "node")

    def __init__(self, counter: int, node: int):
        if counter < 0:
            raise ReplicationError(f"negative timestamp counter {counter}")
        if node < 0:
            raise ReplicationError(f"negative node id {node}")
        _set_counter(self, counter)
        _set_node(self, node)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Timestamp(counter={self.counter!r}, node={self.node!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Timestamp:
            return self.counter == other.counter and self.node == other.node
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.counter, self.node))

    # Order on (counter, node), compared field by field: a write's
    # timestamp is compared at every replica it reaches.
    def __lt__(self, other: "Timestamp") -> bool:
        if other.__class__ is Timestamp:
            counter = self.counter
            return counter < other.counter or (
                counter == other.counter and self.node < other.node
            )
        return NotImplemented

    def __le__(self, other: "Timestamp") -> bool:
        if other.__class__ is Timestamp:
            counter = self.counter
            return counter < other.counter or (
                counter == other.counter and self.node <= other.node
            )
        return NotImplemented

    def __gt__(self, other: "Timestamp") -> bool:
        if other.__class__ is Timestamp:
            counter = self.counter
            return counter > other.counter or (
                counter == other.counter and self.node > other.node
            )
        return NotImplemented

    def __ge__(self, other: "Timestamp") -> bool:
        if other.__class__ is Timestamp:
            counter = self.counter
            return counter > other.counter or (
                counter == other.counter and self.node >= other.node
            )
        return NotImplemented

    def __reduce_ex__(self, protocol: int):
        return (
            copyreg.__newobj__,
            (Timestamp,),
            {"counter": self.counter, "node": self.node},
        )

    def __setstate__(self, state: dict) -> None:
        _set_counter(self, state["counter"])
        _set_node(self, state["node"])

    def next_for(self, node: int) -> "Timestamp":
        """The timestamp a write at ``node`` gets after observing this."""
        return Timestamp(counter=self.counter + 1, node=node)


# Slot setters that bypass the refusing ``__setattr__``.
_set_counter = Timestamp.counter.__set__
_set_node = Timestamp.node.__set__


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
