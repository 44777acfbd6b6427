"""Summary vectors (version vectors).

A summary vector maps each *origin* replica to the highest contiguous
per-origin sequence number this replica has received from it. Two
replicas exchange summary vectors at the start of an anti-entropy
session (steps 4-6 of the paper's algorithm); each side then sends
exactly the writes whose sequence numbers exceed the partner's summary
(steps 7-11).

Contiguity matters: the vector only advances over gap-free prefixes, so
``covers(origin, seq)`` is meaningful even when fast updates (steps
13-18) have delivered newer writes out of order — those live "ahead of"
the summary inside the write log until anti-entropy fills the gap.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

from ..errors import ReplicationError

#: Serialized size: origin id (8 bytes) + sequence number (8 bytes).
ENTRY_BYTES = 16


class SummaryVector:
    """Mapping origin -> highest contiguous sequence received.

    Copies are copy-on-write: :meth:`copy` shares the entry dict and
    marks both vectors shared; the first mutation on either side
    detaches onto a private dict. Session starts copy the server summary
    for every outgoing :class:`~repro.replica.messages.SummaryMessage`,
    and most of those copies are never mutated.
    """

    __slots__ = ("_entries", "_shared")

    def __init__(self, entries: Mapping[int, int] | None = None):
        self._entries: Dict[int, int] = {}
        self._shared = False
        if entries:
            for origin, seq in entries.items():
                origin, seq = int(origin), int(seq)
                if seq < 0:
                    raise ReplicationError(f"negative sequence {seq} for {origin}")
                if seq > 0:
                    self._entries[origin] = seq

    # -- reads ------------------------------------------------------------

    def get(self, origin: int) -> int:
        """Highest contiguous sequence seen from ``origin`` (0 if none)."""
        return self._entries.get(int(origin), 0)

    def covers(self, origin: int, seq: int) -> bool:
        """Whether the write ``(origin, seq)`` is within the known prefix."""
        if seq <= 0:
            raise ReplicationError(f"sequence numbers start at 1, got {seq}")
        return seq <= self.get(origin)

    def origins(self) -> Tuple[int, ...]:
        return tuple(self._entries)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._entries.items()))

    def as_dict(self) -> Dict[int, int]:
        return dict(self._entries)

    def total_writes(self) -> int:
        """Total number of writes covered by the prefixes."""
        return sum(self._entries.values())

    def size_bytes(self) -> int:
        """Wire size when embedded in a summary message."""
        return ENTRY_BYTES * len(self._entries)

    # -- mutation -----------------------------------------------------------

    def advance(self, origin: int, seq: int) -> None:
        """Record receipt of ``(origin, seq)``; must extend the prefix by 1.

        Raises:
            ReplicationError: If ``seq`` is not exactly ``get(origin)+1``
                — the caller (the write log) is responsible for ordering.
        """
        origin = int(origin)
        expected = self.get(origin) + 1
        if seq != expected:
            raise ReplicationError(
                f"cannot advance origin {origin} to {seq}; expected {expected}"
            )
        if self._shared:
            self._detach()
        self._entries[origin] = seq

    def own_tips(self) -> Dict[int, int]:
        """The entry dict itself, detached from any copies.

        For the write log that owns this vector: folding a batch, it
        advances entries in place and itself keeps each step a +1 (the
        check :meth:`advance` would make per write). The reference is
        only good until the next :meth:`copy`.
        """
        if self._shared:
            self._detach()
        return self._entries

    def merge(self, other: "SummaryVector") -> None:
        """Elementwise maximum (used for ack vectors, not data receipt)."""
        if self._shared:
            self._detach()
        entries = self._entries
        for origin, seq in other._entries.items():
            if seq > entries.get(origin, 0):
                entries[origin] = seq

    def copy(self) -> "SummaryVector":
        view = SummaryVector.__new__(SummaryVector)
        view._entries = self._entries
        view._shared = True
        self._shared = True
        return view

    def _detach(self) -> None:
        self._entries = dict(self._entries)
        self._shared = False

    def __getstate__(self):
        # Pickled vectors (cross-process messages) carry their own dict.
        return dict(self._entries)

    def __setstate__(self, state) -> None:
        self._entries = state
        self._shared = False

    # -- comparison -----------------------------------------------------------

    def dominates(self, other: "SummaryVector") -> bool:
        """True when this vector is >= the other on every origin."""
        return all(self.get(origin) >= seq for origin, seq in other._entries.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SummaryVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._entries.items())))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{o}:{s}" for o, s in sorted(self._entries.items()))
        return f"SummaryVector({{{inner}}})"


def elementwise_min(vectors: Iterable[SummaryVector]) -> SummaryVector:
    """The ack vector: what *every* replica in ``vectors`` has received.

    Writes covered by this vector are safe to purge from write logs
    (Golding's log-truncation rule; see
    :class:`repro.replica.log.AckedTruncation`).
    """
    vectors = list(vectors)
    if not vectors:
        return SummaryVector()
    origins = set()
    for vec in vectors:
        origins.update(vec.origins())
    return SummaryVector(
        {origin: min(vec.get(origin) for vec in vectors) for origin in origins}
    )
