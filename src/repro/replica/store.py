"""Last-writer-wins content store.

The paper's model is a fully replicated service: every write must reach
every replica, and replicas are *consistent* when they hold the same
content. The store applies writes from the log with last-writer-wins
conflict resolution over Lamport timestamps — concurrent writes to the
same key converge to the same winner at every replica regardless of
delivery order, which is what makes the anti-entropy substrate
convergent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .log import Update
from .timestamps import Timestamp


@dataclass(frozen=True)
class StoreEntry:
    """Current value of one key plus the write that produced it."""

    value: object
    timestamp: Timestamp
    origin: int
    seq: int


class ContentStore:
    """Key-value state derived from applied updates (LWW).

    Per key the store holds the winning :class:`Update` itself (the
    object the write log holds too, so a win allocates nothing);
    :meth:`read` shows it to clients as a :class:`StoreEntry`.
    """

    __slots__ = ("_data", "applied_count", "superseded_count")

    def __init__(self):
        self._data: Dict[str, Update] = {}
        self.applied_count = 0
        self.superseded_count = 0

    def apply(self, update: Update) -> bool:
        """Apply one update; returns True if it won (became visible)."""
        current = self._data.get(update.key)
        self.applied_count += 1
        if current is not None and current.timestamp >= update.timestamp:
            self.superseded_count += 1
            return False
        self._data[update.key] = update
        return True

    def apply_all(self, updates: Iterable[Update]) -> int:
        """Apply many updates; returns how many became visible."""
        return sum(1 for u in updates if self.apply(u))

    def read(self, key: str) -> Optional[StoreEntry]:
        """Current entry for ``key`` (None when never written)."""
        winner = self._data.get(key)
        if winner is None:
            return None
        return StoreEntry(
            value=winner.value,
            timestamp=winner.timestamp,
            origin=winner.origin,
            seq=winner.seq,
        )

    def value(self, key: str, default: object = None) -> object:
        winner = self._data.get(key)
        return default if winner is None else winner.value

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def content_signature(self) -> Tuple[Tuple[str, Timestamp], ...]:
        """Order-independent digest of visible state.

        Two replicas are mutually consistent exactly when their
        signatures are equal — used by integration tests to verify the
        paper's convergence property.
        """
        return tuple(
            sorted((key, winner.timestamp) for key, winner in self._data.items())
        )
