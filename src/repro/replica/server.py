"""The replica server: log + store + clock behind a service interface.

"Every node is a server that gives services to local clients. Clients
make requests to a server, and every service request is a 'read'
operation, a 'write' operation, or both." (§2) — this class is that
server. The replication agents (anti-entropy, fast update) call
:meth:`integrate` with remote writes; local clients call
:meth:`local_write` and :meth:`read`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..errors import ReplicationError
from .log import TruncationPolicy, Update, UpdateId, WriteLog
from .store import ContentStore, StoreEntry
from .timestamps import LamportClock
from .versions import SummaryVector

#: Callback fired with the list of *new* updates a server just absorbed:
#: ``listener(new_updates, source, sender)`` where ``source`` is one of
#: "client" / "session" / "fast" and ``sender`` is the peer node the
#: updates arrived from (None for local client writes).
NewUpdatesListener = Callable[[List[Update], str, Optional[int]], None]


class ReplicaServer:
    """A single replica's durable state and service operations.

    Args:
        node: The replica's id (also the origin id of its writes).
        truncation: Optional write-log truncation policy.
        default_payload_bytes: Payload size stamped on local writes
            (traffic accounting).
        history: The per-origin history the log shares with the other
            logs of its address space (None: a private one).
    """

    __slots__ = ("node", "clock", "log", "store", "default_payload_bytes",
                 "_next_seq", "_listeners", "local_writes", "reads_served")

    def __init__(
        self,
        node: int,
        truncation: Optional[TruncationPolicy] = None,
        default_payload_bytes: int = 256,
        history: Optional[Dict[int, List[Update]]] = None,
    ):
        if node < 0:
            raise ReplicationError(f"negative node id {node}")
        self.node = int(node)
        self.clock = LamportClock(self.node)
        self.log = WriteLog(policy=truncation, history=history)
        self.store = ContentStore()
        self.default_payload_bytes = int(default_payload_bytes)
        self._next_seq = 1
        self._listeners: List[NewUpdatesListener] = []
        self.local_writes = 0
        self.reads_served = 0

    # -- listeners --------------------------------------------------------

    def on_new_updates(self, listener: NewUpdatesListener) -> None:
        """Register ``listener(new_updates, source, sender)``.

        ``source`` is ``"client"``, ``"session"`` or ``"fast"`` — the
        fast-update agent uses it to trigger the step-13 push on *any*
        new arrival ("either coming from a client, or from an
        anti-entropy session"). ``sender`` is the peer the updates came
        from, so the push never bounces straight back.
        """
        self._listeners.append(listener)

    def _notify(
        self, new_updates: List[Update], source: str, sender: Optional[int]
    ) -> None:
        if not new_updates:
            return
        for listener in self._listeners:
            listener(new_updates, source, sender)

    # -- client operations ---------------------------------------------------

    def local_write(
        self,
        key: str,
        value: object,
        payload_bytes: Optional[int] = None,
    ) -> Update:
        """Apply a client write at this replica and return the update."""
        ts = self.clock.tick()
        update = Update(
            origin=self.node,
            seq=self._next_seq,
            timestamp=ts,
            key=key,
            value=value,
            payload_bytes=(
                self.default_payload_bytes if payload_bytes is None else payload_bytes
            ),
        )
        self._next_seq += 1
        added = self.log.add(update)
        if not added:
            raise ReplicationError(f"duplicate local sequence {update.uid}")
        self.store.apply(update)
        self.local_writes += 1
        self._notify([update], "client", None)
        return update

    def read(self, key: str) -> Optional[StoreEntry]:
        """Serve a client read from local state (possibly stale)."""
        self.reads_served += 1
        return self.store.read(key)

    # -- replication operations -----------------------------------------------

    def integrate(
        self, updates: Iterable[Update], source: str, sender: Optional[int] = None
    ) -> List[Update]:
        """Absorb remote writes; returns only the genuinely new ones."""
        new_updates = self.log.add_all(updates)
        if not new_updates:
            return new_updates
        witness = self.clock.witness
        apply = self.store.apply
        for update in new_updates:
            witness(update.timestamp)
            apply(update)
        self._notify(new_updates, source, sender)
        return new_updates

    def summary(self) -> SummaryVector:
        """A copy of the current summary vector (safe to ship)."""
        return self.log.summary.copy()

    def has_update(self, uid: UpdateId) -> bool:
        return self.log.has(uid)

    def missing_for(self, peer_summary: SummaryVector) -> List[Update]:
        """Writes a peer with ``peer_summary`` has not seen."""
        return self.log.updates_since(peer_summary)

    def is_consistent_with(self, other: "ReplicaServer") -> bool:
        """Mutual consistency test: same visible content on both sides."""
        return self.store.content_signature() == other.store.content_signature()
