"""ReplicationTracker: when each replica applied each live update.

:class:`~repro.runtime.cluster.ReplicaCluster` reports put→replicated
latency, so it keeps every update's apply stamps until all replicas have
applied it, and up to ``track_limit`` fully replicated ones after that.
One ``array('d')`` row per update holds them, in the layout of the
simulator's apply-time matrix (:mod:`repro.core.system`):

* cell 0 counts the replicas that applied the update;
* cell 1 is the put stamp, NaN until the put returns;
* cell 2 + i is the stamp of the i-th replica in node-id order, NaN
  until that replica applies the update.

Every stamp is a ``time.monotonic()`` reading; the cluster turns them
into protocol units only when read.  Waiters block on one
``threading.Condition`` over the cluster's lock, notified at a
completion only while a waiter is counted, so no update allocates a
synchronisation object of its own.
"""

from __future__ import annotations

import collections
import threading
import time
from array import array
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..replica.log import UpdateId
from ..telemetry.registry import MetricRegistry

#: Cells of a row: applied count, put stamp, then one per replica.
_COUNT, _PUT, _FIRST_NODE = 0, 1, 2

_NAN = float("nan")


class ReplicationTracker:
    """Apply stamps per update, completion waits and latency telemetry.

    Args:
        node_ids: Every replica of the cluster; an update is fully
            replicated once each of them applied it.
        lock: The lock guarding this state (the cluster's own); every
            method takes it.
        track_limit: How many fully replicated updates keep their row.
        telemetry: Registry that receives the ``cluster.puts`` and
            ``cluster.updates_replicated`` counters and the
            put-to-replicated seconds (moments and sketch).
        transport: Label value of those series.
    """

    def __init__(
        self,
        node_ids: List[int],
        lock: threading.Lock,
        track_limit: int,
        telemetry: MetricRegistry,
        transport: str,
    ):
        self._lock = lock
        self._replicated_cond = threading.Condition(lock)
        #: Threads inside :meth:`wait_replicated`; completions notify
        #: only while there is one.
        self._waiters = 0
        self._n = len(node_ids)
        self._columns = {node: cell for cell, node in enumerate(node_ids, _FIRST_NODE)}
        self._blank = array("d", [0.0, _NAN] + [_NAN] * self._n)
        self._rows: Dict[UpdateId, array] = {}
        self._track_limit = track_limit
        #: Fully replicated uids in completion order (eviction queue).
        self._completed_order: Deque[UpdateId] = collections.deque()
        #: Per-origin highest sequence number ever evicted; lets
        #: wait_replicated answer True for evicted updates without
        #: keeping per-uid state (bounded by the node count).
        self._evicted_seq: Dict[object, int] = {}
        #: time.monotonic() of the most recent full replication.
        self.last_completion: Optional[float] = None
        self.puts = telemetry.counter("cluster.puts", transport=transport)
        self.replicated = telemetry.counter(
            "cluster.updates_replicated", transport=transport
        )
        self._latency_moments = telemetry.moments(
            "cluster.replication_latency", transport=transport
        )
        self._latency_sketch = telemetry.sketch(
            "cluster.replication_latency.sketch", transport=transport
        )

    def __len__(self) -> int:
        """Updates holding a row (``updates_tracked``)."""
        return len(self._rows)

    def record(self, node: int, pairs: Iterable[Tuple[UpdateId, float]]) -> None:
        """A host's report: ``node`` applied each ``(uid, stamp)``.

        The first application wins: a duplicate or replayed report moves
        neither a stamp nor the count, and one for an evicted update is
        dropped.
        """
        cell = self._columns[node]
        with self._lock:
            rows, n = self._rows, self._n
            for uid, stamp in pairs:
                row = rows.get(uid)
                if row is None:
                    if self._evicted_locked(uid):
                        continue
                    row = rows[uid] = self._blank[:]
                if row[cell] == row[cell]:  # not NaN: applied before
                    continue
                row[cell] = stamp
                row[_COUNT] += 1.0
                if row[_COUNT] == n:
                    self._complete_locked(uid, row)

    def _complete_locked(self, uid: UpdateId, row: array) -> None:
        self._completed_order.append(uid)
        self.last_completion = time.monotonic()
        self.replicated.inc()
        if row[_PUT] == row[_PUT]:
            self._fold_latency_locked(row)
        self._evict_locked()
        if self._waiters:
            self._replicated_cond.notify_all()

    def note_put(self, uid: UpdateId, t0: float) -> None:
        """Count one put and keep its stamp ``t0`` for the latency."""
        with self._lock:
            self.puts.inc()
            row = self._rows.get(uid)
            if row is None:
                return  # replicated and evicted before its put returned
            row[_PUT] = t0
            if row[_COUNT] == self._n:
                # Replicated before its put returned: fold the latency now.
                self._fold_latency_locked(row)

    def _fold_latency_locked(self, row: array) -> None:
        # Folded once per update, at completion or at its put, whichever
        # is later — before eviction can drop the row, so the telemetry
        # keeps the full latency distribution even when the per-uid
        # records are long gone.
        seconds = max(row[_FIRST_NODE:]) - row[_PUT]
        self._latency_moments.add(seconds)
        self._latency_sketch.add(seconds)

    def _evict_locked(self) -> None:
        """Drop the rows of the oldest fully replicated updates beyond
        ``track_limit``."""
        while len(self._completed_order) > self._track_limit:
            uid = self._completed_order.popleft()
            origin, seq = uid
            if seq > self._evicted_seq.get(origin, -1):
                self._evicted_seq[origin] = seq
            del self._rows[uid]

    def _evicted_locked(self, uid: UpdateId) -> bool:
        """Whether an untracked ``uid`` completed and was evicted.

        Every put applies at its origin at once and reports in order, so
        an update at or below its origin's eviction watermark that holds
        no row is one that was evicted, not one still to come.
        """
        origin, seq = uid
        return seq <= self._evicted_seq.get(origin, -1)

    def _replicated_locked(self, uid: UpdateId) -> bool:
        row = self._rows.get(uid)
        if row is None:
            return self._evicted_locked(uid)
        return row[_COUNT] == self._n

    def wait_replicated(self, uid: UpdateId, timeout: Optional[float] = None) -> bool:
        """Block until ``uid`` reached every replica; False on timeout.

        An evicted update returns True at once; an unknown one waits for
        its reports and returns False if none complete it in time.
        """
        with self._replicated_cond:
            self._waiters += 1
            try:
                return self._replicated_cond.wait_for(
                    lambda: self._replicated_locked(uid), timeout
                )
            finally:
                self._waiters -= 1

    def apply_stamps(self, uid: UpdateId) -> Dict[int, float]:
        """First-application stamp per node ({} once evicted)."""
        with self._lock:
            row = self._rows.get(uid)
            if row is None:
                return {}
            return {
                node: row[cell]
                for node, cell in self._columns.items()
                if row[cell] == row[cell]
            }

    def replication_latency(self, uid: UpdateId) -> Optional[float]:
        """Seconds from the put stamp to the last replica's apply; None
        while incomplete, without a put stamp, or evicted."""
        with self._lock:
            row = self._rows.get(uid)
            if row is None or row[_COUNT] < self._n or row[_PUT] != row[_PUT]:
                return None
            return max(row[_FIRST_NODE:]) - row[_PUT]

    def latency_quantile(self, p: float) -> Optional[float]:
        """Streaming quantile of put-to-replicated seconds (None while
        no put has fully replicated)."""
        with self._lock:
            if not self._latency_sketch.count:
                return None
            return self._latency_sketch.quantile(p)
