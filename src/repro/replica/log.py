"""Write logs with truncation policies.

Every replica stores the writes it knows in a log ordered per origin.
The log is the source of truth for anti-entropy ("send the messages the
partner has not seen") and absorbs out-of-order arrivals from the fast
update path, holding them *ahead* of the summary prefix until the gap
fills.

The store is indexed the way Bayou-family systems keep their logs:
per-origin contiguous arrays and no map from id to entry — an origin
numbers its writes densely, so ``(origin, seq)`` is already an address.
``updates_since`` — the inner loop of every anti-entropy session (paper
§2.1 steps 7/10) — slices per-origin suffixes in O(missing + origins)
instead of scanning and re-sorting the whole log, which is what lets
long-horizon runs keep a constant per-session cost as logs grow. The
logs of one address space share one history per origin
(:attr:`repro.runtime.base.Runtime.histories`); each reads it cut at its
own summary tip and copies its live slices out when it first purges.

Truncation policies implement the Bayou-inspired policy family the
paper's related-work section discusses ("how aggressively to truncate
the write-log"): keep everything, bound the entry count, or purge writes
acknowledged by every replica (Golding's ack-vector rule).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ReplicationError
from .timestamps import Timestamp
from .versions import SummaryVector

#: (origin, sequence) — the globally unique id of a write.
UpdateId = Tuple[int, int]

#: Wire overhead of one update beyond its payload: origin + seq +
#: timestamp (16) + key length field.
UPDATE_HEADER_BYTES = 36


@dataclass(frozen=True)
class Update:
    """One replicated write operation.

    Attributes:
        origin: Replica where the client performed the write.
        seq: Per-origin sequence number (1-based, dense).
        timestamp: Lamport timestamp for last-writer-wins ordering.
        key: Data item written.
        value: New value (opaque to the protocol).
        payload_bytes: Simulated payload size for traffic accounting.
    """

    origin: int
    seq: int
    timestamp: Timestamp
    key: str
    value: object = None
    payload_bytes: int = 256

    def __post_init__(self) -> None:
        if self.seq <= 0:
            raise ReplicationError(f"sequence numbers start at 1, got {self.seq}")
        if self.payload_bytes < 0:
            raise ReplicationError(f"negative payload {self.payload_bytes}")

    @cached_property
    def uid(self) -> UpdateId:
        """``(origin, seq)``, built once per write.

        Every offer naming the write, and the system's apply-time table,
        then hold a reference to this one tuple, not a copy of their own
        (logs and push-depth tables go by ``origin`` and ``seq``).
        """
        return (self.origin, self.seq)

    def __getstate__(self) -> Dict[str, object]:
        # uid is derived state: a frame carries the six fields only and
        # the receiver rebuilds the tuple on first use.
        state = self.__dict__.copy()
        state.pop("uid", None)
        return state

    def size_bytes(self) -> int:
        return UPDATE_HEADER_BYTES + len(self.key) + self.payload_bytes


# ---------------------------------------------------------------------------
# Truncation policies
# ---------------------------------------------------------------------------


class TruncationPolicy:
    """Decides which log entries may be discarded."""

    def purgeable(self, log: "WriteLog") -> List[UpdateId]:
        """Update ids that can be removed right now."""
        raise NotImplementedError


class KeepAll(TruncationPolicy):
    """Never purge (the default for the paper's experiments)."""

    def purgeable(self, log: "WriteLog") -> List[UpdateId]:
        return []


@dataclass
class MaxEntries(TruncationPolicy):
    """Keep at most ``limit`` entries, purging the oldest timestamps.

    The "aggressive" end of Bayou's spectrum; peers that fall behind a
    purged prefix would need a full state transfer, which
    :meth:`WriteLog.can_serve` exposes to the session layer.
    """

    limit: int = 1000

    def purgeable(self, log: "WriteLog") -> List[UpdateId]:
        if self.limit < 0:
            raise ReplicationError(f"negative limit {self.limit}")
        excess = len(log) - self.limit
        if excess <= 0:
            return []
        # nsmallest is documented equivalent to sorted(...)[:n] (stable),
        # but costs O(n log k) instead of sorting the whole log.
        oldest = heapq.nsmallest(excess, log.all_updates(), key=lambda u: u.timestamp)
        return [u.uid for u in oldest]


@dataclass
class AckedTruncation(TruncationPolicy):
    """Purge writes acknowledged by every replica (ack vector rule).

    ``ack_vector`` must be maintained by the caller — typically the
    elementwise minimum of all known summaries
    (:func:`repro.replica.versions.elementwise_min`).
    """

    ack_vector: SummaryVector = field(default_factory=SummaryVector)

    def purgeable(self, log: "WriteLog") -> List[UpdateId]:
        return log.covered_ids(self.ack_vector)


# ---------------------------------------------------------------------------
# Write log
# ---------------------------------------------------------------------------


def _prefix_slice(prefix: List[Update], floor: int, tip: int) -> List[Update]:
    """The entries of a non-empty ``prefix`` with ``floor < seq <= tip``.

    A prefix is dense (entry ``i`` holds sequence ``prefix[0].seq + i``)
    unless a truncation policy purged from its middle, and the stock
    policies only ever remove a leading run: the cuts are then plain
    arithmetic. A holed prefix is bisected on its sequence numbers,
    listed for the occasion (``bisect``'s ``key=`` needs Python 3.10).
    """
    first = prefix[0].seq
    if prefix[-1].seq - first + 1 == len(prefix):
        lo, hi = floor - first + 1, tip - first + 1  # clamped, not max(): hot
        return prefix[lo if lo > 0 else 0:hi if hi > 0 else 0]
    seqs = [update.seq for update in prefix]
    return prefix[bisect_right(seqs, floor):bisect_right(seqs, tip)]


class WriteLog:
    """Per-replica store of known writes, ordered per origin.

    The log tracks a contiguous prefix per origin in :attr:`summary`.
    Writes beyond the prefix (delivered early by fast updates) are held
    and automatically folded into the prefix when the gap closes.

    Each origin's prefix is a list in ``seq`` order cut at the summary
    tip (:func:`_prefix_slice`), so "everything the peer lacks" is a
    slice per origin. Logs given one ``history`` share its lists, which
    grow only by the next ``seq``; a first purge copies its slices out.
    """

    __slots__ = ("policy", "summary", "_ahead", "_history",
                 "_purged_floor", "_origins_cache", "_purge_listeners",
                 "total_added", "total_purged")

    def __init__(self, policy: Optional[TruncationPolicy] = None,
                 history: Optional[Dict[int, List[Update]]] = None):
        self.policy = policy if policy is not None else KeepAll()
        self.summary = SummaryVector()
        #: ids present but beyond the contiguous prefix, per origin
        self._ahead: Dict[int, Dict[int, Update]] = {}
        #: per-origin lists read up to the summary tip: shared until the
        #: first purge, the log's own (holed only by purges) after it
        self._history: Dict[int, List[Update]] = {} if history is None else history
        self._purged_floor: Optional[Dict[int, int]] = None  # None: never purged
        #: memoised sorted origin list; None when an origin appeared
        #: since the last query (per-session queries iterate origins, so
        #: rebuilding the sort per call would tax the very hot path the
        #: index exists for)
        self._origins_cache: Optional[List[int]] = None
        #: callbacks invoked with the list of purged uids after each
        #: non-empty purge; agents keeping per-write side tables (the
        #: fast-update push state) hook this to evict in lock-step.
        self._purge_listeners: List[Callable[[List[UpdateId]], None]] = []
        self.total_added = 0
        self.total_purged = 0

    def on_purge(self, callback: Callable[[List[UpdateId]], None]) -> None:
        """Register a callback fired with the uids each purge removes."""
        self._purge_listeners.append(callback)

    # -- membership -----------------------------------------------------------

    def has(self, uid: UpdateId) -> bool:
        """Whether the write is known (in the prefix, ahead, or purged).

        Everything up to an origin's summary tip was added once, and
        only such entries are ever purged, so the tip answers for both.
        """
        origin, seq = uid
        if seq <= self.summary.get(origin):
            return True
        ahead = self._ahead.get(origin)
        return ahead is not None and seq in ahead

    def get(self, uid: UpdateId) -> Update:
        """Return a stored update (raises for unknown or purged ids)."""
        origin, seq = uid
        if seq <= self.summary.get(origin):
            line = self._history.get(origin)
            found = _prefix_slice(line, seq - 1, seq) if line else ()
            if found:
                return found[0]
        else:
            ahead = self._ahead.get(origin)
            if ahead and seq in ahead:
                return ahead[seq]
        raise ReplicationError(f"update {uid} not in log")

    def __len__(self) -> int:
        return self.total_added - self.total_purged

    def origins(self) -> List[int]:
        """Origins the log has heard from (summary or ahead), ascending."""
        return list(self._sorted_origins())

    def _sorted_origins(self) -> List[int]:
        """Memoised ascending origins of summary and parked set; do not mutate."""
        cache = self._origins_cache
        if cache is None:
            keys: Set[int] = set(self.summary.origins())
            keys.update(self._ahead)
            cache = sorted(keys)
            self._origins_cache = cache
        return cache

    # -- adding -----------------------------------------------------------------

    def add(self, update: Update) -> bool:
        """Insert one write; returns True when it is new."""
        return bool(self.add_all((update,)))

    def add_all(self, updates: Iterable[Update]) -> List[Update]:
        """Insert a batch of writes; returns those that were new.

        Out-of-order arrivals are accepted; the summary prefix only
        advances across gap-free runs. The common arrival — the next
        sequence number of an origin with nothing parked ahead — goes
        straight onto that origin's prefix; anything else is parked
        ahead, and whatever run it completes is folded in. A shared list
        that already reaches ``seq`` only has the tip advanced past it.
        """
        parked = self._ahead
        history = self._history
        tips = self.summary.own_tips()
        new: List[Update] = []
        for update in updates:
            origin = update.origin
            seq = update.seq
            next_seq = tips.get(origin, 0) + 1
            if seq < next_seq:
                continue  # in the prefix, or purged from it
            ahead = parked.get(origin)
            if ahead is None:
                if next_seq == 1:
                    self._origins_cache = None  # first entry from this origin
                if seq == next_seq:
                    line = history.get(origin)
                    if line is None:
                        history[origin] = [update]
                    elif line[-1].seq < seq:
                        line.append(update)
                    tips[origin] = seq
                    new.append(update)
                    continue
                ahead = parked[origin] = {}
            elif seq in ahead:
                continue
            ahead[seq] = update
            new.append(update)
            if next_seq in ahead:
                line = history.setdefault(origin, [])
                while next_seq in ahead:
                    folded = ahead.pop(next_seq)
                    if not line or line[-1].seq < next_seq:
                        line.append(folded)
                    next_seq += 1
                tips[origin] = next_seq - 1
                if not ahead:
                    del parked[origin]
        self.total_added += len(new)
        return new

    # -- anti-entropy support ------------------------------------------------------

    def updates_since(self, peer_summary: SummaryVector) -> List[Update]:
        """Writes the peer is missing, in per-origin sequence order.

        This implements steps 7/10 of the paper's session: "determine if
        it has messages that [the partner] has not yet received, by
        seeing if some of its summary timestamps are greater than the
        corresponding ones its partner['s]".

        Cost is O(missing + origins): :func:`_prefix_slice` cuts the run
        between the peer's tip and ours per origin, ahead-of-prefix
        entries (always newer) follow it. An equal peer vector — most
        sessions of a quiet system — lacks nothing: one dict comparison.
        """
        if not self._ahead and peer_summary == self.summary:
            return []
        tips = self.summary._entries  # read only; own_tips() would detach
        missing: List[Update] = []
        for origin in self._sorted_origins():
            floor = peer_summary.get(origin)
            tip = tips.get(origin, 0)
            if tip > floor:
                line = self._history.get(origin)
                if line:
                    missing.extend(_prefix_slice(line, floor, tip))
            ahead = self._ahead.get(origin)
            if ahead:
                missing.extend(
                    ahead[seq] for seq in sorted(ahead) if seq > floor
                )
        return missing

    def can_serve(self, peer_summary: SummaryVector) -> bool:
        """False when purging removed writes the peer would need."""
        for origin, floor in (self._purged_floor or {}).items():
            if peer_summary.get(origin) < floor:
                return False
        return True

    def ahead_ids(self) -> List[UpdateId]:
        """Ids held beyond the contiguous prefix (fast-update arrivals)."""
        out: List[UpdateId] = []
        for origin in sorted(self._ahead):
            out.extend((origin, seq) for seq in sorted(self._ahead[origin]))
        return out

    def all_updates(self) -> List[Update]:
        """Every stored write, per-origin ordered."""
        out: List[Update] = []
        for origin in self._sorted_origins():
            line = self._history.get(origin)
            if line:
                out.extend(_prefix_slice(line, 0, self.summary.get(origin)))
            ahead = self._ahead.get(origin)
            if ahead:
                out.extend(ahead[seq] for seq in sorted(ahead))
        return out

    def covered_ids(self, vector: SummaryVector) -> List[UpdateId]:
        """Ids of stored writes covered by ``vector``, per-origin ordered.

        The acked-truncation policy asks this every completed session;
        per origin it is a slice of the prefix index (the ahead set is
        only consulted for callers passing vectors beyond our own
        summary).
        """
        out: List[UpdateId] = []
        for origin in self._sorted_origins():
            floor = vector.get(origin)
            if floor <= 0:
                continue
            line = self._history.get(origin)
            if line:
                tip = min(floor, self.summary.get(origin))
                out.extend([u.uid for u in _prefix_slice(line, 0, tip)])
            ahead = self._ahead.get(origin)
            if ahead:
                out.extend(
                    (origin, seq) for seq in sorted(ahead) if seq <= floor
                )
        return out

    # -- truncation ---------------------------------------------------------------

    def purge(self) -> int:
        """Apply the truncation policy; returns how many entries left.

        Only prefix entries may be purged (purging an "ahead" entry
        would corrupt gap bookkeeping); the policy's suggestions are
        filtered accordingly. The first purge to remove anything copies
        the live slices out first: a shared list is never touched.
        """
        doomed: Dict[int, Set[int]] = {}
        for origin, seq in self.policy.purgeable(self):
            if seq <= self.summary.get(origin):  # never an ahead-of-prefix entry
                doomed.setdefault(origin, set()).add(seq)
        if doomed and self._purged_floor is None:
            self._purged_floor = {}
            self._history = {o: self._history[o][:t] for o, t in self.summary.items()}
        history, floors = self._history, self._purged_floor
        purged_uids: List[UpdateId] = []
        # Rebuild each affected origin's prefix array once.
        for origin in sorted(doomed):
            prefix = history.get(origin, ())
            seqs_gone = doomed[origin]
            gone = [u.uid for u in prefix if u.seq in seqs_gone]
            if not gone:
                continue  # all purged before
            purged_uids.extend(gone)
            if gone[-1][1] > floors.get(origin, 0):
                floors[origin] = gone[-1][1]
            if len(gone) < len(prefix):
                history[origin] = [u for u in prefix if u.seq not in seqs_gone]
            else:
                del history[origin]
        self.total_purged += len(purged_uids)
        if purged_uids:
            for callback in self._purge_listeners:
                callback(purged_uids)
        return len(purged_uids)
