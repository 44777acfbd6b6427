"""The batch-native update path: one shared uid per write, one pass per batch.

Four fences around the rewrite of ``WriteLog.add_all`` and the cached
``Update.uid``:

* ``add_all`` is observably the fold of the pre-batch ``add`` (kept
  below as the oracle) over duplicates, gaps, out-of-order arrivals and
  a purge in the middle;
* an ``Update`` survives the wire unchanged and no bigger;
* what is still keyed by a write's id holds the *same* tuple object, and
  the logs and push tables hold none;
* the equal-summaries shortcut of ``updates_since`` answers exactly what
  the per-origin walk answers;
* ``updates_since`` and ``covered_ids`` index a prefix by arithmetic and
  answer exactly what bisecting a sorted array of its sequence numbers
  (the oracle's ``_prefix_seqs``) answers, holes in the prefix included.
"""

from __future__ import annotations

import pickle
from bisect import bisect_right
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency
from repro.demand.static import ExplicitDemand
from repro.errors import ReplicationError
from repro.replica.log import MaxEntries, TruncationPolicy, Update, WriteLog
from repro.replica.messages import FastUpdatePayload
from repro.replica.timestamps import Timestamp
from repro.replica.versions import SummaryVector
from repro.runtime.tcp import FrameDecoder, encode_frame
from repro.topology.simple import line


def make_update(origin: int, seq: int) -> Update:
    return Update(
        origin=origin,
        seq=seq,
        timestamp=Timestamp(seq * 3 + origin, origin),
        key=f"k{origin}",
        value=(origin, seq),
    )


# -- (a) add_all == fold of the pre-batch add ---------------------------------


class OneAtATimeLog(WriteLog):
    """The oracle: ``add`` / ``add_all`` exactly as they were before the
    batch path (every write parked in ``_ahead`` first, then folded),
    ``updates_since`` / ``covered_ids`` exactly as they were while the
    log kept ``_prefix_seqs``, a sorted array of sequence numbers beside
    each prefix, and bisected it, ``has`` / ``get`` / ``len`` / ``purge``
    exactly as they were while it kept ``_entries``, a dict from uid to
    update, and ``all_updates`` as it was while each log kept ``_prefix``,
    lists of its own holding exactly its prefix. The array and the three
    dicts are this class's own now."""

    def __init__(self, policy=None):
        super().__init__(policy)
        self._prefix = {}
        self._prefix_seqs = {}
        self._entries = {}
        self._purged_floor = {}

    def has(self, uid) -> bool:
        return uid in self._entries or uid[1] <= self._purged_floor.get(uid[0], 0)

    def get(self, uid) -> Update:
        try:
            return self._entries[uid]
        except KeyError:
            raise ReplicationError(f"update {uid} not in log") from None

    def __len__(self) -> int:
        return len(self._entries)

    def purge(self) -> int:
        removed = 0
        dropped = {}
        for uid in self.policy.purgeable(self):
            origin, seq = uid
            if uid not in self._entries:
                continue
            if seq > self.summary.get(origin):
                continue  # never purge ahead-of-prefix entries
            del self._entries[uid]
            dropped.setdefault(origin, set()).add(seq)
            if seq > self._purged_floor.get(origin, 0):
                self._purged_floor[origin] = seq
            removed += 1
        for origin, seqs_gone in dropped.items():
            kept = [u for u in self._prefix[origin] if u.seq not in seqs_gone]
            if kept:
                self._prefix[origin] = kept
            else:
                del self._prefix[origin]
                if origin not in self._ahead:
                    self._origins_cache = None
        self.total_purged += removed
        if removed:
            purged_uids = [
                (origin, seq)
                for origin in sorted(dropped)
                for seq in sorted(dropped[origin])
            ]
            for callback in self._purge_listeners:
                callback(purged_uids)
        self._prefix_seqs = {
            origin: [u.seq for u in prefix] for origin, prefix in self._prefix.items()
        }
        return removed

    def updates_since(self, peer_summary: SummaryVector) -> List[Update]:
        missing: List[Update] = []
        for origin in self.origins():
            floor = peer_summary.get(origin)
            seqs = self._prefix_seqs.get(origin)
            if seqs and seqs[-1] > floor:
                missing.extend(self._prefix[origin][bisect_right(seqs, floor):])
            ahead = self._ahead.get(origin)
            if ahead:
                missing.extend(ahead[seq] for seq in sorted(ahead) if seq > floor)
        return missing

    def all_updates(self) -> List[Update]:
        out: List[Update] = []
        for origin in self.origins():
            out.extend(self._prefix.get(origin, ()))
            ahead = self._ahead.get(origin)
            if ahead:
                out.extend(ahead[seq] for seq in sorted(ahead))
        return out

    def covered_ids(self, vector: SummaryVector):
        out = []
        for origin in self.origins():
            floor = vector.get(origin)
            if floor <= 0:
                continue
            seqs = self._prefix_seqs.get(origin)
            if seqs:
                out.extend((origin, seq) for seq in seqs[: bisect_right(seqs, floor)])
            ahead = self._ahead.get(origin)
            if ahead:
                out.extend((origin, seq) for seq in sorted(ahead) if seq <= floor)
        return out

    def add(self, update: Update) -> bool:
        if self.has(update.uid):
            return False
        self._entries[update.uid] = update
        self.total_added += 1
        origin = update.origin
        if origin not in self._ahead and origin not in self._prefix:
            self._origins_cache = None
        ahead = self._ahead.setdefault(origin, {})
        ahead[update.seq] = update
        next_seq = self.summary.get(origin) + 1
        if next_seq in ahead:
            prefix = self._prefix.setdefault(origin, [])
            seqs = self._prefix_seqs.setdefault(origin, [])
            while next_seq in ahead:
                folded = ahead.pop(next_seq)
                prefix.append(folded)
                seqs.append(next_seq)
                self.summary.advance(origin, next_seq)
                next_seq += 1
        if not ahead:
            del self._ahead[origin]
        return True

    def add_all(self, updates) -> List[Update]:
        return [u for u in updates if self.add(u)]


uid_pairs = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=12)
)
#: Any mix of in-order, ahead-of-prefix, gap-filling and repeated ids.
batches = st.lists(st.lists(uid_pairs, max_size=12), max_size=8)


def observable(log: WriteLog):
    return (
        log.summary.as_dict(),
        [u.uid for u in log.all_updates()],
        log.ahead_ids(),
        log.total_added,
        log.total_purged,
        log.origins(),
    )


class TestAddAllIsTheFoldOfAdd:
    @given(batches, st.integers(min_value=0, max_value=8), st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_batches_with_a_purge_in_the_middle(self, groups, purge_at, limit):
        log = WriteLog(policy=MaxEntries(limit=limit))
        oracle = OneAtATimeLog(policy=MaxEntries(limit=limit))
        for index, group in enumerate(groups):
            if index == purge_at:
                assert log.purge() == oracle.purge()
            batch = [make_update(origin, seq) for origin, seq in group]
            assert log.add_all(batch) == oracle.add_all(batch)
            assert observable(log) == observable(oracle)
            # The copy a session shipped earlier must not see the batch.
            assert log.summary.copy().as_dict() == oracle.summary.as_dict()

    @given(st.lists(uid_pairs, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_single_adds_agree_too(self, pairs):
        log, oracle = WriteLog(), OneAtATimeLog()
        for origin, seq in pairs:
            update = make_update(origin, seq)
            assert log.add(update) == oracle.add(update)
        assert observable(log) == observable(oracle)

    def test_shipped_summary_copy_is_not_advanced_by_a_later_batch(self):
        log = WriteLog()
        log.add_all([make_update(0, 1)])
        shipped = log.summary.copy()
        log.add_all([make_update(0, 2), make_update(1, 1)])
        assert shipped.as_dict() == {0: 1}
        assert log.summary.as_dict() == {0: 2, 1: 1}


# -- (b) the wire form does not pay for the cache -----------------------------


def pinned_payload() -> FastUpdatePayload:
    updates = tuple(
        Update(
            origin=origin,
            seq=seq,
            timestamp=Timestamp(10 * seq + origin, origin),
            key=f"key-{seq:02d}",
            value="v" * 128,
        )
        for origin, seq in ((0, 1), (0, 2), (3, 7))
    )
    return FastUpdatePayload(2, updates, depth=1)


class TestUpdateOnTheWire:
    def test_round_trip_preserves_equality_hash_and_uid(self):
        update = make_update(2, 9)
        assert update.uid == (2, 9)  # cached before it is pickled
        clone = pickle.loads(pickle.dumps(update, pickle.HIGHEST_PROTOCOL))
        assert clone == update
        assert hash(clone) == hash(update)
        assert clone.uid == (2, 9)
        assert clone.uid is clone.uid

    def test_uid_is_not_carried(self):
        touched, untouched = make_update(2, 9), make_update(2, 9)
        touched.uid
        assert pickle.dumps(touched, 5) == pickle.dumps(untouched, 5)
        assert "uid" not in pickle.loads(pickle.dumps(touched, 5)).__dict__

    def test_pinned_payload_frame_is_no_bigger_than_before(self):
        payload = pinned_payload()
        for update in payload.updates:
            update.uid
        # Byte counts of these two frames at the commit before the cache.
        assert len(encode_frame(payload)) <= 537
        envelope = ("msg", 2, 1, FastUpdatePayload(2, payload.updates[:1], depth=1))
        assert len(encode_frame(envelope)) <= 434
        (decoded,) = FrameDecoder().feed(encode_frame(payload))
        assert decoded == payload
        assert [u.uid for u in decoded.updates] == [(0, 1), (0, 2), (3, 7)]


# -- (c) one tuple per write, everywhere ---------------------------------------


class TestOneSharedUidPerWrite:
    def test_every_table_holds_the_updates_own_tuple(self):
        topology = line(5)
        demand = ExplicitDemand({n: float(n) for n in topology.nodes})
        system = ReplicationSystem(
            topology=topology, demand=demand, config=fast_consistency(), seed=3
        )
        system.start()
        update = system.inject_write(node=0, key="k", value="v")
        assert system.run_until_replicated(update.uid, max_time=50.0) is not None
        uid = update.uid
        (tracked,) = [key for key in system._apply_rows if key == uid]
        assert tracked is uid
        pushed = 0
        for node in system.nodes.values():
            assert node.server.log.get((0, 1)).uid is uid
            # The log and the push table are addressed by origin and
            # seq: neither keeps a tuple of its own for the write.
            assert not hasattr(node.server.log, "_entries")
            assert set(node.fast._push_depth) <= {0}
            pushed += node.fast._depth_of((0, 1)) > 0
        assert pushed >= 2  # the cascade really went through the push path


# -- (d) updates_since: shortcut == walk ---------------------------------------


def walk(log: WriteLog, peer: SummaryVector) -> List[Update]:
    """``updates_since`` without the equal-summaries shortcut."""
    return [u for u in log.all_updates() if u.seq > peer.get(u.origin)]


def filled_log(with_ahead: bool) -> WriteLog:
    log = WriteLog()
    log.add_all([make_update(0, 1), make_update(0, 2), make_update(1, 1)])
    if with_ahead:
        log.add_all([make_update(1, 3), make_update(2, 2)])
    return log


class TestUpdatesSinceShortcut:
    def test_equal_dominated_and_incomparable_vectors(self):
        for with_ahead in (False, True):
            log = filled_log(with_ahead)
            peers = {
                "equal": log.summary.copy(),
                "dominated": SummaryVector({0: 1}),
                "dominating": SummaryVector({0: 5, 1: 5, 2: 5}),
                "incomparable": SummaryVector({0: 1, 1: 4, 3: 2}),
                "empty": SummaryVector(),
            }
            for name, peer in peers.items():
                assert log.updates_since(peer) == walk(log, peer), (name, with_ahead)
            equal = log.updates_since(peers["equal"])
            if with_ahead:
                # Parked writes are beyond our own summary, so a peer
                # with an equal vector still lacks them.
                assert [u.uid for u in equal] == [(1, 3), (2, 2)]
            else:
                assert equal == []

    def test_equal_vector_after_a_purge(self):
        log = filled_log(with_ahead=False)
        log.policy = MaxEntries(limit=1)
        assert log.purge() == 2
        peer = log.summary.copy()
        assert log.updates_since(peer) == walk(log, peer) == []

    @given(
        st.lists(uid_pairs, max_size=30),
        st.dictionaries(st.integers(0, 3), st.integers(0, 12), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_logs_and_peers(self, pairs, peer_entries):
        log = WriteLog()
        log.add_all([make_update(origin, seq) for origin, seq in pairs])
        for peer in (SummaryVector(peer_entries), log.summary.copy()):
            assert log.updates_since(peer) == walk(log, peer)


# -- (e) prefix arithmetic == bisect over the sequence numbers ------------------


class PurgeThese(TruncationPolicy):
    """Purges the ids it is told to: what it takes to hole a prefix (the
    stock policies only ever remove a leading run of one)."""

    def __init__(self, uids=()):
        self.uids = list(uids)

    def purgeable(self, log: WriteLog):
        return self.uids


vectors = st.dictionaries(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=14)
).map(SummaryVector)


def assert_same_answers(log: WriteLog, oracle: OneAtATimeLog, peers) -> None:
    for peer in [*peers, log.summary.copy(), SummaryVector()]:
        assert log.updates_since(peer) == oracle.updates_since(peer)
        assert log.covered_ids(peer) == oracle.covered_ids(peer)


class TestPrefixIndexIsTheBisect:
    @given(batches, st.lists(uid_pairs, max_size=10), st.lists(vectors, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_any_purge_any_vector(self, groups, doomed, peers):
        log = WriteLog(policy=PurgeThese())
        oracle = OneAtATimeLog(policy=PurgeThese())
        for index, group in enumerate(groups):
            batch = [make_update(origin, seq) for origin, seq in group]
            log.add_all(batch)
            oracle.add_all(batch)
            if index == len(groups) // 2:
                log.policy.uids = oracle.policy.uids = doomed
                assert log.purge() == oracle.purge()
            assert observable(log) == observable(oracle)
            assert_same_answers(log, oracle, peers)

    @given(batches, st.integers(0, 8), st.lists(vectors, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_leading_run_purges_keep_the_prefix_dense(self, groups, limit, peers):
        log = WriteLog(policy=MaxEntries(limit=limit))
        oracle = OneAtATimeLog(policy=MaxEntries(limit=limit))
        for group in groups:
            batch = [make_update(origin, seq) for origin, seq in group]
            log.add_all(batch)
            oracle.add_all(batch)
            assert log.purge() == oracle.purge()
            for prefix in log._history.values():
                assert [u.seq for u in prefix] == list(
                    range(prefix[0].seq, prefix[0].seq + len(prefix))
                )
            assert_same_answers(log, oracle, peers)

    def test_a_holed_prefix_takes_the_bisect(self):
        log = WriteLog(policy=PurgeThese([(0, 3)]))
        log.add_all([make_update(0, seq) for seq in range(1, 7)])
        assert log.purge() == 1
        assert [u.seq for u in log._history[0]] == [1, 2, 4, 5, 6]  # not dense
        since = {
            floor: [u.seq for u in log.updates_since(SummaryVector({0: floor}))]
            for floor in range(7)
        }
        assert since == {
            0: [1, 2, 4, 5, 6],
            1: [2, 4, 5, 6],
            2: [4, 5, 6],
            3: [4, 5, 6],
            4: [5, 6],
            5: [6],
            6: [],
        }
        covered = {
            floor: [seq for _, seq in log.covered_ids(SummaryVector({0: floor}))]
            for floor in (2, 3, 4, 9)
        }
        assert covered == {2: [1, 2], 3: [1, 2], 4: [1, 2, 4], 9: [1, 2, 4, 5, 6]}
