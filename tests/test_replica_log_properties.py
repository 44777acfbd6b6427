"""Property test: the indexed WriteLog agrees with a naive reference model.

The write log was re-indexed for the anti-entropy hot path (per-origin
contiguous arrays + bisect instead of scan-and-sort). This test replays
random interleavings of in-order adds, ahead-of-prefix adds, duplicate
adds and purges against both the real :class:`WriteLog` and a
deliberately naive model with the pre-index semantics, and asserts that
every observable (``has`` / ``updates_since`` / ``ahead_ids`` /
``all_updates`` / ``summary`` / purge results) stays identical.

The log then dropped its map from uid to entry: ``has``, ``get`` and
``len`` are answered from the summary tip, the per-origin arrays and two
counters. The second half replays ``add_all`` / ``purge`` histories —
with purges that punch holes mid-prefix and arrivals parked ahead —
against the dict-backed oracle of ``test_replica_batch_path.py``.

Then the logs of one address space began to share one history per
origin, each reading it up to its own summary tip. The last part drives
two or three logs over one history dict, tips leading and trailing each
other, one of them purging (and so copying out), and checks each against
an oracle with lists of its own, and the shared lists for density and
for never having been shortened.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_replica_batch_path import OneAtATimeLog, PurgeThese

from repro.errors import ReplicationError
from repro.replica.log import (
    AckedTruncation,
    MaxEntries,
    Update,
    UpdateId,
    WriteLog,
)
from repro.replica.timestamps import Timestamp
from repro.replica.versions import SummaryVector


def make_update(origin: int, seq: int) -> Update:
    return Update(
        origin=origin,
        seq=seq,
        timestamp=Timestamp(seq * 3 + origin, origin),
        key=f"k{origin}",
        value=(origin, seq),
    )


class NaiveLog:
    """The pre-index semantics: a flat uid map, scan-and-sort queries."""

    def __init__(self) -> None:
        self.entries: Dict[UpdateId, Update] = {}
        self.summary: Dict[int, int] = {}
        self.purged_floor: Dict[int, int] = {}

    def has(self, uid: UpdateId) -> bool:
        origin, seq = uid
        return seq <= self.purged_floor.get(origin, 0) or uid in self.entries

    def add(self, update: Update) -> bool:
        if self.has(update.uid):
            return False
        self.entries[update.uid] = update
        origin = update.origin
        next_seq = self.summary.get(origin, 0) + 1
        while (origin, next_seq) in self.entries:
            self.summary[origin] = next_seq
            next_seq += 1
        return True

    def updates_since(self, peer: SummaryVector) -> List[Update]:
        missing = [
            u for u in self.entries.values() if u.seq > peer.get(u.origin)
        ]
        missing.sort(key=lambda u: (u.origin, u.seq))
        return missing

    def ahead_ids(self) -> List[UpdateId]:
        return sorted(
            uid
            for uid in self.entries
            if uid[1] > self.summary.get(uid[0], 0)
        )

    def all_updates(self) -> List[Update]:
        return sorted(self.entries.values(), key=lambda u: (u.origin, u.seq))

    def purge(self, purgeable: List[UpdateId]) -> int:
        removed = 0
        for uid in purgeable:
            origin, seq = uid
            if uid not in self.entries:
                continue
            if seq > self.summary.get(origin, 0):
                continue
            del self.entries[uid]
            if seq > self.purged_floor.get(origin, 0):
                self.purged_floor[origin] = seq
            removed += 1
        return removed

    def acked_purgeable(self, ack: SummaryVector) -> List[UpdateId]:
        return [
            u.uid for u in self.all_updates() if u.seq <= ack.get(u.origin)
        ]

    def max_entries_purgeable(self, limit: int) -> List[UpdateId]:
        excess = len(self.entries) - limit
        if excess <= 0:
            return []
        ordered = sorted(self.all_updates(), key=lambda u: u.timestamp)
        return [u.uid for u in ordered[:excess]]


summary_entries = st.dictionaries(
    keys=st.integers(min_value=0, max_value=3),
    values=st.integers(min_value=0, max_value=12),
    max_size=4,
)

#: One step of the interleaving: an add (any origin/seq combination, so
#: in-order, ahead-of-prefix and duplicates all occur), an acked purge,
#: or a max-entries purge.
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=12),
        ),
        st.tuples(st.just("purge-acked"), summary_entries),
        st.tuples(st.just("purge-max"), st.integers(min_value=0, max_value=10)),
    ),
    max_size=60,
)


def assert_equivalent(log: WriteLog, model: NaiveLog, peer: SummaryVector) -> None:
    assert log.summary.as_dict() == {
        o: s for o, s in model.summary.items() if s > 0
    }
    assert [u.uid for u in log.all_updates()] == [
        u.uid for u in model.all_updates()
    ]
    assert log.ahead_ids() == model.ahead_ids()
    assert [u.uid for u in log.updates_since(peer)] == [
        u.uid for u in model.updates_since(peer)
    ]
    for origin in range(4):
        for seq in range(1, 14):
            assert log.has((origin, seq)) == model.has((origin, seq)), (
                f"has(({origin}, {seq})) diverged"
            )


class TestIndexedLogAgreesWithNaiveModel:
    @given(operations, summary_entries)
    @settings(max_examples=120, deadline=None)
    def test_random_interleavings(self, ops, peer_entries):
        log = WriteLog()
        model = NaiveLog()
        peer = SummaryVector(peer_entries)
        for op in ops:
            if op[0] == "add":
                update = make_update(op[1], op[2])
                assert log.add(update) == model.add(update)
            elif op[0] == "purge-acked":
                ack = SummaryVector(op[1])
                log.policy = AckedTruncation(ack_vector=ack)
                # The policies must propose identical ids...
                assert log.policy.purgeable(log) == model.acked_purgeable(ack)
                # ...and the purge must remove identical entries.
                assert log.purge() == model.purge(model.acked_purgeable(ack))
            else:
                limit = op[1]
                log.policy = MaxEntries(limit=limit)
                assert log.policy.purgeable(log) == model.max_entries_purgeable(limit)
                assert log.purge() == model.purge(model.max_entries_purgeable(limit))
            assert_equivalent(log, model, peer)

    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_covered_ids_matches_naive_filter(self, ops):
        log = WriteLog()
        model = NaiveLog()
        for op in ops:
            if op[0] == "add":
                update = make_update(op[1], op[2])
                log.add(update)
                model.add(update)
        for floor in (0, 1, 5, 12):
            vector = SummaryVector({o: floor for o in range(4)})
            assert log.covered_ids(vector) == model.acked_purgeable(vector)


# -- the log without a uid map == the log with one ------------------------------


def scrambled_update(origin: int, seq: int) -> Update:
    """An update whose timestamp does not grow with its ``seq``, so that
    ``MaxEntries`` (oldest timestamps first) purges from the middle of a
    prefix, which a real origin's Lamport clock never lets it do."""
    return Update(
        origin=origin,
        seq=seq,
        timestamp=Timestamp((seq * 5) % 7 * 4 + origin, origin),
        key=f"k{origin}",
        value=(origin, seq),
    )


history = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(1, 12)), max_size=8
            ),
        ),
        st.tuples(st.just("purge"), st.integers(min_value=0, max_value=10)),
    ),
    max_size=30,
)


def lookup(log: WriteLog, uid: UpdateId) -> Optional[Update]:
    try:
        return log.get(uid)
    except ReplicationError:
        return None


def assert_same_store(log: WriteLog, oracle: OneAtATimeLog, peers) -> None:
    assert len(log) == len(oracle)
    assert log.all_updates() == oracle.all_updates()
    assert log.ahead_ids() == oracle.ahead_ids()
    assert log.summary == oracle.summary
    for origin in range(5):
        for seq in range(0, 14):
            uid = (origin, seq)
            assert log.has(uid) == oracle.has(uid), uid
            assert lookup(log, uid) is lookup(oracle, uid), uid
    for peer in [*peers, log.summary.copy(), SummaryVector()]:
        assert log.updates_since(peer) == oracle.updates_since(peer)
        assert log.covered_ids(peer) == oracle.covered_ids(peer)
        assert log.can_serve(peer) == oracle.can_serve(peer)


class TestLogWithoutUidMapAgreesWithDictBackedOracle:
    @given(history, st.lists(summary_entries.map(SummaryVector), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_add_all_and_purge_histories(self, steps, peers):
        log, oracle = WriteLog(), OneAtATimeLog()
        heard, oracle_heard = [], []
        log.on_purge(heard.append)
        oracle.on_purge(oracle_heard.append)
        for step in steps:
            if step[0] == "add":
                batch = [scrambled_update(origin, seq) for origin, seq in step[1]]
                assert log.add_all(batch) == oracle.add_all(batch)
            else:
                log.policy = oracle.policy = MaxEntries(limit=step[1])
                assert log.policy.purgeable(log) == oracle.policy.purgeable(oracle)
                assert log.purge() == oracle.purge()
                assert heard == oracle_heard  # same uids, same order
            assert_same_store(log, oracle, peers)

    def test_a_hole_a_purged_tail_and_a_parked_arrival(self):
        # What the generated histories are there to reach, spelled out.
        log = WriteLog(policy=MaxEntries(limit=5))
        log.add_all([scrambled_update(0, seq) for seq in (1, 2, 3, 4, 5, 6, 9)])
        assert log.ahead_ids() == [(0, 9)]
        assert len(log) == 7
        assert log.purge() == 2  # the two oldest timestamps: seq 3, seq 6
        assert [u.seq for u in log.all_updates()] == [1, 2, 4, 5, 9]
        assert len(log) == 5
        for seq in (1, 2, 4, 5, 9):
            assert log.get((0, seq)).seq == seq
        for seq in (0, 3, 6, 7, 8, 10):  # purged, never seen, out of range
            with pytest.raises(ReplicationError):
                log.get((0, seq))
        with pytest.raises(ReplicationError):
            log.get((1, 1))  # unknown origin
        assert [log.has((0, seq)) for seq in range(1, 11)] == [
            True, True, True, True, True, True, False, False, True, False
        ]
        # A purged write is known, so it is not taken back.
        assert log.add_all([scrambled_update(0, 3), scrambled_update(0, 7)]) == [
            scrambled_update(0, 7)
        ]
        assert log.summary.get(0) == 7
        assert len(log) == 6


# -- logs sharing one history == logs with lists of their own -------------------


uids = st.tuples(st.integers(0, 3), st.integers(1, 12))

#: Steps against two or three logs over one history dict: any batch to any
#: log; a run bringing one log's tip for an origin up to a given seq, so
#: that the logs' tips lead and trail each other; and a purge of the last
#: log, by the oldest timestamps (holes, tails, leading runs) or by id.
shared_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 2), st.lists(uids, max_size=8)),
        st.tuples(
            st.just("run"), st.integers(0, 2), st.integers(0, 3), st.integers(1, 12)
        ),
        st.tuples(
            st.just("purge"),
            st.one_of(
                st.integers(0, 10).map(lambda limit: MaxEntries(limit=limit)),
                st.lists(uids, max_size=6).map(PurgeThese),
            ),
        ),
    ),
    max_size=40,
)


class TestLogsSharingOneHistoryAgreeWithPrivateOracles:
    @given(
        st.integers(2, 3),
        shared_steps,
        st.lists(summary_entries.map(SummaryVector), max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_staggered_tips_and_a_log_that_copies_out(self, count, steps, peers):
        shared: Dict[int, List[Update]] = {}
        writes: Dict[UpdateId, Update] = {}  # one object per write, as in one runtime
        logs = [WriteLog(history=shared) for _ in range(count)]
        oracles = [OneAtATimeLog() for _ in range(count)]
        heard: List[list] = [[] for _ in range(count)]
        oracle_heard: List[list] = [[] for _ in range(count)]
        for index in range(count):
            logs[index].on_purge(heard[index].append)
            oracles[index].on_purge(oracle_heard[index].append)
        seen: Dict[int, List[Update]] = {}
        for step in steps:
            if step[0] == "purge":
                log, oracle = logs[-1], oracles[-1]
                log.policy = oracle.policy = step[1]
                assert log.policy.purgeable(log) == oracle.policy.purgeable(oracle)
                assert log.purge() == oracle.purge()
            else:
                if step[0] == "add":
                    index, pairs = step[1] % count, step[2]
                else:
                    index, origin, upto = step[1] % count, step[2], step[3]
                    pairs = [(origin, seq) for seq in range(1, upto + 1)]
                batch = [
                    writes.setdefault(uid, scrambled_update(*uid)) for uid in pairs
                ]
                assert logs[index].add_all(batch) == oracles[index].add_all(batch)
            vectors = [*peers, *(log.summary.copy() for log in logs)]
            for index in range(count):
                assert_same_store(logs[index], oracles[index], vectors)
                assert heard[index] == oracle_heard[index]
            # A shared list is only ever appended to, with the next seq.
            for origin, line in shared.items():
                assert [u.seq for u in line] == list(range(1, len(line) + 1))
                before = seen.get(origin, [])
                assert len(line) >= len(before)
                assert all(now is then for now, then in zip(line, before))
                seen[origin] = list(line)
            # A log that never purged holds no list of its own; one that
            # purged holds none of the shared ones.
            for log in logs:
                if log._purged_floor is None:
                    assert log._history is shared
                else:
                    assert log._history is not shared
                    assert all(
                        line is not shared.get(origin)
                        for origin, line in log._history.items()
                    )
        assert all(log._history is shared for log in logs[:-1])
