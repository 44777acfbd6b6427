"""The live cluster's replication tracking costs one row per update.

:class:`~repro.runtime.tracking.ReplicationTracker` keeps each update's
apply stamps until every replica applied it (and ``track_limit``
completed updates beyond that), so its per-update state is most of a
serving cluster's memory.  These tests pin:

* the bytes one fully replicated update holds, at 12 replicas;
* that a completion wakes a thread blocked in ``wait_replicated``, and
  leaves no per-update synchronisation object behind;
* the answers for evicted and unknown updates;
* that the first application wins over duplicate and replayed reports;
* that each update's latency is folded into the telemetry exactly once,
  whether its put returns before or after it completes;
* that reports, puts and waits on many threads lose no count, no fold
  and no wake-up.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import tracemalloc
from array import array

from repro.runtime.tracking import ReplicationTracker
from repro.telemetry.registry import MetricRegistry

NODES = list(range(12))

#: Bytes a fully replicated update may hold at 12 replicas. Measured
#: 254 (a 14-cell ``array('d')`` row, its dict slot and its slot in the
#: eviction queue); 2 242 while each update kept a dict of float stamps
#: per node, a put-stamp entry and a ``threading.Event``.
BYTES_PER_REPLICATED_UPDATE = 512


def _tracker(track_limit=10**6):
    registry = MetricRegistry()
    tracker = ReplicationTracker(
        NODES, threading.Lock(), track_limit, registry, "queue"
    )
    return tracker, registry


def _replicate(tracker, uid, stamp=1.0, put_first=True):
    """Report ``uid`` the way a serving cluster does: the origin applies
    it, the put returns, then every other replica applies it."""
    origin = uid[0]
    tracker.record(origin, [(uid, stamp)])
    if put_first:
        tracker.note_put(uid, stamp)
    for node in NODES:
        if node != origin:
            tracker.record(node, [(uid, stamp + 0.001 * (node + 1))])
    if not put_first:
        tracker.note_put(uid, stamp)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def test_a_replicated_update_holds_one_small_row():
    updates = 2000
    uids = [(index % len(NODES), index // len(NODES)) for index in range(updates)]
    tracker, _ = _tracker()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for uid in uids:
            _replicate(tracker, uid, stamp=time.monotonic())
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert tracker.replicated.value == updates and len(tracker) == updates
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert grown / updates <= BYTES_PER_REPLICATED_UPDATE


def test_a_thread_blocked_before_completion_is_woken_by_it():
    tracker, _ = _tracker()
    uid = (3, 0)
    result = {}
    # The wait starts before any report: on tcp a put's reply may beat
    # its origin's ``applied`` frame to the waiting caller.
    waiter = threading.Thread(
        target=lambda: result.update(done=tracker.wait_replicated(uid, timeout=30.0))
    )
    waiter.start()
    _wait_until(lambda: tracker._waiters == 1)
    started = time.monotonic()
    for node in NODES[:-1]:
        tracker.record(node, [(uid, 1.0)])
    time.sleep(0.01)
    assert waiter.is_alive()  # one replica short: still waiting
    tracker.record(NODES[-1], [(uid, 1.0)])
    waiter.join(10.0)
    assert result == {"done": True}
    assert time.monotonic() - started < 5.0  # woken, not timed out
    assert tracker._waiters == 0


def test_no_synchronisation_object_survives_completion():
    def sync_objects():
        return sum(
            isinstance(obj, (threading.Event, threading.Condition))
            for obj in gc.get_objects()
        )

    tracker, _ = _tracker()
    gc.collect()
    baseline = sync_objects()
    for seq in range(20):
        uid = (seq % len(NODES), seq)
        waiter = threading.Thread(target=tracker.wait_replicated, args=(uid, 30.0))
        waiter.start()
        _wait_until(lambda: tracker._waiters == 1)
        _replicate(tracker, uid)
        waiter.join(10.0)
        assert not waiter.is_alive()
    for seq in range(20, 120):
        _replicate(tracker, (seq % len(NODES), seq))
    del waiter  # a Thread holds an Event of its own
    gc.collect()
    assert sync_objects() == baseline
    assert len(tracker) == 120
    assert all(type(row) is array for row in tracker._rows.values())


def test_evicted_updates_answer_at_once_and_unknown_ones_time_out():
    tracker, _ = _tracker(track_limit=2)
    uids = [(0, seq) for seq in range(3)]
    for uid in uids:
        _replicate(tracker, uid)
    assert len(tracker) == 2
    started = time.monotonic()
    assert tracker.wait_replicated(uids[0], timeout=10.0) is True
    assert time.monotonic() - started < 1.0
    assert tracker.apply_stamps(uids[0]) == {}
    assert tracker.replication_latency(uids[0]) is None
    assert set(tracker.apply_stamps(uids[-1])) == set(NODES)
    for unknown in [(0, 3), (5, 0), ("nope", 0)]:
        started = time.monotonic()
        assert tracker.wait_replicated(unknown, timeout=0.05) is False
        assert time.monotonic() - started >= 0.04
    assert tracker.wait_replicated((5, 0), timeout=0.0) is False
    assert tracker._waiters == 0


def test_duplicate_and_replayed_reports_change_no_stamp_and_no_count():
    tracker, registry = _tracker(track_limit=1)
    uid = (0, 0)
    tracker.record(0, [(uid, 1.0)])
    tracker.record(0, [(uid, 2.0), (uid, 3.0)])  # again, in one batch too
    tracker.note_put(uid, 0.5)
    assert tracker.apply_stamps(uid) == {0: 1.0}
    for node in NODES[1:-1]:
        tracker.record(node, [(uid, 4.0)] * 2)
    # Eleven distinct replicas, whatever the report count: not complete.
    assert tracker.replicated.value == 0
    assert not tracker.wait_replicated(uid, timeout=0.0)
    tracker.record(NODES[-1], [(uid, 5.0)])
    assert tracker.replicated.value == 1
    stamps = tracker.apply_stamps(uid)
    # A hub failover replays every node's recent reports.
    for node in NODES:
        tracker.record(node, [(uid, 9.0)])
    assert tracker.apply_stamps(uid) == stamps
    assert stamps[0] == 1.0 and stamps[NODES[-1]] == 5.0
    assert tracker.replicated.value == 1
    assert tracker.replication_latency(uid) == 4.5
    # Once evicted, a replayed report builds no row again.
    _replicate(tracker, (0, 1))
    assert len(tracker) == 1 and tracker.apply_stamps(uid) == {}
    for node in NODES:
        tracker.record(node, [(uid, 9.0)])
    assert len(tracker) == 1 and tracker.apply_stamps(uid) == {}
    assert tracker.replicated.value == 2
    moments = registry.moments("cluster.replication_latency", transport="queue")
    assert moments.count == 2


def test_latency_is_folded_once_whether_the_put_returns_first_or_last():
    tracker, registry = _tracker()
    moments = registry.moments("cluster.replication_latency", transport="queue")
    sketch = registry.sketch("cluster.replication_latency.sketch", transport="queue")
    before, after = (1, 0), (2, 0)
    _replicate(tracker, before, stamp=10.0, put_first=True)
    assert moments.count == 1
    _replicate(tracker, after, stamp=20.0, put_first=False)
    assert moments.count == 2 and sketch.count == 2
    slowest = 0.001 * len(NODES)  # node 11's offset from the stamp
    for uid, stamp in ((before, 10.0), (after, 20.0)):
        assert abs(tracker.replication_latency(uid) - slowest) < 1e-9
        # Replays fold nothing more.
        tracker.record(uid[0], [(uid, stamp)])
    assert moments.count == 2 and sketch.count == 2
    assert abs(moments.mean - slowest) < 1e-9
    assert tracker.puts.value == 2
    assert abs(tracker.latency_quantile(0.5) - slowest) < 1e-9
    # A put whose update was evicted before it returned counts, but has
    # no stamp left to fold against.
    small, small_registry = _tracker(track_limit=1)
    for node in NODES:
        small.record(node, [((0, 0), 1.0)])
    _replicate(small, (0, 1))
    small.note_put((0, 0), 0.5)
    assert small.puts.value == 2 and small.replicated.value == 2
    assert small_registry.moments(
        "cluster.replication_latency", transport="queue"
    ).count == 1


def test_concurrent_reports_puts_and_waits_lose_nothing():
    """Reports from three threads, puts from a fourth and six waiters,
    switching threads every few bytecodes: every wait ends True, and
    each count and each latency fold happens exactly once."""
    updates = 300
    uids = [(index % len(NODES), index // len(NODES)) for index in range(updates)]
    tracker, registry = _tracker()
    results = []
    # Every put applies at its origin before it returns.
    for uid in uids:
        tracker.record(uid[0], [(uid, 1.0)])

    def report(nodes):
        for start in range(0, updates, 10):
            for node in nodes:
                tracker.record(node, [(uid, 1.0) for uid in uids[start:start + 10]])

    def put():
        for uid in uids:
            tracker.note_put(uid, 0.5)

    def wait(share):
        results.extend(tracker.wait_replicated(uid, timeout=30.0) for uid in share)

    threads = [threading.Thread(target=report, args=(NODES[i::3],)) for i in range(3)]
    threads.append(threading.Thread(target=put))
    threads += [threading.Thread(target=wait, args=(uids[i::6],)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == updates and all(results)
    assert tracker.replicated.value == updates and tracker.puts.value == updates
    moments = registry.moments("cluster.replication_latency", transport="queue")
    assert moments.count == updates and moments.mean == 0.5
    assert tracker._waiters == 0
