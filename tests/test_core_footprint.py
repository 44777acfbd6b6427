"""A replica costs what it holds.

Per-replica state is the budget of a decentralised scheme, so what an
idle replica occupies is gated here the way a speed would be:

* bytes per replica of a freshly built system stay under a stated bound
  and do not grow with the system (nothing per-system is copied into
  each node);
* bytes per (replica, write) of a converged keep-all run — what history
  costs beside the ``Update`` objects themselves — stay under a stated
  bound and do not grow with the history;
* bytes per client write on one replica — the ``Update``, its ``uid``
  and its ``Timestamp`` — stay under a stated bound, which a
  ``__dict__`` on either class breaks;
* the objects instantiated per replica or per session carry no
  ``__dict__``, and what every node believes alike (oracle or snapshot
  demand, an empty bridge set) or holds alike (each origin's write
  history) is one object per system;
* an empty closing batch, which is most of them, is not integrated;
* a handler patched on an agent *class* before a system is built is the
  handler that system runs — what ``benchmarks/e2e/spans.py`` relies on
  now that nodes share one route table instead of binding their own;
* the content store hands out the same ``StoreEntry`` it always did,
  although it no longer keeps one per key.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import pytest

from repro.core.antientropy import AntiEntropyAgent
from repro.core.fastupdate import FastUpdateAgent
from repro.core.system import ReplicationSystem
from repro.core.variants import (
    dynamic_fast_consistency,
    fast_consistency,
    static_table_consistency,
)
from repro.demand.static import ExplicitDemand, UniformRandomDemand
from repro.demand.views import TableDemandView
from repro.replica.log import Update
from repro.replica.server import ReplicaServer
from repro.replica.store import ContentStore, StoreEntry
from repro.replica.timestamps import Timestamp
from repro.topology.brite import internet_like
from repro.topology.simple import line

#: Bytes an idle replica may occupy, its ``session-interval`` draws
#: included. Measured 2.8 to 2.9 KB; 5.4 KB while that stream was a
#: 2.5 KB ``random.Random`` per replica (and 4.9 KB beside it before the
#: node stack was slotted and its per-system state shared).
IDLE_REPLICA_BYTES = 3200


def idle_bytes_per_replica(n: int, config) -> float:
    topology = internet_like(n, seed=1)
    demand = UniformRandomDemand(seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        system = ReplicationSystem(
            topology=topology, demand=demand, config=config, seed=1
        )
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(system.nodes) == n
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    return grown / n


@pytest.mark.parametrize(
    "config",
    [fast_consistency(), static_table_consistency()],
    ids=["oracle-knowledge", "snapshot-knowledge"],
)
def test_idle_replica_is_small_and_the_system_is_linear_in_replicas(config):
    small = idle_bytes_per_replica(500, config)
    large = idle_bytes_per_replica(2000, config)
    assert large <= IDLE_REPLICA_BYTES
    assert small <= IDLE_REPLICA_BYTES
    # Four times the replicas, the same bytes each: a per-system table
    # copied into every node (the snapshot view once was) would show as
    # growth here.
    assert abs(large - small) <= 0.10 * small


#: Bytes one write may cost at each replica that holds it, beside the
#: ``Update`` itself (one per write in a simulation, shared by every
#: log, as is the one slot it takes in its origin's history): an 8 B
#: cell of the system's apply-time matrix and, where a cascade delivered
#: it, a byte of push depth. Measured 14 to 17; 26 while each log kept a prefix
#: list of its own and each write an apply-time row with its own
#: ``array`` header; 110 to 165 (a dict steps up when it resizes) while
#: the log, the push table and the apply-time map each hashed the id.
HISTORY_BYTES_PER_REPLICA_WRITE = 20

#: Where an ``Update`` and its ``Timestamp`` are allocated: the server's
#: ``local_write`` and the clock's ``tick``.
UPDATE_OBJECTS = (
    tracemalloc.Filter(False, "*/repro/replica/server.py"),
    tracemalloc.Filter(False, "*/repro/replica/timestamps.py"),
)


def history_bytes_per_replica_write(writes: int, nodes: int = 30) -> float:
    keys = [f"key-{index:02d}" for index in range(64)]
    gc.collect()
    tracemalloc.start()  # before the build, so that a list grown later is a diff
    try:
        system = ReplicationSystem(
            topology=internet_like(nodes, seed=3),
            demand=UniformRandomDemand(seed=3),
            config=fast_consistency(),
            seed=1,
        )
        system.sim.trace.disable()
        system.start()

        def write_and_settle(count: int) -> None:
            start = system.sim.now
            for index in range(count):
                system.run_until(start + index * 0.05)
                system.inject_write(index % nodes, key=keys[index % 64])
            system.run_until(start + count * 0.05 + 30.0)

        # Every origin has written and every key is stored before the
        # count starts: what is measured is what one more write costs.
        write_and_settle(4 * nodes)
        gc.collect()
        before = tracemalloc.take_snapshot().filter_traces(UPDATE_OBJECTS)
        write_and_settle(writes)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(UPDATE_OBJECTS)
    finally:
        tracemalloc.stop()
    for server in system.servers.values():
        assert len(server.log) == 4 * nodes + writes  # every pair is held
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    return grown / (nodes * writes)


def test_history_costs_a_slot_per_replica_and_write():
    short = history_bytes_per_replica_write(600)
    long = history_bytes_per_replica_write(1200)
    assert short <= HISTORY_BYTES_PER_REPLICA_WRITE
    assert long <= HISTORY_BYTES_PER_REPLICA_WRITE
    # Twice the history, the same bytes a write: a table that hashed ids
    # would step up each time it resized; these do not.
    assert long <= 1.05 * short


#: Bytes one client write costs its replica: the slotted ``Update`` (88)
#: with its ``uid`` tuple (56), the ``Timestamp`` (48), the two ``int``s
#: past the small-int cache (sequence and counter, 32 each) and a slot
#: in its origin's history list. Measured 262; 342 while both were
#: frozen dataclasses, whose ``__dict__`` the cached ``uid`` filled. A
#: ``__dict__`` slot on the ``Timestamp`` alone reads 294.
UPDATE_BYTES_PER_WRITE = 288

#: Where a write's objects are allocated: the server, the clock and the
#: log (``Update.__init__`` builds the ``uid`` and appends to the history).
WRITE_OBJECTS = (
    tracemalloc.Filter(True, "*/repro/replica/server.py"),
    tracemalloc.Filter(True, "*/repro/replica/timestamps.py"),
    tracemalloc.Filter(True, "*/repro/replica/log.py"),
)


def update_bytes_per_write(writes: int) -> float:
    server = ReplicaServer(0)
    for _ in range(100):
        server.local_write("k", None)  # the key is stored: nothing grows there
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(WRITE_OBJECTS)
        for _ in range(writes):
            server.local_write("k", None).uid  # as the apply-time table reads it
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(WRITE_OBJECTS)
    finally:
        tracemalloc.stop()
    assert len(server.log) == 100 + writes
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    return grown / writes


def test_a_write_costs_its_update_and_timestamp_and_no_dict():
    update = ReplicaServer(0).local_write("k", None)
    assert not hasattr(update, "__dict__")
    assert not hasattr(update.timestamp, "__dict__")
    assert update_bytes_per_write(4000) <= UPDATE_BYTES_PER_WRITE


def small_system(config=None, n: int = 5) -> ReplicationSystem:
    demand = ExplicitDemand({node: float(node + 1) for node in range(n)})
    return ReplicationSystem(
        topology=line(n), demand=demand, config=config or fast_consistency(), seed=4
    )


def test_every_log_of_a_system_reads_one_history_per_origin():
    system = small_system()
    system.start()
    for node in (0, 2, 2, 4):
        system.inject_write(node)
    system.run_until(20.0)
    histories = system.runtime.histories
    # One list per origin that wrote, dense from seq 1.
    assert {origin: [u.seq for u in line] for origin, line in histories.items()} == {
        0: [1], 2: [1, 2], 4: [1]
    }
    for server in system.servers.values():
        log = server.log
        assert log._history is histories  # a keep-all log holds no list of its own
        assert len(log) == 4
        for line in histories.values():
            for update in line:
                assert system.all_have(update.uid)
                assert log.get(update.uid) is update
    assert small_system().runtime.histories is not histories  # per system


def test_nothing_instantiated_per_replica_or_session_has_a_dict():
    system = small_system()
    node = system.nodes[1]
    assert node.anti_entropy.initiate_with(2)  # opens a session
    (session,) = node.anti_entropy._sessions.values()
    server = node.server
    instances = [
        node,
        node.anti_entropy,
        node.anti_entropy.stats,
        node.anti_entropy.policy,
        node.anti_entropy._interval_rng,
        session,
        node.fast,
        node.fast.stats,
        node.view,
        server,
        server.clock,
        server.log,
        server.store,
    ]
    assert [type(instance).__name__ for instance in instances] == [
        "ReplicationNode",
        "AntiEntropyAgent",
        "SessionStats",
        "DemandOrderedPolicy",
        "DrawStream",
        "SessionState",
        "FastUpdateAgent",
        "FastUpdateStats",
        "OracleDemandView",
        "ReplicaServer",
        "LamportClock",
        "WriteLog",
        "ContentStore",
    ]
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance).__name__


@pytest.mark.parametrize(
    "config", [fast_consistency(), static_table_consistency()], ids=["oracle", "snapshot"]
)
def test_one_demand_view_per_system_where_every_node_believes_the_same(config):
    system = small_system(config)
    (view,) = {id(node.view) for node in system.nodes.values()}
    for node in system.nodes.values():
        assert id(node.anti_entropy.policy.view) == view
        # The push reads the ranking partner selection keeps.
        assert node.fast.ranking is node.anti_entropy.policy
    other = small_system(config)
    assert id(other.nodes[0].view) != view  # per system, not per process


def test_advertised_beliefs_stay_per_node():
    system = small_system(dynamic_fast_consistency())
    views = [node.view for node in system.nodes.values()]
    assert all(isinstance(view, TableDemandView) for view in views)
    assert len({id(view.table) for view in views}) == len(views)
    assert system.runtime.demand_view is None


def test_nodes_without_bridges_share_one_empty_target_set():
    system = small_system()
    assert len({id(n.fast.extra_targets) for n in system.nodes.values()}) == 1
    system.nodes[0].add_bridge_targets([3])
    assert system.nodes[0].fast.extra_targets == {3}
    assert all(not system.nodes[n].fast.extra_targets for n in (1, 2, 3, 4))


def test_a_handler_patched_on_the_class_is_the_one_a_new_system_runs(monkeypatch):
    seen = {"summary": 0, "offer": 0}
    handle_summary = AntiEntropyAgent._handle_summary
    handle_offer = FastUpdateAgent._handle_offer

    def counted_summary(agent, src, message):
        seen["summary"] += 1
        return handle_summary(agent, src, message)

    def counted_offer(agent, src, message):
        seen["offer"] += 1
        return handle_offer(agent, src, message)

    # What spans.py does: setattr on the class, before the system exists.
    monkeypatch.setattr(AntiEntropyAgent, "_handle_summary", counted_summary)
    monkeypatch.setattr(FastUpdateAgent, "_handle_offer", counted_offer)
    system = small_system()
    system.start()
    system.inject_write(node=0)
    system.run_until(5.0)
    offers = sum(n.fast.stats.offers_received for n in system.nodes.values())
    assert seen["offer"] == offers > 0
    assert seen["summary"] > 0


def test_an_empty_closing_batch_is_not_integrated(monkeypatch):
    batch_sizes = []
    integrate = ReplicaServer.integrate

    def recording(server, updates, source, sender=None):
        batch_sizes.append(len(updates))
        return integrate(server, updates, source, sender)

    monkeypatch.setattr(ReplicaServer, "integrate", recording)
    system = small_system()
    system.start()
    system.inject_write(node=4)  # the coldest node: nothing is pushed
    system.run_until(8.0)
    totals = system.session_stats_total()
    # Sessions ran and closed on both sides (each with two closing
    # batches, nearly all empty), the write travelled by session ...
    assert totals["completed_initiator"] == totals["completed_responder"] > 10
    assert totals["updates_received"] == len(system.nodes) - 1
    # ... and integrate() was called for the batches that carried it only.
    assert batch_sizes == [1] * (len(system.nodes) - 1)


def winning(seq: int, counter: int, value: str) -> Update:
    return Update(
        origin=3, seq=seq, timestamp=Timestamp(counter, 3), key="k", value=value
    )


class TestStoreKeepsTheUpdateAndReadsAStoreEntry:
    def test_read_is_equal_before_and_after_a_superseded_write(self):
        store = ContentStore()
        assert store.read("k") is None
        assert store.apply(winning(2, 7, "v1"))
        expected = StoreEntry(value="v1", timestamp=Timestamp(7, 3), origin=3, seq=2)
        assert store.read("k") == expected
        signature = store.content_signature()
        assert signature == (("k", Timestamp(7, 3)),)
        assert not store.apply(winning(1, 5, "older"))  # superseded on arrival
        assert store.read("k") == expected
        assert store.value("k") == "v1"
        assert store.content_signature() == signature
        assert (store.applied_count, store.superseded_count) == (2, 1)

    def test_a_read_pickles_to_the_bytes_it_always_did(self):
        # pickle.dumps(store.read("k"), 5) at the commit before the store
        # kept the Update: what a live-tcp get() puts on the control socket.
        store = ContentStore()
        store.apply(winning(2, 7, "v1"))
        assert pickle.dumps(store.read("k"), 5).hex() == (
            "800595a0000000000000008c13726570726f2e7265706c6963612e73746f7265948c0a"
            "53746f7265456e7472799493942981947d94288c0576616c7565948c027631948c0974"
            "696d657374616d70948c18726570726f2e7265706c6963612e74696d657374616d7073"
            "948c0954696d657374616d709493942981947d94288c07636f756e746572944b078c04"
            "6e6f6465944b0375628c066f726967696e944b038c03736571944b0275622e"
        )
