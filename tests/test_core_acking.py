"""Tests for ack tables and in-protocol log truncation (Golding acks)."""

from __future__ import annotations

import pytest

from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency, weak_consistency
from repro.demand.static import ConstantDemand, UniformRandomDemand
from repro.errors import ReplicationError
from repro.replica.acks import AckTable
from repro.replica.versions import SummaryVector
from repro.topology.simple import line, ring


class TestAckTable:
    def test_owner_must_be_in_population(self):
        with pytest.raises(ReplicationError):
            AckTable(owner=9, population=[0, 1])

    def test_observe_and_completeness(self):
        table = AckTable(owner=0, population=[0, 1])
        table.observe(0, SummaryVector({0: 2}), at=0.0)
        assert not table.is_complete()
        assert table.ack_vector() == SummaryVector()  # incomplete -> nothing
        table.observe(1, SummaryVector({0: 1}), at=1.0)
        assert table.is_complete()
        assert table.ack_vector() == SummaryVector({0: 1})

    def test_observe_outside_population_rejected(self):
        table = AckTable(owner=0, population=[0, 1])
        with pytest.raises(ReplicationError):
            table.observe(7, SummaryVector(), at=0.0)

    def test_dominated_observation_never_regresses(self):
        table = AckTable(owner=0, population=[0, 1])
        table.observe(1, SummaryVector({0: 5}), at=1.0)
        table.observe(1, SummaryVector({0: 3}), at=2.0)  # stale gossip
        assert table.entry(1).summary == SummaryVector({0: 5})

    def test_incomparable_observations_merge(self):
        table = AckTable(owner=0, population=[0, 1])
        table.observe(1, SummaryVector({0: 5}), at=1.0)
        table.observe(1, SummaryVector({1: 4}), at=2.0)
        assert table.entry(1).summary == SummaryVector({0: 5, 1: 4})

    def test_merge_tables(self):
        a = AckTable(owner=0, population=[0, 1, 2])
        b = AckTable(owner=1, population=[0, 1, 2])
        a.observe(0, SummaryVector({0: 3}), at=0.0)
        b.observe(1, SummaryVector({0: 2}), at=0.0)
        b.observe(2, SummaryVector({0: 1}), at=0.0)
        a.merge(b)
        assert a.is_complete()
        assert a.ack_vector() == SummaryVector({0: 1})

    def test_copy_is_independent(self):
        table = AckTable(owner=0, population=[0, 1])
        table.observe(0, SummaryVector({0: 1}), at=0.0)
        dup = table.copy()
        dup.observe(1, SummaryVector({0: 1}), at=1.0)
        assert not table.is_complete()
        assert dup.is_complete()

    def test_size_bytes_scales_with_entries(self):
        table = AckTable(owner=0, population=[0, 1])
        table.observe(0, SummaryVector({0: 1}), at=0.0)
        one = table.size_bytes()
        table.observe(1, SummaryVector({0: 1, 1: 2}), at=0.0)
        assert table.size_bytes() > one


class TestAckedTruncationInProtocol:
    def build(self, n=4, writes=5, seed=6):
        system = ReplicationSystem(
            ring(n) if n >= 3 else line(n),
            ConstantDemand(1.0),
            weak_consistency(log_truncation="acked"),
            seed=seed,
        )
        system.start()
        for i in range(writes):
            system.inject_write(i % n, key=f"k{i}")
        return system

    def test_logs_purge_once_everyone_acked(self):
        system = self.build(n=4, writes=5)
        system.run_until(40.0)
        # All writes delivered everywhere and then acknowledged back:
        # logs should eventually shrink below the write count.
        total_purged = sum(
            node.ack_manager.total_purged for node in system.nodes.values()
        )
        assert total_purged > 0
        for server in system.servers.values():
            assert len(server.log) < 5
            # Content survives purging.
            assert len(server.store) == 5

    def test_purged_writes_never_resurface(self):
        system = self.build(n=3, writes=3)
        system.run_until(60.0)
        # After purging, continued sessions must not re-add entries.
        sizes = {n: len(s.log) for n, s in system.servers.items()}
        system.run_until(80.0)
        assert {n: len(s.log) for n, s in system.servers.items()} == sizes

    def test_crashed_replica_blocks_purging(self):
        system = ReplicationSystem(
            ring(4),
            ConstantDemand(1.0),
            weak_consistency(log_truncation="acked"),
            seed=7,
        )
        system.network.links.set_node_down(3)
        system.start()
        system.inject_write(0)
        system.run_until(40.0)
        # Node 3 never acked: nothing may be purged anywhere.
        for node in system.nodes.values():
            assert node.ack_manager.total_purged == 0
        assert len(system.servers[0].log) == 1

    def test_ack_tables_add_measurable_bytes(self):
        plain = ReplicationSystem(
            ring(4), ConstantDemand(1.0), weak_consistency(), seed=8
        )
        acked = ReplicationSystem(
            ring(4),
            ConstantDemand(1.0),
            weak_consistency(log_truncation="acked"),
            seed=8,
        )
        for system in (plain, acked):
            system.start()
            system.inject_write(0)
            system.run_until(10.0)
        assert (
            acked.network.counters.bytes_by_kind["summary"]
            > plain.network.counters.bytes_by_kind["summary"]
        )

    def test_acked_mode_still_converges_with_fast_updates(self):
        system = ReplicationSystem(
            ring(6),
            UniformRandomDemand(seed=9),
            fast_consistency(log_truncation="acked"),
            seed=9,
        )
        system.start()
        update = system.inject_write(0)
        assert system.run_until_replicated(update.uid, max_time=60.0) is not None


class TestMaxEntriesInProtocol:
    def test_log_stays_bounded(self):
        system = ReplicationSystem(
            ring(3),
            ConstantDemand(1.0),
            weak_consistency(log_truncation="max-entries", max_log_entries=4),
            seed=10,
        )
        system.start()
        for i in range(12):
            system.inject_write(i % 3, key=f"k{i}")
        system.run_until(60.0)
        for server in system.servers.values():
            assert len(server.log) <= 4

    def test_truncated_history_aborts_session_instead_of_stalling(self):
        # A node that was down while history was purged gets an explicit
        # abort (reason log-truncated), not silent inconsistency.
        system = ReplicationSystem(
            ring(3),
            ConstantDemand(1.0),
            weak_consistency(log_truncation="max-entries", max_log_entries=2),
            seed=11,
        )
        system.network.links.set_node_down(2)
        system.start()
        for i in range(8):
            system.inject_write(0, key=f"k{i}")
        system.run_until(30.0)
        system.network.links.set_node_up(2)
        system.run_until(80.0)
        aborts = [
            r
            for r in system.sim.trace.select("session.abort")
            if r.get("reason") == "log-truncated"
        ]
        assert aborts
