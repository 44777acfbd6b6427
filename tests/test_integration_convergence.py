"""Integration tests: whole-system convergence under adverse conditions.

Weak consistency's contract is eventual convergence in the face of
loss, crashes and partitions; these tests exercise the full stack
(engine + network + TSAE + protocols) against that contract.
"""

from __future__ import annotations

import pytest

from repro.core.system import ReplicationSystem
from repro.core.variants import (
    dynamic_fast_consistency,
    fast_consistency,
    weak_consistency,
)
from repro.demand.static import UniformRandomDemand, ZipfDemand
from repro.topology.brite import internet_like
from repro.topology.simple import grid, line, ring


class TestConvergenceUnderLoss:
    @pytest.mark.parametrize("loss", [0.1, 0.3])
    def test_update_still_reaches_everyone(self, loss):
        system = ReplicationSystem(
            internet_like(20, seed=1),
            UniformRandomDemand(seed=1),
            fast_consistency(),
            seed=1,
            loss=loss,
        )
        system.start()
        update = system.inject_write(0)
        done = system.run_until_replicated(update.uid, max_time=150.0)
        assert done is not None

    def test_loss_slows_but_does_not_break(self):
        def converge(loss):
            system = ReplicationSystem(
                ring(10),
                UniformRandomDemand(seed=2),
                weak_consistency(),
                seed=2,
                loss=loss,
            )
            system.start()
            update = system.inject_write(0)
            return system.run_until_replicated(update.uid, max_time=300.0)

        clean = converge(0.0)
        lossy = converge(0.4)
        assert clean is not None and lossy is not None
        assert lossy > clean


class TestConvergenceAcrossPartitions:
    def test_partition_heals_and_converges(self):
        system = ReplicationSystem(
            ring(8), UniformRandomDemand(seed=3), weak_consistency(), seed=3
        )
        system.start()
        update = system.inject_write(0)
        # Partition nodes 0-3 from 4-7 immediately.
        system.network.links.partition([[0, 1, 2, 3], [4, 5, 6, 7]])
        system.run_until(20.0)
        reached = system.nodes_with(update.uid)
        assert reached <= {0, 1, 2, 3}
        system.network.links.heal_partition()
        done = system.run_until_replicated(update.uid, max_time=100.0)
        assert done is not None

    def test_crashed_node_catches_up_after_restart(self):
        system = ReplicationSystem(
            ring(6), UniformRandomDemand(seed=4), weak_consistency(), seed=4
        )
        system.start()
        system.network.links.set_node_down(3)
        update = system.inject_write(0)
        system.run_until(20.0)
        assert 3 not in system.nodes_with(update.uid)
        system.network.links.set_node_up(3)
        done = system.run_until_replicated(update.uid, max_time=120.0)
        assert done is not None


class TestMultiWriterConvergence:
    def test_concurrent_writes_converge_to_identical_state(self):
        system = ReplicationSystem(
            internet_like(15, seed=5),
            UniformRandomDemand(seed=5),
            fast_consistency(),
            seed=5,
        )
        system.start()
        # Every node writes the same key concurrently: LWW must converge.
        for node in list(system.servers)[:10]:
            system.servers[node].local_write("contested", f"by-{node}")
        system.run_until(40.0)
        signatures = {
            server.store.content_signature() for server in system.servers.values()
        }
        assert len(signatures) == 1

    def test_interleaved_writes_during_propagation(self):
        system = ReplicationSystem(
            grid(4, 4), UniformRandomDemand(seed=6), fast_consistency(), seed=6
        )
        system.start()
        system.inject_write(0, key="a")
        system.run_until(1.0)
        system.inject_write(15, key="b")
        system.run_until(2.0)
        system.inject_write(5, key="a")  # overwrite mid-flight
        system.run_until(60.0)
        reference = system.servers[0]
        assert all(
            server.is_consistent_with(reference)
            for server in system.servers.values()
        )

    def test_write_log_growth_matches_writes(self):
        system = ReplicationSystem(
            ring(5), UniformRandomDemand(seed=7), weak_consistency(), seed=7
        )
        system.start()
        for i in range(7):
            system.inject_write(i % 5, key=f"k{i}")
        system.run_until(50.0)
        for server in system.servers.values():
            assert len(server.log) == 7
            assert server.summary().total_writes() == 7


class TestDynamicVariantIntegration:
    def test_advertised_system_converges_with_zipf_demand(self):
        topo = internet_like(20, seed=8)
        system = ReplicationSystem(
            topo,
            ZipfDemand(topo.nodes, seed=8),
            dynamic_fast_consistency(),
            seed=8,
        )
        system.start()
        update = system.inject_write(list(topo.nodes)[0])
        done = system.run_until_replicated(update.uid, max_time=100.0)
        assert done is not None
        # Advertisement traffic flowed.
        assert system.network.counters.by_kind.get("demand-advert", 0) > 0

    def test_advert_traffic_is_modest(self):
        topo = ring(10)
        system = ReplicationSystem(
            topo,
            UniformRandomDemand(seed=9),
            dynamic_fast_consistency(),
            seed=9,
        )
        system.start()
        system.run_until(10.0)
        counters = system.network.counters
        advert_bytes = counters.bytes_by_kind.get("demand-advert", 0)
        assert advert_bytes < counters.bytes_sent * 0.5


class TestScaleSmoke:
    def test_hundred_node_fast_run(self):
        system = ReplicationSystem(
            internet_like(100, seed=10),
            UniformRandomDemand(seed=10),
            fast_consistency(),
            seed=10,
        )
        system.start()
        update = system.inject_write(0)
        done = system.run_until_replicated(update.uid, max_time=80.0)
        assert done is not None
        assert done < 20.0
