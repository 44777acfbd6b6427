"""Tests for system assembly and end-to-end convergence (repro.core.system)."""

from __future__ import annotations

import pytest

from repro.core.system import ReplicationSystem
from repro.core.variants import (
    dynamic_fast_consistency,
    fast_consistency,
    weak_consistency,
)
from repro.demand.static import ConstantDemand, UniformRandomDemand
from repro.errors import ConfigurationError, SimulationError
from repro.topology.brite import internet_like
from repro.topology.graph import Topology
from repro.topology.simple import line, ring


class TestConstruction:
    def test_disconnected_topology_rejected(self):
        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        with pytest.raises(ConfigurationError):
            ReplicationSystem(topo, ConstantDemand(1.0), weak_consistency())

    def test_empty_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationSystem(Topology(), ConstantDemand(1.0), weak_consistency())

    def test_every_node_gets_server_and_agent(self):
        system = ReplicationSystem(
            ring(6), ConstantDemand(1.0), weak_consistency(), seed=1
        )
        assert set(system.servers) == set(range(6))
        assert set(system.nodes) == set(range(6))
        assert all(n.fast is None for n in system.nodes.values())

    def test_policy_rng_streams_exist_only_for_policies_that_draw(self):
        # A random.Random is ~2.5 KB; demand-ordered and round-robin
        # selection never draw, so they must not cost one per node.
        def policy_streams(config):
            system = ReplicationSystem(
                ring(6), ConstantDemand(1.0), config, seed=1
            )
            return [
                name
                for name in system.sim.rng.stream_names()
                if name.startswith("policy/")
            ]

        assert policy_streams(fast_consistency()) == []
        assert policy_streams(weak_consistency(partner_policy="round-robin")) == []
        for config in (
            weak_consistency(),
            weak_consistency(partner_policy="weighted-random"),
        ):
            assert sorted(policy_streams(config)) == [f"policy/{n}" for n in range(6)]

    def test_fast_variant_builds_fast_agents(self):
        system = ReplicationSystem(
            ring(6), ConstantDemand(1.0), fast_consistency(), seed=1
        )
        assert all(n.fast is not None for n in system.nodes.values())

    def test_advertised_variant_builds_advertisers_and_tables(self):
        system = ReplicationSystem(
            ring(6), ConstantDemand(1.0), dynamic_fast_consistency(), seed=1
        )
        assert all(n.advertiser is not None for n in system.nodes.values())
        # Warm-started tables know immediate neighbours.
        assert system.tables[0].believed(1) == 1.0

    def test_a_late_replica_gets_a_table_of_its_neighbours_demand(self):
        system = ReplicationSystem(
            ring(6), ConstantDemand(2.0), dynamic_fast_consistency(), seed=1
        )
        system.start()
        system.run_until(2.0)
        system.add_replica(6, attach_to=[0, 3])
        table = system.tables[6]
        assert (table.believed(0), table.believed(3)) == (2.0, 2.0)
        assert system.nodes[6].advertiser is not None

    def test_inject_write_unknown_node(self):
        system = ReplicationSystem(
            ring(6), ConstantDemand(1.0), weak_consistency(), seed=1
        )
        with pytest.raises(SimulationError):
            system.inject_write(99)


class TestConvergence:
    @pytest.mark.parametrize("config_factory", [weak_consistency, fast_consistency])
    def test_single_write_reaches_every_replica(self, config_factory):
        system = ReplicationSystem(
            internet_like(30, seed=2),
            UniformRandomDemand(seed=2),
            config_factory(),
            seed=2,
        )
        system.start()
        update = system.inject_write(0)
        done = system.run_until_replicated(update.uid, max_time=60.0)
        assert done is not None
        assert system.all_have(update.uid)
        times = system.apply_times(update.uid)
        assert times[0] == 0.0  # origin applies at write time
        assert max(times.values()) == done

    def test_all_replicas_mutually_consistent_after_convergence(self):
        system = ReplicationSystem(
            ring(8), UniformRandomDemand(seed=3), fast_consistency(), seed=3
        )
        system.start()
        for i in range(3):
            system.inject_write(i, key=f"k{i}", value=i)
        system.run_until(40.0)
        reference = system.servers[0]
        for node, server in system.servers.items():
            assert server.is_consistent_with(reference), f"node {node} diverged"

    def test_run_until_replicated_returns_none_on_timeout(self):
        system = ReplicationSystem(
            line(10), ConstantDemand(1.0), weak_consistency(), seed=4
        )
        system.start()
        update = system.inject_write(0)
        # Far too short for a 10-node line.
        assert system.run_until_replicated(update.uid, max_time=0.5) is None
        assert not system.all_have(update.uid)

    def test_run_until_replicated_already_done(self):
        system = ReplicationSystem(
            line(2), ConstantDemand(1.0), weak_consistency(), seed=4
        )
        system.start()
        update = system.inject_write(0)
        first = system.run_until_replicated(update.uid, max_time=30.0)
        again = system.run_until_replicated(update.uid, max_time=30.0)
        assert first == again

    def test_nodes_with_grows_monotonically(self):
        system = ReplicationSystem(
            ring(6), ConstantDemand(1.0), weak_consistency(), seed=5
        )
        system.start()
        update = system.inject_write(0)
        assert system.nodes_with(update.uid) == {0}
        system.run_until(2.0)
        mid = system.nodes_with(update.uid)
        system.run_until(20.0)
        assert mid <= system.nodes_with(update.uid)


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        def run():
            system = ReplicationSystem(
                internet_like(25, seed=7),
                UniformRandomDemand(seed=7),
                fast_consistency(),
                seed=7,
            )
            system.start()
            update = system.inject_write(3)
            system.run_until_replicated(update.uid, max_time=60.0)
            return (
                system.apply_times(update.uid),
                system.network.counters.messages_sent,
            )

        assert run() == run()

    def test_different_seed_changes_timing(self):
        def run(seed):
            system = ReplicationSystem(
                internet_like(25, seed=7),
                UniformRandomDemand(seed=7),
                fast_consistency(),
                seed=seed,
            )
            system.start()
            update = system.inject_write(3)
            system.run_until_replicated(update.uid, max_time=60.0)
            return system.apply_times(update.uid)

        assert run(1) != run(2)


class TestReporting:
    def test_demand_snapshot(self):
        system = ReplicationSystem(
            ring(4), ConstantDemand(2.5), weak_consistency(), seed=1
        )
        assert system.demand_snapshot() == {n: 2.5 for n in range(4)}

    def test_traffic_snapshot_keys(self):
        system = ReplicationSystem(
            ring(4), ConstantDemand(1.0), weak_consistency(), seed=1
        )
        system.start()
        system.run_until(5.0)
        traffic = system.traffic()
        assert traffic["messages_sent"] > 0
        assert "by_kind" in traffic

    def test_update_applied_topic_published(self):
        system = ReplicationSystem(
            line(2), ConstantDemand(1.0), weak_consistency(), seed=1
        )
        events = []
        system.sim.subscribe(
            "update.applied", lambda **kw: events.append(kw["node"])
        )
        system.start()
        update = system.inject_write(0)
        system.run_until_replicated(update.uid, max_time=30.0)
        assert sorted(set(events)) == [0, 1]
