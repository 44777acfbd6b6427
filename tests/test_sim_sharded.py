"""Tests for the sharded simulation kernel (repro.sim.sharded).

The load-bearing property is *result identity*: on deterministic seeds
the sharded kernel must reproduce the single-process kernel's apply
times, traffic totals and event counts exactly — sharding is a
performance transform, not a new semantics. Everything else here
(partitioning, lookahead, rejection of draw-order-dependent features,
worker-pool lifecycle) exists in service of that property.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency, weak_consistency
from repro.demand.static import UniformRandomDemand
from repro.errors import ExperimentError, SimulationError
from repro.experiments.backends import ShardHostPool
from repro.sim.network import FixedLatency, JitteredLatency
from repro.sim.sharded import (
    ShardedSimulator,
    ShardEngine,
    compute_lookahead,
    partition_topology,
)
from repro.topology.brite import internet_like
from repro.topology.simple import line


def make_topology(n=40, seed=3):
    return internet_like(n, seed=seed)


def run_single(topology, config, horizon, seed=5):
    system = ReplicationSystem(
        topology=topology,
        demand=UniformRandomDemand(seed=3),
        config=config,
        seed=seed,
    )
    system.start()
    update = system.inject_write(0)
    system.run_until(horizon)
    return {
        "apply": system.apply_times(update.uid),
        "traffic": system.traffic(),
        "events": system.sim.events_executed,
    }


def run_sharded(topology, config, horizon, shards, workers=None, seed=5):
    with ShardedSimulator(
        topology,
        UniformRandomDemand(seed=3),
        config,
        seed=seed,
        shards=shards,
        workers=workers,
    ) as sharded:
        sharded.start()
        update = sharded.inject_write(0)
        sharded.run_until(horizon)
        return {
            "apply": sharded.apply_times(update.uid),
            "traffic": sharded.traffic(),
            "events": sharded.events_executed,
        }


# ---------------------------------------------------------------------------
# Partitioning and lookahead
# ---------------------------------------------------------------------------


class TestPartition:
    def test_chunks_cover_all_nodes_once(self):
        topo = make_topology(50)
        parts = partition_topology(topo, 4)
        flat = [node for part in parts for node in part]
        assert sorted(flat) == sorted(topo.nodes)
        assert len(flat) == len(set(flat))

    def test_chunk_sizes_differ_by_at_most_one(self):
        parts = partition_topology(make_topology(50), 3)
        sizes = sorted(len(part) for part in parts)
        assert sizes[-1] - sizes[0] <= 1

    def test_deterministic(self):
        topo = make_topology(50)
        assert partition_topology(topo, 4) == partition_topology(topo, 4)

    def test_line_partition_cuts_one_edge_per_boundary(self):
        # BFS order on a path is the path itself, so k chunks cut
        # exactly k-1 edges — the best possible partition.
        topo = line(12)
        parts = partition_topology(topo, 3)
        owner = {n: i for i, part in enumerate(parts) for n in part}
        cut = sum(1 for a, b, _w in topo.edges() if owner[a] != owner[b])
        assert cut == 2

    def test_rejects_bad_shard_counts(self):
        topo = line(4)
        with pytest.raises(SimulationError):
            partition_topology(topo, 0)
        with pytest.raises(SimulationError):
            partition_topology(topo, 5)


class TestLookahead:
    def test_min_cross_shard_delay(self):
        topo = line(6)
        owner = {n: (0 if n < 3 else 1) for n in topo.nodes}
        lookahead = compute_lookahead(topo, owner, FixedLatency(0.05))
        assert lookahead == pytest.approx(0.05)

    def test_none_without_cross_edges(self):
        topo = line(6)
        owner = {n: 0 for n in topo.nodes}
        assert compute_lookahead(topo, owner, FixedLatency(0.05)) is None

    def test_zero_latency_rejected(self):
        topo = line(4)
        owner = {0: 0, 1: 0, 2: 1, 3: 1}
        with pytest.raises(SimulationError):
            compute_lookahead(topo, owner, FixedLatency(0.0))


# ---------------------------------------------------------------------------
# Result identity with the single kernel
# ---------------------------------------------------------------------------


class TestIdentitySerial:
    @pytest.mark.parametrize("config_factory", [weak_consistency, fast_consistency])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_fixed_horizon_identical(self, config_factory, shards):
        topo = make_topology(40)
        base = run_single(topo, config_factory(), horizon=8.0)
        got = run_sharded(topo, config_factory(), horizon=8.0, shards=shards)
        assert got == base

    def test_converged_at_identical(self):
        topo = make_topology(40)
        config = fast_consistency()
        system = ReplicationSystem(
            topology=topo,
            demand=UniformRandomDemand(seed=3),
            config=config,
            seed=5,
        )
        system.start()
        update = system.inject_write(0)
        single_time = system.run_until_replicated(update.uid, max_time=40.0)
        assert single_time is not None

        with ShardedSimulator(
            topo, UniformRandomDemand(seed=3), config, seed=5, shards=3
        ) as sharded:
            sharded.start()
            update2 = sharded.inject_write(0)
            sharded_time = sharded.run_until_replicated(update2.uid, max_time=40.0)
            assert sharded_time == single_time
            assert sharded.apply_times(update2.uid) == system.apply_times(update.uid)

    def test_identical_when_session_timeouts_fire(self):
        # A timeout below one round trip (2 x link_delay = 0.04) fires
        # at every initiator with no loss needed, so timers run to
        # their end through the kernel's timer lane on every shard
        # instead of being cancelled off it.
        topo = make_topology(40)
        config = replace(fast_consistency(), session_timeout=0.03)

        def timeouts(stacks):
            return {n: stack.anti_entropy.stats.timeouts for n, stack in stacks.items()}

        system = ReplicationSystem(
            topology=topo, demand=UniformRandomDemand(seed=3), config=config, seed=5
        )
        system.start()
        update = system.inject_write(0)
        system.run_until(8.0)
        single_timeouts = timeouts(system.nodes)
        assert sum(single_timeouts.values()) > 100

        with ShardedSimulator(
            topo, UniformRandomDemand(seed=3), config, seed=5, shards=3
        ) as sharded:
            sharded.start()
            update2 = sharded.inject_write(0)
            sharded.run_until(8.0)
            sharded_timeouts = {}
            for engine in sharded._engines:
                sharded_timeouts.update(timeouts(engine.nodes))
            assert sharded_timeouts == single_timeouts
            assert sharded.events_executed == system.sim.events_executed
            assert sharded.apply_times(update2.uid) == system.apply_times(update.uid)
            assert sharded.traffic() == system.traffic()

    def test_two_leg_run_matches_single_leg(self):
        # Driving the same horizon in two run_until calls must land in
        # the same state (exercises the cached next-time invalidation).
        topo = make_topology(40)
        config = fast_consistency()
        base = run_sharded(topo, config, horizon=8.0, shards=2)
        with ShardedSimulator(
            topo, UniformRandomDemand(seed=3), config, seed=5, shards=2
        ) as sharded:
            sharded.start()
            update = sharded.inject_write(0)
            sharded.run_until(3.0)
            sharded.run_until(8.0)
            assert sharded.apply_times(update.uid) == base["apply"]
            assert sharded.events_executed == base["events"]

    def test_watch_misses_nothing_when_already_applied(self):
        # run_until past convergence, then run_until_replicated must
        # report via the watch-backlog path rather than hanging.
        topo = make_topology(30)
        config = fast_consistency()
        with ShardedSimulator(
            topo, UniformRandomDemand(seed=3), config, seed=5, shards=2
        ) as sharded:
            sharded.start()
            update = sharded.inject_write(0)
            sharded.run_until(30.0)
            done = sharded.run_until_replicated(update.uid, max_time=31.0)
            assert done is not None
            assert done <= 30.0


class TestIdentityProcess:
    def test_fixed_horizon_identical(self):
        topo = make_topology(40)
        config = fast_consistency()
        base = run_single(topo, config, horizon=6.0)
        got = run_sharded(topo, config, horizon=6.0, shards=2, workers="process")
        assert got == base

    def test_single_shard_process_works(self):
        # k=1 exercises the mesh-less worker host (no peers at all).
        topo = make_topology(30)
        config = fast_consistency()
        base = run_single(topo, config, horizon=5.0)
        got = run_sharded(topo, config, horizon=5.0, shards=1, workers="process")
        assert got == base

    def test_converged_at_identical(self):
        topo = make_topology(40)
        config = weak_consistency()
        system = ReplicationSystem(
            topology=topo,
            demand=UniformRandomDemand(seed=3),
            config=config,
            seed=5,
        )
        system.start()
        update = system.inject_write(0)
        single_time = system.run_until_replicated(update.uid, max_time=40.0)

        with ShardedSimulator(
            topo,
            UniformRandomDemand(seed=3),
            config,
            seed=5,
            shards=2,
            workers="process",
        ) as sharded:
            sharded.start()
            update2 = sharded.inject_write(0)
            assert (
                sharded.run_until_replicated(update2.uid, max_time=40.0)
                == single_time
            )


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------


class TestRejections:
    def test_loss_rejected(self):
        with pytest.raises(SimulationError, match="loss"):
            ShardedSimulator(
                make_topology(20),
                UniformRandomDemand(seed=3),
                weak_consistency(),
                loss=0.1,
            )

    def test_jittered_latency_rejected(self):
        with pytest.raises(SimulationError, match="latency"):
            ShardedSimulator(
                make_topology(20),
                UniformRandomDemand(seed=3),
                weak_consistency(),
                latency=JitteredLatency(
                    FixedLatency(0.02), jitter=0.01, rng=random.Random(1)
                ),
            )

    def test_unknown_workers_mode_rejected(self):
        with pytest.raises(SimulationError, match="workers"):
            ShardedSimulator(
                make_topology(20),
                UniformRandomDemand(seed=3),
                weak_consistency(),
                workers="threads",
            )

    def test_unknown_node_rejected(self):
        sharded = ShardedSimulator(
            make_topology(20), UniformRandomDemand(seed=3), weak_consistency()
        )
        with pytest.raises(SimulationError):
            sharded.inject_write(999)

    def test_shard_engine_rejects_foreign_local_write(self):
        topo = make_topology(20)
        parts = partition_topology(topo, 2)
        engine = ShardEngine(
            topology=topo,
            demand=UniformRandomDemand(seed=3),
            config=weak_consistency(),
            seed=5,
            local_nodes=parts[0],
        )
        foreign = parts[1][0]
        with pytest.raises(SimulationError):
            engine.local_write(foreign)


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


class TestAccounting:
    def test_snapshot_shape_and_busy_seconds(self):
        topo = make_topology(30)
        with ShardedSimulator(
            topo, UniformRandomDemand(seed=3), fast_consistency(), shards=2
        ) as sharded:
            sharded.start()
            sharded.inject_write(0)
            sharded.run_until(5.0)
            snapshots = sharded.snapshots()
        assert len(snapshots) == 2
        for snap in snapshots:
            assert set(snap) == {
                "apply_times",
                "traffic",
                "events_executed",
                "busy_seconds",
                "now",
            }
            assert snap["now"] == 5.0
            assert snap["busy_seconds"] >= 0.0
        assert sum(s["events_executed"] for s in snapshots) > 0

    def test_partition_splits_event_work(self):
        # Both shards must actually execute events — a partition that
        # funnels everything to one kernel has no parallel headroom.
        topo = make_topology(40)
        with ShardedSimulator(
            topo, UniformRandomDemand(seed=3), weak_consistency(), shards=2
        ) as sharded:
            sharded.start()
            sharded.inject_write(0)
            sharded.run_until(8.0)
            counts = [s["events_executed"] for s in sharded.snapshots()]
        assert min(counts) > 0
        assert max(counts) < sum(counts)


# ---------------------------------------------------------------------------
# Worker pool lifecycle
# ---------------------------------------------------------------------------


class TestShardHostPool:
    def spec(self, topo, part):
        return dict(
            topology=topo,
            demand=UniformRandomDemand(seed=3),
            config=weak_consistency(),
            seed=5,
            local_nodes=part,
        )

    def test_empty_specs_rejected(self):
        with pytest.raises(ExperimentError):
            ShardHostPool([])

    def test_worker_error_propagates_with_traceback(self):
        topo = make_topology(20)
        parts = partition_topology(topo, 2)
        owner = {n: i for i, part in enumerate(parts) for n in part}
        with ShardHostPool(
            [self.spec(topo, part) for part in parts], owner=owner
        ) as pool:
            foreign = parts[1][0]
            with pytest.raises(ExperimentError, match="local_write"):
                pool.call_one(0, "local_write", foreign)

    def test_close_is_idempotent_and_reusable(self):
        topo = make_topology(20)
        parts = partition_topology(topo, 2)
        pool = ShardHostPool([self.spec(topo, part) for part in parts])
        assert pool.call_all("next_time") == [None, None]
        pool.close()
        pool.close()
        # A closed pool lazily respawns, mirroring ProcessPoolBackend.
        assert pool.call_all("next_time") == [None, None]
        pool.close()

    def test_len_and_name(self):
        topo = make_topology(20)
        parts = partition_topology(topo, 2)
        pool = ShardHostPool([self.spec(topo, part) for part in parts])
        assert len(pool) == 2
        assert pool.name == "shard-hosts[2]"
