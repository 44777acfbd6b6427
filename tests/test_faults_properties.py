"""Property-based hardening tests for the fault subsystem.

Hand-rolled generative testing (no external property-testing deps):
seeded random fault schedules — arbitrary mixes of crashes, churn, link
flaps, partitions and demand shocks — are replayed against live systems
and three invariants are asserted:

1. a message is never delivered to a node while it is down;
2. replicas re-converge after every partition heals (and every crashed
   node recovers);
3. a fault-swept experiment grid is bit-identical on the serial and
   process-pool backends.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency, weak_consistency
from repro.demand.static import UniformRandomDemand
from repro.experiments.backends import ProcessPoolBackend, SerialBackend
from repro.experiments.plan import ExperimentPlan
from repro.faults import (
    FaultSchedule,
    demand_shock,
    heal,
    join,
    leave,
    link_down,
    link_up,
    node_down,
    node_up,
    partition,
    prepare_demand,
)
from repro.topology.simple import ring

#: Latest time any fault fires; recoveries land strictly before this.
HORIZON = 14.0
#: Generous convergence budget after the last recovery.
MAX_TIME = 400.0


def random_schedule(topo, rng: random.Random) -> FaultSchedule:
    """A random but always-recovering schedule over ``topo``.

    Mixes every event family the subsystem knows; each crash/leave is
    paired with a recovery and each partition with a heal, so the
    re-convergence invariant is well-defined.
    """
    nodes = sorted(topo.nodes)
    edges = sorted((min(a, b), max(a, b)) for a, b, _ in topo.edges())
    events = []
    for _ in range(rng.randint(0, 3)):  # crashes / churn
        victim = rng.choice(nodes)
        start = rng.uniform(0.1, HORIZON - 2.0)
        end = start + rng.uniform(0.2, 2.0)
        if rng.random() < 0.5:
            events += [node_down(start, victim), node_up(end, victim)]
        else:
            events += [leave(start, victim), join(end, victim)]
    for _ in range(rng.randint(0, 3)):  # link flaps
        a, b = rng.choice(edges)
        start = rng.uniform(0.1, HORIZON - 2.0)
        events += [link_down(start, a, b), link_up(start + rng.uniform(0.2, 2.0), a, b)]
    if rng.random() < 0.7:  # one partition window
        cut = rng.randint(1, len(nodes) - 1)
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        start = rng.uniform(0.1, HORIZON - 3.0)
        events += [
            partition(start, (tuple(shuffled[:cut]), tuple(shuffled[cut:]))),
            heal(start + rng.uniform(0.5, 3.0)),
        ]
    if rng.random() < 0.5:  # demand shock
        count = rng.randint(1, max(1, len(nodes) // 3))
        events.append(
            demand_shock(
                rng.uniform(0.1, HORIZON), rng.sample(nodes, count),
                rng.choice([0.0, 0.5, 5.0, 25.0]),
            )
        )
    return FaultSchedule(events=tuple(events), name="random").validate()


def build_faulted_system(seed: int, config) -> Tuple[ReplicationSystem, FaultSchedule]:
    rng = random.Random(seed)
    topo = ring(rng.randint(6, 12))
    schedule = random_schedule(topo, rng)
    demand = prepare_demand(UniformRandomDemand(0.0, 100.0, seed=seed), schedule)
    system = ReplicationSystem(topo, demand, config, seed=seed)
    if schedule.events:
        system.fault_process = system.inject_faults(schedule)
    return system, schedule


class TestDeliveryInvariant:
    """No handler ever fires for a node that is currently down."""

    @pytest.mark.parametrize("seed", range(8))
    def test_no_delivery_to_down_node(self, seed):
        system, schedule = build_faulted_system(seed, fast_consistency())
        deliveries: List[Tuple[float, int]] = []

        def wrap(node, inner):
            def handler(src, message):
                assert system.network.links.node_is_up(node), (
                    f"delivery to down node {node} at t={system.sim.now}"
                )
                deliveries.append((system.sim.now, node))
                inner(src, message)

            return handler

        for node in system.topology.nodes:
            system.network.attach(node, wrap(node, system.network.handler_for(node)))

        system.start()
        update = system.inject_write(sorted(system.topology.nodes)[0])
        system.run_until_replicated(update.uid, max_time=MAX_TIME)

        # Cross-check against the schedule: no delivery strictly inside
        # any down interval (boundaries are settled by fault priority).
        intervals = schedule.down_intervals()
        for at, node in deliveries:
            for start, end in intervals.get(node, []):
                assert not (start < at < (end if end is not None else float("inf"))), (
                    f"node {node} got a message at {at} inside down window "
                    f"({start}, {end})"
                )
        assert deliveries, "faulted run delivered nothing at all"


class TestReconvergenceInvariant:
    """Every update reaches every replica once all faults have healed."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("variant", [weak_consistency, fast_consistency])
    def test_replicas_reconverge_after_heal(self, seed, variant):
        system, schedule = build_faulted_system(seed, variant())
        assert schedule.always_recovers()
        system.start()
        update = system.inject_write(sorted(system.topology.nodes)[0])
        done = system.run_until_replicated(update.uid, max_time=MAX_TIME)
        assert done is not None, (
            f"seed {seed}: no convergence despite full recovery "
            f"(schedule: {[ (e.time, e.action) for e in schedule.events ]})"
        )
        assert system.all_have(update.uid)

    @pytest.mark.parametrize("seed", range(4))
    def test_deterministic_replay(self, seed):
        """The same seed must produce the identical faulted trajectory."""

        def run():
            system, _ = build_faulted_system(seed, fast_consistency())
            system.start()
            update = system.inject_write(sorted(system.topology.nodes)[0])
            done = system.run_until_replicated(update.uid, max_time=MAX_TIME)
            return done, system.network.counters.snapshot()

        assert run() == run()


class TestBackendInvariant:
    def test_faulted_grid_bit_identical_across_backends(self):
        plan = ExperimentPlan(
            name="prop",
            topology="line",
            demand="uniform",
            variants=("weak", "fast"),
            faults=("none", "split_brain", "poisson_churn", "flapping_links"),
            n=9,
            reps=2,
            seed=13,
            max_time=300.0,
        )
        serial = plan.run(SerialBackend())
        parallel = plan.run(ProcessPoolBackend(max_workers=2, chunksize=1))
        assert serial.to_dict()["series"] == parallel.to_dict()["series"]
        assert serial.to_dict()["params"] == parallel.to_dict()["params"]
