"""Integration tests for the paper's headline claims (shape, not numbers).

Each test states the claim it checks, quoted from the paper. Runs use
reduced repetitions with paired seeds; EXPERIMENTS.md records the
calibrated full runs.
"""

from __future__ import annotations

import pytest

from repro.core.metrics import reach_time
from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency, weak_consistency
from repro.demand.static import UniformRandomDemand
from repro.experiments.harness import TrialSpec, run_trial
from repro.port.rng import derive_seed
from repro.topology.analysis import diameter
from repro.topology.brite import internet_like


def paired_means(n, reps, seed, top=False):
    """Mean sessions-to-all (or to top replica) for weak vs fast."""
    weak_samples, fast_samples = [], []
    for rep in range(reps):
        topo = internet_like(n, seed=derive_seed(seed, f"t/{rep}"))
        demand = UniformRandomDemand(seed=derive_seed(seed, f"d/{rep}"))
        for config, bucket in (
            (weak_consistency(), weak_samples),
            (fast_consistency(), fast_samples),
        ):
            trial, _ = run_trial(
                TrialSpec(
                    topology=topo,
                    demand=demand,
                    config=config,
                    seed=derive_seed(seed, f"s/{rep}"),
                    origin=0,
                    max_time=120.0,
                )
            )
            bucket.append(trial.time_top1 if top else trial.time_all)
    return (
        sum(weak_samples) / len(weak_samples),
        sum(fast_samples) / len(fast_samples),
    )


class TestHeadlineClaims:
    def test_fast_consistency_beats_weak_globally(self):
        """Abstract: "our proposition not only substantially improves the
        areas of most demand, but also improves it in general for all
        the replicas."
        """
        weak_mean, fast_mean = paired_means(n=40, reps=12, seed=100)
        assert fast_mean < weak_mean

    def test_high_demand_zone_up_to_6x_faster(self):
        """Abstract: "In zones of higher demand, the consistent state is
        reached up to six times quicker than with a normal weak
        consistency algorithm."
        """
        weak_all, _ = paired_means(n=40, reps=12, seed=101)
        _, fast_top = paired_means(n=40, reps=12, seed=101, top=True)
        assert fast_top < 2.0  # "an average of 1 session"
        assert weak_all / fast_top > 3.0  # conservatively below the 6x claim

    def test_sessions_grow_with_diameter_not_node_count(self):
        """§5: doubling the node count barely moves the session count
        because it tracks the diameter.
        """
        means = {}
        diameters = {}
        for n in (30, 60):
            weak_mean, _ = paired_means(n=n, reps=10, seed=102)
            means[n] = weak_mean
            diameters[n] = sum(
                diameter(internet_like(n, seed=derive_seed(102, f"t/{rep}")))
                for rep in range(10)
            ) / 10
        # Nodes doubled; sessions must grow by far less than 2x...
        assert means[60] / means[30] < 1.5
        # ...and diameter growth is similarly small.
        assert diameters[60] / diameters[30] < 1.5

    def test_flat_demand_degrades_to_weak_consistency(self):
        """§8: "The worst case would be when all the replicas possess
        the same demand; in such a situation the algorithm behaves like
        a normal weak consistency algorithm."
        """
        from repro.demand.static import ConstantDemand

        topo = internet_like(30, seed=9)
        fast = ReplicationSystem(
            topo, ConstantDemand(5.0), fast_consistency(), seed=9
        )
        fast.start()
        update = fast.inject_write(0)
        fast.run_until_replicated(update.uid, max_time=100.0)
        kinds = fast.network.counters.by_kind
        assert kinds.get("fast-offer", 0) == 0  # the push never fires

    def test_fast_update_bytes_are_few(self):
        """§8: the algorithm "requires few additional bytes in the
        exchange of messages between replicas."
        """
        from repro.core.metrics import TrafficMeter

        topo = internet_like(40, seed=11)
        demand = UniformRandomDemand(seed=11)
        totals = {}
        for name, config in (
            ("weak", weak_consistency()),
            ("fast", fast_consistency()),
        ):
            system = ReplicationSystem(topo, demand, config, seed=11)
            system.start()
            system.inject_write(0)
            system.run_until(10.0)
            totals[name] = TrafficMeter(system.network).report()
        assert totals["fast"].bytes_total < totals["weak"].bytes_total * 1.3
        assert totals["fast"].fast_byte_overhead < 0.2

    def test_updates_flow_downhill_toward_demand(self):
        """§2: updates are "attracted or directed to nodes or regions
        with higher demand" — on average, higher-demand replicas see the
        update earlier.
        """
        topo = internet_like(50, seed=12)
        demand = UniformRandomDemand(seed=12)
        system = ReplicationSystem(topo, demand, fast_consistency(), seed=12)
        system.start()
        update = system.inject_write(0)
        system.run_until_replicated(update.uid, max_time=100.0)
        times = system.apply_times(update.uid)
        snap = demand.snapshot(topo.nodes)
        ranked = sorted((n for n in topo.nodes if n != 0), key=lambda n: -snap[n])
        top_quarter = ranked[: len(ranked) // 4]
        bottom_quarter = ranked[-len(ranked) // 4 :]
        mean_top = sum(times[n] for n in top_quarter) / len(top_quarter)
        mean_bottom = sum(times[n] for n in bottom_quarter) / len(bottom_quarter)
        assert mean_top < mean_bottom
