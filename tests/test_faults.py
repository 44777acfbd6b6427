"""Tests for the fault & churn scenario subsystem (repro.faults)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.metrics import post_heal_convergence_time, staleness_under_partition
from repro.core.system import ReplicationSystem
from repro.core.variants import weak_consistency
from repro.demand.static import ConstantDemand
from repro.errors import ExperimentError, FaultError
from repro.experiments.backends import SerialBackend
from repro.experiments.harness import TrialSpec, rep_seeds, run_trial
from repro.experiments.plan import ExperimentPlan
from repro.experiments.scenarios import FAULTS, build_faults, build_system
from repro.faults import (
    PACKET_ACTIONS,
    FaultEvent,
    FaultProcess,
    FaultSchedule,
    ShockableDemand,
    apply_fault,
    corrupt_frame,
    corrupt_storm,
    demand_shock,
    flapping_links,
    heal,
    join,
    latency_shock,
    leave,
    link_down,
    link_up,
    lossy_wan,
    node_down,
    node_up,
    packet_duplicate,
    packet_reorder,
    partition,
    poisson_churn,
    prepare_demand,
    rolling_restart,
    split_brain,
)
from repro.runtime.base import FaultInjector
from repro.topology.simple import line, ring


def weak_system(topo, seed=1) -> ReplicationSystem:
    return ReplicationSystem(topo, ConstantDemand(5.0), weak_consistency(), seed=seed)


# ---------------------------------------------------------------------------
# Schedule data model
# ---------------------------------------------------------------------------


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        sched = FaultSchedule(events=(node_up(5.0, 1), node_down(2.0, 1)))
        assert [e.time for e in sched.events] == [2.0, 5.0]

    def test_equality_and_pickle_roundtrip(self):
        sched = FaultSchedule(
            events=(partition(1.0, [[0, 1], [2]]), heal(4.0)), name="x"
        )
        clone = pickle.loads(pickle.dumps(sched))
        assert clone == sched
        assert clone.events[0].args == (((0, 1), (2,)),)

    def test_merge_preserves_all_events(self):
        a = FaultSchedule(events=(node_down(1.0, 0), node_up(2.0, 0)), name="a")
        b = FaultSchedule(events=(link_down(1.5, 0, 1), link_up(3.0, 0, 1)), name="b")
        merged = a + b
        assert len(merged) == 4
        assert merged.name == "a+b"
        assert [e.time for e in merged.events] == [1.0, 1.5, 2.0, 3.0]

    def test_validate_rejects_bad_events(self):
        with pytest.raises(FaultError):
            FaultSchedule(events=(FaultEvent(-1.0, "node_down", (0,)),)).validate()
        with pytest.raises(FaultError):
            FaultSchedule(events=(FaultEvent(0.0, "meteor", ()),)).validate()
        with pytest.raises(FaultError):
            FaultSchedule(events=(FaultEvent(0.0, "node_down", ()),)).validate()
        with pytest.raises(FaultError):
            FaultSchedule(events=(FaultEvent(0.0, "partition", (((),),)),)).validate()
        with pytest.raises(FaultError):
            FaultSchedule(events=(FaultEvent(0.0, "demand_shock", ((1,), -2.0)),)).validate()

    def test_partition_windows_and_last_heal(self):
        sched = FaultSchedule(
            events=(
                partition(2.0, [[0], [1]]),
                heal(5.0),
                partition(7.0, [[0], [1]]),
                partition(8.0, [[0, 1], [2]]),  # re-split closes the window
                heal(11.0),
            )
        )
        assert sched.partition_windows() == [(2.0, 5.0), (7.0, 8.0), (8.0, 11.0)]
        assert sched.last_heal_time() == 11.0

    def test_unhealed_partition_window_is_open(self):
        sched = FaultSchedule(events=(partition(2.0, [[0], [1]]),))
        assert sched.partition_windows() == [(2.0, None)]
        assert sched.last_heal_time() is None
        assert not sched.always_recovers()

    def test_down_intervals_pair_crash_with_recovery(self):
        sched = FaultSchedule(
            events=(node_down(1.0, 3), leave(2.0, 4), node_up(5.0, 3), join(6.0, 4))
        )
        assert sched.down_intervals() == {3: [(1.0, 5.0)], 4: [(2.0, 6.0)]}
        assert sched.affected_nodes() == (3, 4)
        assert sched.always_recovers()

    def test_open_down_interval_blocks_recovery_claim(self):
        sched = FaultSchedule(events=(node_down(1.0, 3),))
        assert sched.down_intervals() == {3: [(1.0, None)]}
        assert not sched.always_recovers()

    def test_last_shock_time(self):
        sched = FaultSchedule(
            events=(demand_shock(2.0, [0], 5.0), demand_shock(6.0, [1], 2.0))
        )
        assert sched.last_shock_time() == 6.0
        assert FaultSchedule(events=(heal(3.0),)).last_shock_time() is None

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert FaultSchedule().duration == 0.0
        assert FaultSchedule(events=(heal(3.0),)).duration == 3.0


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


class TestGenerators:
    def test_generators_are_pure_functions_of_seed(self):
        topo = ring(10)
        for factory in (poisson_churn, flapping_links, split_brain, rolling_restart):
            assert factory(topo, 7) == factory(topo, 7), factory.__name__
            assert factory(topo, 7).validate()

    def test_generators_always_recover(self):
        topo = ring(12)
        for seed in range(5):
            for name, factory in sorted(FAULTS.items()):
                assert factory(topo, seed).always_recovers(), (name, seed)

    def test_poisson_churn_uses_leave_join_pairs(self):
        sched = poisson_churn(ring(10), seed=3, rate=0.5, horizon=20.0)
        actions = {e.action for e in sched.events}
        assert actions <= {"leave", "join"}
        assert sched.always_recovers()

    def test_poisson_churn_bounds_concurrent_downs(self):
        sched = poisson_churn(
            ring(9), seed=1, rate=5.0, mean_downtime=50.0, horizon=10.0,
            max_concurrent_fraction=0.34,
        )
        # Sweep the schedule counting simultaneously-open intervals.
        intervals = [iv for ivs in sched.down_intervals().values() for iv in ivs]
        times = sorted({t for iv in intervals for t in iv if t is not None})
        for t in times:
            down = sum(1 for start, end in intervals if start <= t < (end or 1e18))
            assert down <= 3

    def test_split_brain_covers_all_nodes_in_two_groups(self):
        topo = line(11)
        sched = split_brain(topo, seed=2)
        groups = sched.events[0].args[0]
        assert len(groups) == 2
        assert sorted(n for g in groups for n in g) == sorted(topo.nodes)
        assert sched.last_heal_time() == 16.0

    @pytest.mark.parametrize("seed", range(10))
    def test_split_brain_sides_are_both_connected(self, seed):
        # A spanning-tree edge cut: each side must stay internally
        # connected (anti-entropy keeps converging within it), on both
        # the pathological line and a richer ring.
        for topo in (line(10), ring(9)):
            groups = split_brain(topo, seed=seed).events[0].args[0]
            for group in groups:
                assert topo.subgraph(group).is_connected(), (seed, group)

    def test_flapping_links_only_touches_real_edges(self):
        topo = ring(8)
        sched = flapping_links(topo, seed=4)
        for event in sched.events:
            a, b = event.args
            assert topo.has_edge(a, b)

    def test_rolling_restart_restarts_each_node_once(self):
        topo = ring(6)
        sched = rolling_restart(topo, seed=9)
        intervals = sched.down_intervals()
        assert sorted(intervals) == sorted(topo.nodes)
        assert all(len(ivs) == 1 for ivs in intervals.values())

    def test_split_brain_rejects_disconnected_topology(self):
        from repro.topology.graph import Topology

        topo = Topology("disconnected")
        for n in range(4):
            topo.add_node(n)
        topo.add_edge(0, 1)
        topo.add_edge(1, 2)  # node 3 is isolated
        for seed in range(4):  # whichever node the seed picks as root
            with pytest.raises(FaultError, match="connected"):
                split_brain(topo, seed=seed)

    def test_generator_parameter_validation(self):
        topo = ring(6)
        with pytest.raises(FaultError):
            poisson_churn(topo, 1, rate=-1.0)
        with pytest.raises(FaultError):
            flapping_links(topo, 1, fraction=0.0)
        with pytest.raises(FaultError):
            split_brain(topo, 1, at=5.0, heal_at=5.0)
        with pytest.raises(FaultError):
            split_brain(line(1), 1)
        with pytest.raises(FaultError):
            rolling_restart(topo, 1, downtime=0.0)


# ---------------------------------------------------------------------------
# ShockableDemand + FaultProcess
# ---------------------------------------------------------------------------


class TestShockableDemand:
    def test_shock_is_time_aware(self):
        demand = ShockableDemand(ConstantDemand(10.0))
        demand.apply_shock([1, 2], factor=3.0, at=5.0)
        assert demand.demand(1, 4.9) == 10.0
        assert demand.demand(1, 5.0) == 30.0
        assert demand.demand(3, 9.0) == 10.0  # unshocked node

    def test_shocks_compose_multiplicatively(self):
        demand = ShockableDemand(ConstantDemand(2.0))
        demand.apply_shock([0], factor=3.0, at=1.0)
        demand.apply_shock([0], factor=5.0, at=2.0)
        assert demand.demand(0, 1.5) == 6.0
        assert demand.demand(0, 2.5) == 30.0

    def test_negative_factor_rejected(self):
        with pytest.raises(FaultError):
            ShockableDemand(ConstantDemand(1.0)).apply_shock([0], -1.0, at=0.0)

    def test_prepare_demand_only_wraps_when_needed(self):
        inner = ConstantDemand(1.0)
        shocked = FaultSchedule(events=(demand_shock(1.0, [0], 2.0),))
        plain = FaultSchedule(events=(heal(1.0),))
        assert prepare_demand(inner, shocked) is not inner
        assert prepare_demand(inner, plain) is inner
        assert prepare_demand(inner, None) is inner


class TestFaultProcess:
    def test_blocked_link_stalls_convergence_until_restored(self):
        system = weak_system(line(4))
        process = FaultProcess(
            system, FaultSchedule(events=(link_down(0.5, 1, 2), link_up(30.0, 1, 2)))
        )
        system.start()
        update = system.inject_write(0)
        done = system.run_until_replicated(update.uid, max_time=100.0)
        assert done is not None and done > 30.0
        assert process.stats == {"link_down": 1, "link_up": 1}

    def test_partition_heal_applied(self):
        system = weak_system(line(4))
        process = FaultProcess(
            system,
            FaultSchedule(events=(partition(0.5, [[0, 1], [2, 3]]), heal(20.0))),
        )
        system.start()
        update = system.inject_write(0)
        done = system.run_until_replicated(update.uid, max_time=100.0)
        assert done is not None and done > 20.0
        assert process.stats == {"partition": 1, "heal": 1}

    def test_leave_parks_handler_and_join_restores_it(self):
        system = weak_system(line(4))
        original = system.network.handler_for(2)
        process = FaultProcess(
            system, FaultSchedule(events=(leave(0.5, 2), join(10.0, 2)))
        )
        system.start()
        system.sim.run(until=5.0)
        assert system.network.handler_for(2) is None
        assert not system.network.links.node_is_up(2)
        system.sim.run(until=12.0)
        assert system.network.handler_for(2) is original
        assert system.network.links.node_is_up(2)
        assert process.stats == {"leave": 1, "join": 1}

    def test_node_up_after_leave_restores_parked_handler(self):
        # The schedule data model pairs any down action with any up
        # action (down_intervals), so node_up closing a leave interval
        # must re-attach the parked handler too — and the system must
        # actually re-converge afterwards.
        topo = line(4)
        system = weak_system(topo)
        original = system.network.handler_for(2)
        schedule = FaultSchedule(events=(leave(0.5, 2), node_up(10.0, 2)))
        assert schedule.always_recovers()
        FaultProcess(system, schedule)
        system.start()
        update = system.inject_write(0)
        done = system.run_until_replicated(update.uid, max_time=100.0)
        assert system.network.handler_for(2) is original
        assert done is not None and done > 10.0

    def test_demand_shock_without_wrapper_is_skipped(self):
        system = weak_system(line(3))
        process = FaultProcess(
            system, FaultSchedule(events=(demand_shock(1.0, [0], 9.0),))
        )
        system.start()
        system.sim.run(until=2.0)
        assert process.stats == {}
        assert len(process.skipped) == 1

    def test_demand_shock_with_wrapper_applies(self):
        topo = line(3)
        demand = ShockableDemand(ConstantDemand(4.0))
        system = ReplicationSystem(topo, demand, weak_consistency(), seed=1)
        process = FaultProcess(
            system, FaultSchedule(events=(demand_shock(1.0, [2], 9.0),))
        )
        system.start()
        system.sim.run(until=2.0)
        assert process.stats == {"demand_shock": 1}
        assert system.demand.demand(2, system.sim.now) == 36.0

    def test_past_events_rejected(self):
        system = weak_system(line(3))
        system.start()
        system.sim.run(until=5.0)
        with pytest.raises(FaultError):
            FaultProcess(system, FaultSchedule(events=(heal(1.0),)))


# ---------------------------------------------------------------------------
# Partition metrics
# ---------------------------------------------------------------------------


class TestPartitionMetrics:
    def test_post_heal_zero_when_converged_before_heal(self):
        times = {0: 1.0, 1: 2.0}
        assert post_heal_convergence_time(times, [0, 1], heal_time=5.0) == 0.0

    def test_post_heal_measures_tail_after_heal(self):
        times = {0: 1.0, 1: 8.5}
        assert post_heal_convergence_time(times, [0, 1], heal_time=5.0) == 3.5

    def test_post_heal_none_when_node_missing(self):
        assert post_heal_convergence_time({0: 1.0}, [0, 1], heal_time=5.0) is None

    def test_staleness_bounds(self):
        # Node 0 converged pre-split: zero staleness. Node 1 never
        # converged: stale the whole window. Node 2: half the window.
        times = {0: 1.0, 2: 7.0}
        value = staleness_under_partition(times, [0, 1, 2], start=4.0, heal=10.0)
        assert value == pytest.approx((0.0 + 6.0 + 3.0) / 3)

    def test_staleness_rejects_degenerate_inputs(self):
        with pytest.raises(ExperimentError):
            staleness_under_partition({}, [], start=0.0, heal=1.0)
        with pytest.raises(ExperimentError):
            staleness_under_partition({}, [0], start=2.0, heal=2.0)


# ---------------------------------------------------------------------------
# Registry + pipeline integration
# ---------------------------------------------------------------------------


class TestFaultsRegistry:
    def test_build_faults_resolves_names(self):
        sched = build_faults("split_brain", line(8), seed=1)
        assert sched.name == "split_brain"
        assert build_faults("none", line(8), seed=1) == FaultSchedule(name="none")

    def test_build_faults_unknown_name(self):
        with pytest.raises(ExperimentError, match="unknown fault regime"):
            build_faults("gremlins", line(8))

    def test_build_system_installs_fault_process(self):
        system = build_system(topology="line", variant="fast", n=8, seed=2,
                              faults="split_brain")
        assert system.fault_process is not None
        assert system.fault_process.schedule.name == "split_brain"
        system.start()
        update = system.inject_write(list(system.topology.nodes)[0])
        assert system.run_until_replicated(update.uid, max_time=200.0) is not None

    def test_build_system_without_faults_has_none(self):
        system = build_system(topology="line", variant="fast", n=6, seed=2)
        assert system.fault_process is None

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    def test_every_fault_regime_runs_and_converges(self, faults):
        plan = ExperimentPlan(
            name="t", topology="line", demand="uniform", variants=("fast",),
            faults=(faults,), n=8, reps=1, seed=3, max_time=300.0,
        )
        label = "fast" if faults == "none" else f"fast@{faults}"
        trial = plan.run().series[label].trials[0]
        assert trial.time_all is not None


class TestFaultedPlans:
    def small_plan(self, **overrides) -> ExperimentPlan:
        defaults = dict(
            name="t", topology="line", demand="uniform",
            variants=("weak", "fast"), faults=("none", "split_brain"),
            n=10, reps=2, seed=5, max_time=200.0,
        )
        defaults.update(overrides)
        return ExperimentPlan(**defaults)

    def test_expansion_is_fault_major_within_rep(self):
        plan = self.small_plan()
        specs = plan.scenarios()
        assert len(specs) == plan.total_trials() == 8
        first_rep = [(s.faults, s.variant) for s in specs[:4]]
        assert first_rep == [
            ("none", "weak"), ("none", "fast"),
            ("split_brain", "weak"), ("split_brain", "fast"),
        ]

    def test_fault_seed_shared_within_rep(self):
        for spec in self.small_plan().scenarios():
            assert spec.fault_seed == rep_seeds(5, spec.rep).faults

    def test_series_labels(self):
        plan = self.small_plan()
        assert plan.series_labels() == (
            "weak", "fast", "weak@split_brain", "fast@split_brain"
        )
        result = plan.run()
        assert tuple(result.series) == plan.series_labels()
        assert result.params["faults"] == ["none", "split_brain"]

    def test_single_string_faults_coerced(self):
        plan = self.small_plan(faults="split_brain")
        assert plan.faults == ("split_brain",)

    def test_single_string_variants_coerced(self):
        plan = self.small_plan(variants="weak")
        assert plan.variants == ("weak",)
        assert plan.validate()

    def test_validation_rejects_bad_fault_axes(self):
        with pytest.raises(ExperimentError):
            self.small_plan(faults=()).scenarios()
        with pytest.raises(ExperimentError):
            self.small_plan(faults=("none", "none")).scenarios()
        with pytest.raises(ExperimentError):
            self.small_plan(faults=("gremlins",)).scenarios()

    def test_faulted_scenario_spec_pickles(self):
        spec = self.small_plan().scenarios()[-1]
        assert spec.faults == "split_brain"
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_healthy_plan_unchanged_by_faults_axis(self):
        """The default axis must reproduce pre-faults results bit-for-bit."""
        base = ExperimentPlan(
            name="t", topology="ring", demand="uniform",
            variants=("weak",), n=8, reps=2, seed=4,
        )
        explicit = ExperimentPlan(
            name="t", topology="ring", demand="uniform",
            variants=("weak",), faults=("none",), n=8, reps=2, seed=4,
        )
        assert base.run().to_dict() == explicit.run().to_dict()

    def test_post_heal_recorded_only_for_healed_partitions(self):
        result = self.small_plan(reps=2).run(SerialBackend())
        for trial in result.series["weak@split_brain"].trials:
            assert trial.time_post_heal is not None
            assert trial.time_post_heal >= 0.0
        for trial in result.series["weak"].trials:
            assert trial.time_post_heal is None

    def test_run_trial_accepts_explicit_schedule(self):
        topo = line(5)
        spec = TrialSpec(
            topology=topo,
            demand=ConstantDemand(5.0),
            config=weak_consistency(),
            seed=3,
            origin=0,
            max_time=120.0,
            faults=FaultSchedule(
                events=(partition(0.5, [[0, 1], [2, 3, 4]]), heal(30.0))
            ),
        )
        trial, system = run_trial(spec)
        assert system.fault_process is not None
        assert trial.time_all is not None and trial.time_all > 30.0
        assert trial.time_post_heal == pytest.approx(trial.time_all - 30.0)

    def test_shocked_hot_set_metric_recorded(self):
        # A shock that flips the hottest node must be observable: the
        # post-shock ranking differs from the t=0 one, and only shocked
        # series carry the measurement.
        result = self.small_plan(
            variants=("fast",), faults=("none", "demand_shock"), reps=2
        ).run()
        for trial in result.series["fast@demand_shock"].trials:
            assert trial.time_top_shocked is not None
        for trial in result.series["fast"].trials:
            assert trial.time_top_shocked is None

    def test_time_top_shocked_ranks_by_post_shock_demand(self):
        topo = line(5)
        schedule = FaultSchedule(
            # Node 4 becomes by far the hottest at t=1.
            events=(demand_shock(1.0, [4], 1000.0),)
        )
        spec = TrialSpec(
            topology=topo,
            demand=ConstantDemand(5.0),
            config=weak_consistency(),
            seed=3,
            origin=0,
            max_time=120.0,
            top_fraction=0.2,
            faults=schedule,
        )
        trial, _system = run_trial(spec)
        # time_top (pre-shock, all-equal demand -> node 0 by id tie-break)
        # converges instantly at the origin; the shocked top set is node 4
        # at the far end of the line, so it must take strictly longer.
        assert trial.time_top == 0.0
        assert trial.time_top_shocked is not None
        assert trial.time_top_shocked > trial.time_top

    def test_fast_beats_weak_under_split_brain(self):
        """The headline robustness claim, asserted on paired seeds."""
        result = self.small_plan(reps=3).run()
        weak = result.series["weak@split_brain"].mean_post_heal()
        fast = result.series["fast@split_brain"].mean_post_heal()
        assert weak is not None and fast is not None
        assert fast <= weak


# ---------------------------------------------------------------------------
# Packet-level faults
# ---------------------------------------------------------------------------


class TestPacketFaultSchedule:
    def all_four(self) -> FaultSchedule:
        return FaultSchedule(
            events=(
                latency_shock(1.0, 3.0, 5.0),
                packet_reorder(1.5, 0.5, 2.0, 5.0),
                packet_duplicate(2.0, 0.5, 5.0),
                corrupt_frame(2.5, 0.5, 5.0),
            ),
            name="packet-mix",
        ).validate()

    def test_constructors_carry_duration_last(self):
        sched = self.all_four()
        for event in sched.events:
            assert event.action in PACKET_ACTIONS
            assert event.args[-1] == 5.0

    def test_has_packet_faults_and_window_end(self):
        sched = self.all_four()
        assert sched.has_packet_faults()
        assert sched.last_packet_window_end() == pytest.approx(7.5)
        plain = FaultSchedule(events=(node_down(1.0, 0), node_up(2.0, 0)))
        assert not plain.has_packet_faults()
        assert plain.last_packet_window_end() is None

    def test_pickle_round_trip(self):
        sched = self.all_four()
        assert pickle.loads(pickle.dumps(sched)) == sched

    def test_sim_network_drops_and_meters_corrupt_frames(self):
        # probability-1 corruption over the whole run: every channel
        # send is dropped on arrival and metered, and the fault process
        # accounts the window as applied.
        topo = line(3)
        schedule = FaultSchedule(
            events=(corrupt_frame(0.0, 1.0, 500.0),), name="storm"
        )
        system = weak_system(topo, seed=3)
        process = FaultProcess(system, schedule)
        system.start()
        system.inject_write(0)
        system.run_until(50.0)
        assert process.stats == {"corrupt_frame": 1}
        assert not process.skipped
        counters = system.network.counters
        assert counters.corrupt_frames_dropped > 0
        # Nothing survives a probability-1 corrupt window.
        assert counters.messages_delivered == 0

    def test_sim_duplicate_and_reorder_windows_meter(self):
        topo = line(3)
        # The reorder window is finite: with every message delayed by
        # up to 4 extra units the anti-entropy timers can starve, so
        # convergence is only guaranteed once the window expires.
        schedule = FaultSchedule(
            events=(
                packet_duplicate(0.0, 1.0, 500.0),
                packet_reorder(0.0, 1.0, 4.0, 30.0),
            ),
            name="wan",
        )
        system = weak_system(topo, seed=4)
        FaultProcess(system, schedule)
        system.start()
        update = system.inject_write(0)
        assert system.run_until_replicated(update.uid, max_time=500.0) is not None
        counters = system.network.counters
        assert counters.duplicates_suppressed > 0
        assert counters.reorders_applied > 0
        snapshot = counters.snapshot()
        for key in (
            "corrupt_frames_dropped",
            "duplicates_suppressed",
            "reorders_applied",
        ):
            assert key in snapshot

    def test_packet_fault_default_injector_skips(self):
        # An injector that does not override packet_fault() reports the
        # event unappliable, and replays count it as skipped — the
        # sim == live parity accounting for transports without packet
        # support.
        class Bare(FaultInjector):
            def crash_node(self, node):  # pragma: no cover - unused
                pass

            def recover_node(self, node):  # pragma: no cover - unused
                pass

            def set_link(self, a, b, up):  # pragma: no cover - unused
                pass

            def partition(self, groups):  # pragma: no cover - unused
                pass

            def heal(self):  # pragma: no cover - unused
                pass

            def shock_demand(self, nodes, factor):  # pragma: no cover
                return False

        event = corrupt_frame(1.0, 0.5, 2.0)
        assert apply_fault(Bare(), event) is False


class TestPacketGenerators:
    def test_lossy_wan_deterministic_and_valid(self):
        topo = line(6)
        a = lossy_wan(topo, seed=11)
        b = lossy_wan(topo, seed=11)
        c = lossy_wan(topo, seed=12)
        assert a == b
        assert a != c
        assert a.has_packet_faults()
        assert a.validate() is a
        actions = {e.action for e in a.events}
        assert "latency_shock" in actions
        assert actions <= PACKET_ACTIONS

    def test_corrupt_storm_deterministic_and_valid(self):
        topo = line(6)
        a = corrupt_storm(topo, seed=11)
        assert a == corrupt_storm(topo, seed=11)
        assert a != corrupt_storm(topo, seed=13)
        assert a.has_packet_faults()
        assert any(e.action == "corrupt_frame" for e in a.events)
        assert a.validate() is a

    def test_registered_in_fault_regimes(self):
        for name in ("lossy_wan", "corrupt_storm"):
            assert name in FAULTS
            sched = build_faults(name, line(6), seed=2)
            assert sched.name == name
            assert sched.has_packet_faults()
