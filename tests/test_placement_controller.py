"""Placement controller integration tests: the closed loop end to end."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.system import ReplicationSystem
from repro.demand.dynamic import FlashCrowdDemand
from repro.demand.static import ConstantDemand, UniformRandomDemand
from repro.errors import ConfigurationError
from repro.experiments.harness import TrialSpec, run_trial
from repro.experiments.plan import ExperimentPlan, ScenarioSpec, series_label
from repro.experiments.scenarios import PLACEMENTS, build_placement
from repro.placement import (
    DemandReport,
    PlacementAck,
    PlacementCommand,
    PlacementController,
    PlacementSetup,
    placement_traffic,
    replica_count_series,
)
from repro.topology.simple import grid

HOT = [5, 10]


def flash_system(seed=42, factor=12.0):
    topo = grid(4, 4)
    demand = FlashCrowdDemand(
        UniformRandomDemand(2.0, 10.0, seed=7),
        hot_nodes=HOT,
        start=10.0,
        end=45.0,
        factor=factor,
    )
    return ReplicationSystem(topo, demand, ProtocolConfig(), seed=seed)


def run_controlled(system, setup, home=0, until=80.0):
    controller = PlacementController(system, setup, home=home)
    system.start()
    controller.start()
    update = system.inject_write(home)
    system.run_until_replicated(update.uid, max_time=until)
    if system.sim.now < until:
        system.run_until(until)
    return controller, update


class TestControlLoop:
    def test_flash_crowd_scales_up_then_down(self):
        system = flash_system()
        controller, _ = run_controlled(system, PlacementSetup(capacity=25.0))
        assert controller.spawned_total > 0
        assert controller.retired_total == controller.spawned_total
        assert controller.total_copies() == 0  # back to baseline
        spawn_times = [t for t, k, _, _ in controller.events if k == "spawn"]
        retire_times = [t for t, k, _, _ in controller.events if k == "retire"]
        # Scale-up happens inside the [10, 45) flash window (plus one
        # observation cycle); scale-down after it closes.
        assert all(10.0 <= t < 50.0 for t in spawn_times)
        assert all(t >= 45.0 for t in retire_times)
        # Only the hot sites got copies.
        assert {site for _, k, site, _ in controller.events if k == "spawn"} == set(
            HOT
        )

    def test_trajectory_rises_and_falls(self):
        system = flash_system()
        controller, _ = run_controlled(system, PlacementSetup(capacity=25.0))
        trajectory = replica_count_series(controller.events, 80)
        assert max(trajectory) == controller.peak_copies > 0
        assert trajectory[0] == 0 and trajectory[-1] == 0

    def test_control_traffic_is_metered(self):
        system = flash_system()
        controller, _ = run_controlled(system, PlacementSetup(capacity=25.0))
        traffic = placement_traffic(system.network)
        # Sent >= received: a report can still be in flight at cutoff.
        assert traffic.report_messages >= controller.reports_received > 0
        assert traffic.command_messages >= controller.commands_sent > 0
        assert traffic.report_bytes == 28 * traffic.report_messages
        assert traffic.bytes > 0
        # Placement kinds land in the shared counters too.
        assert system.network.counters.by_kind["placement-report"] > 0

    def test_spawned_replicas_bootstrap_and_converge(self):
        system = flash_system()
        setup = PlacementSetup(capacity=25.0)
        controller, update = run_controlled(system, setup)
        spawned = [r for _, k, _, r in controller.events if k == "spawn"]
        times = system.apply_times(update.uid)
        # Every spawned copy absorbed the tracked write via anti-entropy.
        assert all(r in times for r in spawned)
        # And was later retired properly.
        assert set(spawned) <= system.retired
        assert all(r not in system.active_nodes for r in spawned)

    def test_runs_are_deterministic(self):
        def events_of():
            system = flash_system()
            controller, _ = run_controlled(system, PlacementSetup(capacity=25.0))
            return controller.events, system.network.counters.snapshot()

        first = events_of()
        second = events_of()
        assert first == second

    def test_steady_demand_never_spawns(self):
        topo = grid(3, 3)
        system = ReplicationSystem(
            topo, ConstantDemand(5.0), ProtocolConfig(), seed=1
        )
        controller, _ = run_controlled(
            system, PlacementSetup(capacity=25.0), until=40.0
        )
        assert controller.spawned_total == 0
        assert controller.cycles_run > 0

    def test_unknown_home_rejected(self):
        system = flash_system()
        with pytest.raises(ConfigurationError, match="home"):
            PlacementController(system, PlacementSetup(), home=99)

    def test_double_start_rejected(self):
        system = flash_system()
        controller = PlacementController(system, PlacementSetup(), home=0)
        system.start()
        controller.start()
        with pytest.raises(ConfigurationError, match="started"):
            controller.start()


class TestHarnessIntegration:
    def _spec(self, placement):
        topo = grid(4, 4)
        demand = FlashCrowdDemand(
            UniformRandomDemand(2.0, 10.0, seed=7),
            hot_nodes=HOT,
            start=10.0,
            end=45.0,
            factor=12.0,
        )
        return TrialSpec(
            topology=topo,
            demand=demand,
            config=ProtocolConfig(),
            seed=11,
            origin=0,
            max_time=80.0,
            placement=placement,
        )

    def test_autoscaler_beats_static_on_satisfaction(self):
        static, _ = run_trial(self._spec(PlacementSetup(policy="static")))
        auto, _ = run_trial(self._spec(PlacementSetup(policy="threshold")))
        assert static.satisfied_area is not None
        assert auto.satisfied_area > static.satisfied_area
        assert static.replicas_spawned == 0 and static.placement_bytes == 0
        assert auto.replicas_spawned > 0 and auto.placement_bytes > 0
        assert auto.replicas_peak >= 1

    def test_placement_free_trials_record_nothing(self):
        trial, _ = run_trial(self._spec(None))
        assert trial.satisfied_area is None
        assert trial.replicas_spawned is None
        assert trial.placement_bytes is None

    def test_base_metrics_ignore_spawned_copies(self):
        # n_nodes and diameter describe the base topology even though
        # the controller grows the graph during the run.
        trial, _ = run_trial(self._spec(PlacementSetup(policy="threshold")))
        assert trial.n_nodes == 16
        assert trial.diameter == 6


class TestPlanAxis:
    def test_series_label_suffixes(self):
        assert series_label("fast", "none") == "fast"
        assert series_label("fast", "none", "threshold") == "fast+threshold"
        assert (
            series_label("fast", "split_brain", "static")
            == "fast@split_brain+static"
        )

    def test_scenario_key_back_compat(self):
        spec = ScenarioSpec(
            experiment="e", rep=3, variant="fast", topology="grid",
            demand="uniform", n=16, topo_seed=1, demand_seed=2, sim_seed=3,
            origin_seed=4,
        )
        assert spec.key() == "rep=3/faults=none/variant=fast"
        placed = ScenarioSpec(
            experiment="e", rep=3, variant="fast", topology="grid",
            demand="uniform", n=16, topo_seed=1, demand_seed=2, sim_seed=3,
            origin_seed=4, placement="threshold",
        )
        assert placed.key() == "rep=3/faults=none/variant=fast/placement=threshold"

    def test_plan_expands_placements_axis(self):
        plan = ExperimentPlan(
            name="p", topology="grid", demand="flash-crowd",
            variants=("fast",), placements=("static", "threshold"),
            n=16, reps=2, seed=3,
        )
        assert plan.total_trials() == 4
        assert plan.series_labels() == ("fast+static", "fast+threshold")
        placements = [s.placement for s in plan.scenarios()]
        assert placements == ["static", "threshold", "static", "threshold"]

    def test_plan_validates_placement_keys(self):
        from repro.errors import ExperimentError

        plan = ExperimentPlan(name="p", placements=("bogus",))
        with pytest.raises(ExperimentError, match="placement"):
            plan.validate()

    def test_registry_builds_every_regime(self):
        for name in PLACEMENTS:
            setup = build_placement(name)
            if name == "none":
                assert setup is None
            else:
                assert setup.validate() is not None

    def test_placement_sweep_serial_equals_process(self):
        from repro.experiments.backends import ProcessPoolBackend, SerialBackend

        plan = ExperimentPlan(
            name="p", topology="grid", demand="flash-crowd",
            variants=("fast",), placements=("static", "threshold"),
            n=16, reps=2, seed=3,
        )
        serial = plan.run(SerialBackend())
        with ProcessPoolBackend(max_workers=2) as pool:
            parallel = plan.run(pool)
        for label in serial.series:
            assert (
                serial.series[label].trials == parallel.series[label].trials
            ), label
        auto = serial.series["fast+threshold"].mean_satisfied_area()
        static = serial.series["fast+static"].mean_satisfied_area()
        assert auto > static


class TestControlPlaneHardening:
    """Seq numbers, idempotent commands, retries, crash checkpoints."""

    def steady_controlled(self, seed=1):
        topo = grid(3, 3)
        system = ReplicationSystem(
            topo, ConstantDemand(5.0), ProtocolConfig(), seed=seed
        )
        controller = PlacementController(
            system, PlacementSetup(capacity=25.0), home=0
        )
        system.start()
        controller.start()
        return system, controller

    def test_seq_costs_no_metered_bytes(self):
        # The seq rides the framing header: adding it must not perturb
        # any byte-overhead result from the pre-hardening control plane.
        assert (
            DemandReport(1, 2.0, seq=9).size_bytes()
            == DemandReport(1, 2.0).size_bytes()
            == 28
        )
        assert (
            PlacementCommand(1, 2, seq=9).size_bytes()
            == PlacementCommand(1, 2).size_bytes()
        )
        assert PlacementAck(1, seq=9).size_bytes() == 28

    def test_stale_report_dropped(self):
        system, controller = self.steady_controlled()
        controller._handle_report(5, DemandReport(5, 10.0, seq=3))
        believed = controller.table.believed(5)
        # An older (reordered/duplicated) report must not roll back.
        controller._handle_report(5, DemandReport(5, 99.0, seq=2))
        assert controller.reports_stale == 1
        assert controller.table.believed(5) == believed
        controller._handle_report(5, DemandReport(5, 50.0, seq=4))
        assert controller.reports_received == 2
        assert controller.table.believed(5) == 50.0

    def test_duplicate_command_applied_once_but_reacked(self):
        system, controller = self.steady_controlled()
        command = PlacementCommand(4, 1, seq=1)
        controller._handle_command(0, command)
        spawned_after_first = controller.spawned_total
        assert spawned_after_first == 1
        # The duplicate re-acks without re-executing.
        controller._handle_command(0, command)
        assert controller.spawned_total == spawned_after_first
        assert system.network.counters.by_kind[PlacementAck.kind] == 2

    def test_unacked_command_retried_then_lands_after_recovery(self):
        system, controller = self.steady_controlled()
        site = 4
        period = controller.setup.cycle_period
        system.network.links.set_node_down(site)
        controller._send_command(site, 1)
        assert controller._outstanding[site] == 1
        assert controller.commands_sent == 1
        # The command (and every retry) is eaten by the crashed site;
        # the backoff chain must fire at least once.
        system.run_until(system.sim.now + period * 1.6)
        assert controller.commands_retried >= 1
        # Once the site recovers, a pending retry lands, the site
        # spawns, and the ack clears the outstanding slot.
        system.network.links.set_node_up(site)
        system.run_until(system.sim.now + period * 16)
        # The retried command landed and was acked; the next organic
        # cycle then retires the now-unneeded copy with a fresh seq.
        assert controller._site_applied_seq.get(site, 0) >= 1
        assert controller.acks_received >= 1
        assert site not in controller._outstanding
        assert controller.spawned_total == 1

    def test_retries_give_up_after_max_attempts(self):
        from repro.placement.controller import COMMAND_MAX_RETRIES

        system, controller = self.steady_controlled()
        site = 4
        system.network.links.set_node_down(site)
        controller._send_command(site, 1)
        system.run_until(system.sim.now + controller.setup.cycle_period * 64)
        assert controller.commands_retried == COMMAND_MAX_RETRIES
        assert controller.spawned_total == 0

    def test_crash_wipes_volatile_state_and_checkpoint_restores(self):
        system, controller = self.steady_controlled()
        period = controller.setup.cycle_period
        system.run_until(period * 4.5)
        assert controller.cycles_run >= 3
        checkpointed = dict(controller._checkpoint["popularity"])
        assert checkpointed
        # Crash the home: the next cycle notices, loses the volatile
        # state, and runs nothing until recovery.
        system.network.links.set_node_down(controller.home)
        cycles_before = controller.cycles_run
        system.run_until(system.sim.now + period * 3)
        assert controller.crashes == 1
        assert controller.popularity == {}
        assert controller.cycles_run == cycles_before
        # Recovery: the first healthy cycle restores the checkpoint
        # instead of relearning from scratch.
        system.network.links.set_node_up(controller.home)
        system.run_until(system.sim.now + period * 2)
        assert controller.restores == 1
        assert controller.cycles_run > cycles_before
        assert set(controller.popularity) >= set(checkpointed)

    def test_restore_advances_cmd_seq_past_site_applied(self):
        system, controller = self.steady_controlled()
        # Modelled status round: commands issued post-checkpoint were
        # applied (seq 7) before the crash; the restored counter must
        # move past them or fresh commands would be dropped as stale.
        controller._site_applied_seq[5] = 7
        controller._checkpoint = {
            "popularity": {},
            "last_report_seq": {},
            "cmd_seq": {5: 3},
        }
        controller._restore_checkpoint()
        assert controller._cmd_seq[5] == 7

    def test_crash_and_recovery_mid_flash_crowd_still_scales(self):
        # End-to-end: home crashes inside the flash window, recovers,
        # and the loop still spawns copies for the hot sites.
        system = flash_system()
        controller = PlacementController(
            system, PlacementSetup(capacity=25.0), home=0
        )
        system.start()
        controller.start()
        system.run_until(15.0)
        system.network.links.set_node_down(0)
        system.run_until(22.0)
        system.network.links.set_node_up(0)
        system.run_until(80.0)
        assert controller.crashes == 1
        assert controller.restores == 1
        assert controller.spawned_total > 0
        assert {s for _, k, s, _ in controller.events if k == "spawn"} <= set(
            HOT
        )
