"""One trial of the paper's §5 procedure, and the seeds that pair them.

One *trial* = build a fresh random topology and demand assignment,
inject a write at a random replica, and run one protocol variant until
the write is everywhere. :class:`~repro.experiments.plan.ExperimentPlan`
is the one front end that repeats trials: it derives each repetition's
seeds with :func:`rep_seeds` and gives every variant the *same*
topology, demand, origin and timer streams within a repetition, so
variant comparisons are paired and low-variance. Its
:class:`~repro.experiments.plan.ScenarioSpec` builds the live
:class:`TrialSpec` inside whichever process runs it, and
:func:`run_trial` measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from ..core.config import ProtocolConfig
from ..core.metrics import mean_reach_time, post_heal_convergence_time, reach_time
from ..core.system import ReplicationSystem
from ..demand.base import DemandModel
from ..faults.process import prepare_demand
from ..faults.schedule import FaultSchedule
from ..placement.controller import PlacementController
from ..placement.metrics import capacity_satisfied_series, placement_traffic
from ..placement.policies import PlacementSetup
from ..port.rng import derive_seed
from ..topology.analysis import diameter as topo_diameter
from ..topology.graph import Topology
from .results import TrialResult

#: Fraction of nodes counted as the "high demand" subset (Figs. 5-6).
DEFAULT_TOP_FRACTION = 0.1


class RepSeeds(NamedTuple):
    """The five independent seed streams of one repetition."""

    topology: int
    demand: int
    simulator: int
    origin: int
    faults: int


def rep_seeds(seed: int, rep: int) -> RepSeeds:
    """Derive repetition ``rep``'s seeds from the master ``seed``.

    This is the single source of truth for the derivation scheme, so
    the same (seed, rep) always reproduces the same trial no matter
    which backend — or which process — runs it. The faults stream is
    independent of the others, so adding a fault regime to a sweep never
    perturbs the topology, demand, simulator or origin of a repetition.
    """
    return RepSeeds(
        topology=derive_seed(seed, f"topo/{rep}"),
        demand=derive_seed(seed, f"demand/{rep}"),
        simulator=derive_seed(seed, f"sim/{rep}"),
        origin=derive_seed(seed, f"origin/{rep}"),
        faults=derive_seed(seed, f"faults/{rep}"),
    )


@dataclass(frozen=True)
class TrialSpec:
    """Everything needed to run one repetition of one variant."""

    topology: Topology
    demand: DemandModel
    config: ProtocolConfig
    seed: int
    origin: int
    max_time: float = 80.0
    top_fraction: float = DEFAULT_TOP_FRACTION
    loss: float = 0.0
    faults: Optional[FaultSchedule] = None
    placement: Optional[PlacementSetup] = None


def run_trial(spec: TrialSpec) -> Tuple[TrialResult, ReplicationSystem]:
    """Execute one trial; returns the measurements and the used system.

    With ``spec.faults``, the schedule is armed on the simulator before
    the run starts (demand shocks wrap the demand model first — see
    :func:`repro.faults.process.prepare_demand`), and the trial
    additionally records the post-heal convergence time when the
    schedule contains a healed partition.

    With ``spec.placement``, the trial measures the capacity-aware
    satisfaction area (and, unless the regime is ``"static"``, runs a
    :class:`~repro.placement.controller.PlacementController` at the
    origin that spawns/retires replicas from live demand). Placement
    trials keep simulating to ``max_time`` after convergence so the
    scale-down half of the trajectory is observed, and all convergence
    metrics are computed over the *base* topology nodes — spawned
    copies accelerate serving capacity, they do not move the goalposts.
    """
    demand = prepare_demand(spec.demand, spec.faults)
    system = ReplicationSystem(
        topology=spec.topology,
        demand=demand,
        config=spec.config,
        seed=spec.seed,
        loss=spec.loss,
    )
    if spec.faults is not None and spec.faults.events:
        system.fault_process = system.inject_faults(spec.faults)
    # Trial metrics consume the topic bus and traffic counters only —
    # no trace category at all (METRIC_TRACE_CATEGORIES documents what
    # the optional trace-reading helpers need) — so sweeps turn the
    # tracer off wholesale: a disabled tracer costs one attribute check
    # per would-be record.
    system.sim.trace.disable()
    # Captured before the run: a placement controller grows the (shared)
    # topology object as it spawns copies.
    base_nodes = spec.topology.nodes
    diameter = topo_diameter(spec.topology)
    controller = None
    if spec.placement is not None and spec.placement.policy != "static":
        controller = PlacementController(
            system, spec.placement, home=spec.origin, sites=base_nodes
        )
    system.start()
    if controller is not None:
        controller.start()
    update = system.inject_write(spec.origin)
    t0 = system.sim.now
    system.run_until_replicated(update.uid, max_time=spec.max_time)
    if spec.placement is not None and system.sim.now < spec.max_time:
        # Keep the demand/placement dynamics running to the horizon so
        # the satisfaction series and scale-down events are complete.
        system.run_until(spec.max_time)
    times = system.apply_times(update.uid)
    nodes = base_nodes
    top_nodes = spec.demand.top_fraction(nodes, spec.top_fraction, time=0.0)
    top1 = spec.demand.ranked(nodes, time=0.0)[0]
    time_post_heal = None
    time_top_shocked = None
    if spec.faults is not None:
        heal_at = spec.faults.last_heal_time()
        if heal_at is not None:
            time_post_heal = post_heal_convergence_time(times, nodes, heal_at)
        shock_at = spec.faults.last_shock_time()
        if shock_at is not None:
            # Rank by the *post-shock* demand surface (system.demand is
            # the ShockableDemand wrapper here): without this, no sweep
            # metric could tell whether a variant re-routed toward the
            # newly hot region — the point of the demand_shock regime.
            shocked_top = system.demand.top_fraction(
                nodes, spec.top_fraction, time=shock_at
            )
            time_top_shocked = reach_time(times, shocked_top, t0)
    satisfied_area = None
    replicas_spawned = None
    replicas_retired = None
    replicas_peak = None
    placement_bytes = None
    if spec.placement is not None:
        horizon = max(1, int(round(spec.max_time - t0)))
        events = controller.events if controller is not None else ()
        series = capacity_satisfied_series(
            times,
            system.demand,
            horizon,
            nodes,
            spec.placement.capacity,
            events,
            t0,
        )
        satisfied_area = sum(series)
        replicas_spawned = controller.spawned_total if controller else 0
        replicas_retired = controller.retired_total if controller else 0
        replicas_peak = controller.peak_copies if controller else 0
        placement_bytes = placement_traffic(system.network).bytes
    trial = TrialResult(
        rep=-1,
        origin=spec.origin,
        time_all=reach_time(times, nodes, t0),
        time_top=reach_time(times, top_nodes, t0),
        time_top1=reach_time(times, [top1], t0),
        mean_time=mean_reach_time(times, nodes, t0),
        diameter=diameter,
        messages=system.network.counters.messages_sent,
        bytes_sent=system.network.counters.bytes_sent,
        n_nodes=len(nodes),
        time_post_heal=time_post_heal,
        time_top_shocked=time_top_shocked,
        satisfied_area=satisfied_area,
        replicas_spawned=replicas_spawned,
        replicas_retired=replicas_retired,
        replicas_peak=replicas_peak,
        placement_bytes=placement_bytes,
    )
    return trial, system
