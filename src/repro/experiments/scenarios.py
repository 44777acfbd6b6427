"""The scenario registries: names -> builders.

:data:`TOPOLOGIES`, :data:`DEMANDS`, :data:`VARIANTS` and :data:`FAULTS`
are the single source of truth for everything addressable by name — the
CLI, the examples, and (crucially) the declarative experiment pipeline:
:class:`~repro.experiments.plan.ScenarioSpec` carries registry keys and
seeds across process boundaries and workers rebuild the live objects
through these tables. Every builder must therefore be a pure function
of its arguments (same ``(n, seed)`` -> equal topology, same
``(topology, seed)`` -> equal demand values), or parallel and serial
execution would diverge.

:func:`lookup` is the one name resolution, with the one error listing
the known keys; the ``build_*`` helpers call it, and
:func:`build_system` assembles a whole system for one-off runs.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, TypeVar

from ..core.config import ProtocolConfig
from ..core.metrics import METRIC_TRACE_CATEGORIES
from ..core.system import ReplicationSystem
from ..core.variants import (
    dynamic_fast_consistency,
    fast_consistency,
    high_demand_consistency,
    push_only_consistency,
    static_table_consistency,
    weak_consistency,
)
from ..demand.base import DemandModel
from ..demand.dynamic import FlashCrowdDemand
from ..demand.field import two_valley_field
from ..demand.static import ConstantDemand, UniformRandomDemand, ZipfDemand
from ..errors import ExperimentError, ExperimentSizeWarning
from ..faults.generators import (
    corrupt_storm,
    demand_shock_storm,
    flapping_links,
    lossy_wan,
    poisson_churn,
    rolling_restart,
    split_brain,
)
from ..faults.process import prepare_demand
from ..faults.schedule import FaultSchedule
from ..placement.policies import PlacementSetup
from ..topology.brite import internet_like, waxman, BriteConfig
from ..topology.graph import Topology
from ..topology.hierarchical import hierarchical
from ..topology.simple import complete, grid, line, ring, star, torus

import math
import random
import warnings

T = TypeVar("T")

#: name -> topology factory taking (n, seed).
TOPOLOGIES: Dict[str, Callable[[int, int], Topology]] = {
    "ba": lambda n, seed: internet_like(n, m=2, seed=seed),
    "ba-m3": lambda n, seed: internet_like(n, m=3, seed=seed),
    "waxman": lambda n, seed: waxman(BriteConfig(n=n, m=2), random.Random(seed)),
    "line": lambda n, seed: line(n),
    "ring": lambda n, seed: ring(n),
    "star": lambda n, seed: star(n),
    "grid": lambda n, seed: grid(*_square_sides(n)),
    "torus": lambda n, seed: torus(*_square_sides(n)),
    "complete": lambda n, seed: complete(n),
    "cdn": lambda n, seed: hierarchical(seed=seed, **_cdn_shape(n)),
}

#: name -> demand factory taking (topology, seed).
DEMANDS: Dict[str, Callable[[Topology, int], DemandModel]] = {
    "uniform": lambda topo, seed: UniformRandomDemand(0.0, 100.0, seed=seed),
    "zipf": lambda topo, seed: ZipfDemand(topo.nodes, exponent=1.0, seed=seed),
    "constant": lambda topo, seed: ConstantDemand(10.0),
    "two-valleys": lambda topo, seed: _two_valleys(topo),
    "flash-crowd": lambda topo, seed: _flash_crowd(topo, seed),
}

#: name -> fault-schedule factory taking (topology, seed).
FAULTS: Dict[str, Callable[[Topology, int], FaultSchedule]] = {
    "none": lambda topo, seed: FaultSchedule(name="none"),
    "split_brain": split_brain,
    "poisson_churn": poisson_churn,
    "flapping_links": flapping_links,
    "demand_shock": demand_shock_storm,
    "rolling_restart": rolling_restart,
    "lossy_wan": lossy_wan,
    "corrupt_storm": corrupt_storm,
}

#: name -> placement regime constructor (None = placement disabled).
#: ``"none"`` runs the classic harness untouched; ``"static"`` measures
#: the capacity-aware satisfaction metric without a controller (the
#: baseline every autoscaling policy is compared against); the rest run
#: a :class:`~repro.placement.controller.PlacementController` with the
#: named policy.
PLACEMENTS: Dict[str, Callable[[], Optional[PlacementSetup]]] = {
    "none": lambda: None,
    "static": lambda: PlacementSetup(policy="static"),
    "threshold": lambda: PlacementSetup(policy="threshold"),
    "top-share": lambda: PlacementSetup(policy="top-share"),
    "efficiency": lambda: PlacementSetup(policy="efficiency"),
}

#: name -> protocol variant constructor.
VARIANTS: Dict[str, Callable[[], ProtocolConfig]] = {
    "weak": weak_consistency,
    "ordered": high_demand_consistency,
    "push-only": push_only_consistency,
    "fast": fast_consistency,
    "fast-always": lambda: fast_consistency(push_rule="always"),
    "fast-fanout2": lambda: fast_consistency(fast_fanout=2),
    "dynamic": dynamic_fast_consistency,
    "static-table": static_table_consistency,
}


def _square_sides(n: int) -> tuple:
    """Sides of the (near-)square grid/torus for ``n`` requested nodes.

    Grid and torus topologies are built ``side x side``; when ``n`` is
    not a perfect square the effective node count differs from the
    request, which silently skews per-node comparisons. We warn loudly
    (and the harness records the effective count in
    ``TrialResult.n_nodes``) instead of failing, since sweeps routinely
    pass round numbers like 50.
    """
    side = max(2, int(round(math.sqrt(n))))
    if side * side != n:
        warnings.warn(
            f"grid/torus topologies are square: requested n={n} nodes but "
            f"building {side}x{side} = {side * side}; results record the "
            "effective node count in n_nodes",
            ExperimentSizeWarning,
            stacklevel=3,
        )
    return side, side


def _cdn_shape(n: int) -> dict:
    """AS/router split of the ``cdn`` topology for ``n`` requested nodes.

    A small AS tier (>= 3, so the BA generator's ``as_m=2`` is valid)
    over near-even router tiers. Like grid/torus the effective node
    count may differ from the request — the harness records it in
    ``TrialResult.n_nodes``.
    """
    as_count = max(3, int(round(math.sqrt(n) / 2)))
    routers = max(3, int(math.ceil(n / as_count)))
    effective = as_count * routers
    if effective != n:
        warnings.warn(
            f"cdn topologies are AS x router rectangles: requested n={n} "
            f"nodes but building {as_count}x{routers} = {effective}; "
            "results record the effective node count in n_nodes",
            ExperimentSizeWarning,
            stacklevel=3,
        )
    return {"autonomous_systems": as_count, "routers_per_as": routers}


def _flash_crowd(topo: Topology, seed: int) -> DemandModel:
    """A mid-run demand spike on ~1/12 of the nodes.

    The base is uniform (2-10 req/unit, all well under one replica's
    default 25-capacity); during [10, 45) the hot set's demand is
    multiplied by 12, far past what a single replica serves — the
    scenario the placement control loop exists for. The base model is
    :class:`UniformRandomDemand` rather than Zipf because controller-
    spawned replicas must be able to query their own demand (uniform
    models accept any node id).
    """
    nodes = sorted(topo.nodes)
    hot = random.Random(seed).sample(nodes, max(1, len(nodes) // 12))
    return FlashCrowdDemand(
        UniformRandomDemand(2.0, 10.0, seed=seed),
        hot_nodes=hot,
        start=10.0,
        end=45.0,
        factor=12.0,
    )


def _two_valleys(topo: Topology) -> DemandModel:
    xs = []
    ys = []
    for node in topo.nodes:
        pos = topo.position(node)
        if pos is None:
            raise ExperimentError(
                "two-valleys demand needs node positions; use a placed topology"
            )
        xs.append(pos[0])
        ys.append(pos[1])
    plane = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    return two_valley_field(topo, plane_size=plane)


def lookup(kind: str, registry: Mapping[str, T], name: str) -> T:
    """``registry[name]``, or :class:`ExperimentError` listing the known keys."""
    try:
        return registry[name]
    except KeyError:
        raise ExperimentError(
            f"unknown {kind} {name!r}; known: {sorted(registry)}"
        ) from None


def build_topology(name: str, n: int, seed: int = 0) -> Topology:
    """Build a topology by registry name."""
    return lookup("topology", TOPOLOGIES, name)(n, seed)


def build_demand(name: str, topology: Topology, seed: int = 0) -> DemandModel:
    """Build a demand model by registry name."""
    return lookup("demand", DEMANDS, name)(topology, seed)


def build_faults(name: str, topology: Topology, seed: int = 0) -> FaultSchedule:
    """Build a fault schedule by registry name (``"none"`` is empty)."""
    return lookup("fault regime", FAULTS, name)(topology, seed)


def build_placement(name: str) -> Optional[PlacementSetup]:
    """Build a placement regime by registry name (``"none"`` -> None)."""
    return lookup("placement", PLACEMENTS, name)()


def build_variant(name: str) -> ProtocolConfig:
    """Build a protocol configuration by registry name."""
    return lookup("variant", VARIANTS, name)()


#: ``build_system(trace=...)`` modes: everything, exactly what the
#: metric collectors read, or nothing at all.
TRACE_MODES = ("full", "metrics", "off")


def build_system(
    topology: str = "ba",
    demand: str = "uniform",
    variant: str = "fast",
    n: int = 50,
    seed: int = 0,
    loss: float = 0.0,
    faults: Optional[str] = None,
    trace: str = "metrics",
) -> ReplicationSystem:
    """One-call system assembly from registry names.

    With ``faults`` (a :data:`FAULTS` key), the schedule is generated
    from the topology and seed, its replay is armed on the simulator
    before the system starts, and the armed
    :class:`~repro.faults.process.FaultReplayer` is exposed as
    ``system.fault_process`` (None otherwise).

    ``trace`` controls what the simulator's tracer stores. Experiment
    runs default to ``"metrics"`` — only the categories the metric
    helpers actually read
    (:data:`repro.core.metrics.METRIC_TRACE_CATEGORIES`); everything
    else the collectors consume rides the topic bus and the traffic
    counters, so storing further records would be pure overhead on
    large sweeps. Pass ``"full"``
    when debugging a protocol interaction, or ``"off"`` to disable
    tracing wholesale.
    """
    if trace not in TRACE_MODES:
        raise ExperimentError(
            f"unknown trace mode {trace!r}; known: {list(TRACE_MODES)}"
        )
    topo = build_topology(topology, n, seed)
    model = build_demand(demand, topo, seed)
    config = build_variant(variant)
    schedule = None
    if faults is not None:
        schedule = build_faults(faults, topo, seed)
        model = prepare_demand(model, schedule)
    system = ReplicationSystem(
        topology=topo, demand=model, config=config, seed=seed, loss=loss
    )
    if trace == "metrics":
        system.sim.trace.enable_only(METRIC_TRACE_CATEGORIES)
    elif trace == "off":
        system.sim.trace.disable()
    system.fault_process = system.inject_faults(schedule) if schedule else None
    return system
