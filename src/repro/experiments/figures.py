"""Per-figure and per-table experiment drivers.

Each public function regenerates one artefact of the paper (see the
per-experiment index in DESIGN.md) and returns a structured result the
benchmarks and the CLI render. Paper reference values are collected in
:data:`PAPER` so reports always print paper-vs-measured side by side.

Registry-expressible drivers (:func:`figure_cdf`, the Figs. 5-6 grids,
:func:`scaling_experiment`) build declarative
:class:`~repro.experiments.plan.ExperimentPlan` objects and accept a
``backend`` argument, so their repetition grids parallelise over an
:class:`~repro.experiments.backends.ExecutionBackend` with bit-identical
results; the bespoke scenarios (fixed chains, scheduled demand shifts,
partitions) keep their hand-rolled loops over the live-object harness.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.config import ProtocolConfig
from ..core.islands import bridge_system, detect_islands, elect_leaders
from ..core.metrics import reach_time, satisfied_requests_series
from ..core.strong import StrongConsistencySystem
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
from ..demand.dynamic import FIG4_REPLICAS, ScheduledDemand, paper_fig4_demand
from ..demand.field import two_valley_field
from ..demand.static import (
    SECTION2_REPLICAS,
    UniformRandomDemand,
    paper_section2_demand,
)
from ..errors import ExperimentError
from ..sim.rng import derive_seed
from ..topology.brite import internet_like
from ..topology.graph import Topology
from ..topology.simple import grid as grid_topology
from ..topology.simple import line as line_topology
from ..topology.simple import ring as ring_topology
from ..topology.simple import star as star_topology
from .campaign import Campaign
from .cdf import EmpiricalCdf, session_grid
from .harness import TrialSpec, run_experiment, run_trial
from .plan import ExperimentPlan
from .results import ExperimentResult

#: Reference values quoted in the paper (§2, §5).
PAPER: Dict[str, object] = {
    "fig3_worst": [9.0, 13.0, 20.0, 28.0],
    "fig3_optimal": [14.0, 21.0, 25.0, 28.0],
    "fig5_weak_mean": 6.1499,
    "fig5_fast_mean": 3.9261,
    "fig5_top_mean": 1.0,
    "fig6_weak_mean": 6.982,
    "fig6_fast_mean": 4.78117,
    "fig6_top_mean": 1.0,
    "speedup_high_demand": 6.0,  # "up to six times quicker"
    "internet_diameter": 20,  # §5: Internet diameter "in the order of 20"
}


def _quiet_start(system: ReplicationSystem) -> None:
    """Start an experiment system with tracing disabled (throughput)."""
    system.sim.trace.disable()
    system.start()


# ---------------------------------------------------------------------------
# Figures 5 & 6 — CDFs of sessions-to-consistency
# ---------------------------------------------------------------------------


@dataclass
class FigureCdfResult:
    """Everything figs. 5-6 plot, plus the underlying experiment."""

    name: str
    n: int
    reps: int
    grid: List[float]
    curves: Dict[str, List[float]]
    means: Dict[str, float]
    speedup_high_demand: float
    mean_diameter: float
    experiment: ExperimentResult

    def rows(self) -> List[Tuple[object, ...]]:
        """Paper-vs-measured table rows."""
        prefix = "fig5" if self.n == 50 else "fig6"
        ref = {
            "weak (all replicas)": PAPER.get(f"{prefix}_weak_mean"),
            "fast (all replicas)": PAPER.get(f"{prefix}_fast_mean"),
            "fast (high demand)": PAPER.get(f"{prefix}_top_mean"),
            "ordered-only (all)": None,
            "fast (top 10% subset)": None,
        }
        rows = []
        for curve, mean in self.means.items():
            paper_value = ref.get(curve)
            rows.append(
                (
                    curve,
                    "-" if paper_value is None else f"{paper_value}",
                    f"{mean:.3f}",
                )
            )
        rows.append(
            (
                "speedup (weak-all / fast-top)",
                f"~{PAPER['speedup_high_demand']}x",
                f"{self.speedup_high_demand:.2f}x",
            )
        )
        return rows


def figure_cdf_plan(
    n: int,
    reps: int = 120,
    seed: int = 1,
    m: int = 2,
    top_fraction: float = 0.1,
    max_time: float = 80.0,
) -> ExperimentPlan:
    """The declarative plan behind Figs. 5-6 (see :func:`figure_cdf`)."""
    if m not in (2, 3):
        raise ExperimentError(
            f"figure_cdf_plan supports the registered BA topologies (m=2, 3), got m={m}"
        )
    return ExperimentPlan(
        name=f"fig-cdf-{n}",
        topology="ba" if m == 2 else "ba-m3",
        demand="uniform",
        variants=("weak", "ordered", "fast"),
        n=n,
        reps=reps,
        seed=seed,
        max_time=max_time,
        top_fraction=top_fraction,
        params={"m": m},
    )


def figure_cdf(
    n: int,
    reps: int = 120,
    seed: int = 1,
    m: int = 2,
    top_fraction: float = 0.1,
    max_time: float = 80.0,
    backend=None,
) -> FigureCdfResult:
    """The Figs. 5-6 experiment for ``n`` replicas.

    BRITE-BA topologies, uniform random demands, a write injected at a
    random replica, repeated ``reps`` times (paper: 10,000 — pass a
    larger ``reps`` via the CLI for full fidelity). Runs through the
    declarative plan pipeline for the registered BA densities (m=2, 3),
    so passing a parallel ``backend`` (e.g. ``ProcessPoolBackend``) fans
    the repetitions out over cores with bit-identical results; other
    ``m`` values fall back to the factory-based harness.
    """
    if m in (2, 3):
        experiment = figure_cdf_plan(
            n, reps=reps, seed=seed, m=m, top_fraction=top_fraction, max_time=max_time
        ).run(backend)
    else:
        experiment = run_experiment(
            name=f"fig-cdf-{n}",
            variants={
                "weak": weak_consistency(),
                "ordered": high_demand_consistency(),
                "fast": fast_consistency(),
            },
            topology_factory=lambda s: internet_like(n, m=m, seed=s),
            demand_factory=lambda topo, s: UniformRandomDemand(0.0, 100.0, seed=s),
            reps=reps,
            seed=seed,
            max_time=max_time,
            top_fraction=top_fraction,
            params={"n": n, "m": m},
            backend=backend,
        )
    grid = session_grid(12.0, 0.5)
    weak_all = experiment.series["weak"].cdf_all()
    ordered_all = experiment.series["ordered"].cdf_all()
    fast_all = experiment.series["fast"].cdf_all()
    # "Consistency high demand": sessions until the replica with most
    # demand is consistent (§5 measures "the replica with most demand").
    fast_top = experiment.series["fast"].cdf_top1()
    fast_top_subset = experiment.series["fast"].cdf_top()
    curves = {
        "weak (all replicas)": weak_all.on_grid(grid),
        "ordered-only (all)": ordered_all.on_grid(grid),
        "fast (all replicas)": fast_all.on_grid(grid),
        "fast (high demand)": fast_top.on_grid(grid),
    }
    means = {
        "weak (all replicas)": weak_all.mean(),
        "ordered-only (all)": ordered_all.mean(),
        "fast (all replicas)": fast_all.mean(),
        "fast (high demand)": fast_top.mean(),
        "fast (top 10% subset)": fast_top_subset.mean(),
    }
    diameters = [t.diameter for t in experiment.series["weak"].trials]
    speedup = (
        means["weak (all replicas)"] / means["fast (high demand)"]
        if means["fast (high demand)"] > 0
        else float("inf")
    )
    return FigureCdfResult(
        name=f"figure{'5' if n == 50 else '6' if n == 100 else f'-cdf-{n}'}",
        n=n,
        reps=reps,
        grid=grid,
        curves=curves,
        means=means,
        speedup_high_demand=speedup,
        mean_diameter=sum(diameters) / len(diameters),
        experiment=experiment,
    )


def figure5(reps: int = 120, seed: int = 1, **kwargs) -> FigureCdfResult:
    """Fig. 5: CDF of number of sessions, 50 nodes."""
    return figure_cdf(50, reps=reps, seed=seed, **kwargs)


def figure6(reps: int = 120, seed: int = 1, **kwargs) -> FigureCdfResult:
    """Fig. 6: CDF of number of sessions, 100 nodes."""
    return figure_cdf(100, reps=reps, seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# §2 worked example: Table 1 orderings and Figure 3
# ---------------------------------------------------------------------------

#: §2 demand table (A..E) used by table1/fig3.
SECTION2_DEMANDS: Dict[str, float] = {"A": 4.0, "B": 6.0, "C": 3.0, "D": 8.0, "E": 7.0}


def _ordering_series(order: Sequence[str]) -> List[float]:
    """Cumulative satisfied requests per session for one visit order.

    B holds the update at time 0 and visits its neighbours in ``order``,
    one session per time unit; after session k, B plus the first k
    visited replicas serve their demand with updated content.
    """
    times = {SECTION2_REPLICAS["B"]: 0.0}
    for step, name in enumerate(order, start=1):
        times[SECTION2_REPLICAS[name]] = float(step)
    demand = {SECTION2_REPLICAS[k]: v for k, v in SECTION2_DEMANDS.items()}
    return satisfied_requests_series(times, demand, horizon=len(order))


@dataclass
class Table1Result:
    """All 24 visit orders ranked by cumulative satisfied requests."""

    orders: List[Tuple[Tuple[str, ...], List[float], float]]
    worst: Tuple[str, ...]
    best: Tuple[str, ...]

    def rows(self) -> List[Tuple[object, ...]]:
        rows = []
        for order, series, area in self.orders:
            rows.append(("-".join(order), *(f"{v:.0f}" for v in series), f"{area:.0f}"))
        return rows


def table1_orderings() -> Table1Result:
    """§2's worst/best-case session orders, enumerated exhaustively.

    The paper presents two extreme orders (B-C,B-A,B-E,B-D vs
    B-D,B-E,B-A,B-C); enumerating all 4! orders verifies they are the
    true extremes under the cumulative-satisfied-requests objective.
    """
    neighbors = [name for name in SECTION2_DEMANDS if name != "B"]
    scored = []
    for order in itertools.permutations(neighbors):
        series = _ordering_series(order)
        scored.append((order, series, sum(series)))
    scored.sort(key=lambda item: item[2])
    worst = scored[0][0]
    best = scored[-1][0]
    return Table1Result(orders=scored, worst=worst, best=best)


@dataclass
class Figure3Result:
    """Fig. 3 series: worst case, optimal case, and simulated fast."""

    sessions: List[int]
    worst: List[float]
    optimal: List[float]
    fast_simulated: List[float]
    reps: int

    def rows(self) -> List[Tuple[object, ...]]:
        rows = []
        for i, step in enumerate(self.sessions):
            rows.append(
                (
                    step,
                    f"{self.worst[i]:.0f}",
                    f"{self.optimal[i]:.0f}",
                    f"{self.fast_simulated[i]:.1f}",
                )
            )
        return rows


def figure3(reps: int = 60, seed: int = 1) -> Figure3Result:
    """Fig. 3: requests satisfied with consistent content over time.

    The worst/optimal curves are the paper's analytic example (one
    B-initiated session per time unit). The fast-consistency curve is
    *simulated* on the same five replicas (star around B, ids from
    :data:`repro.demand.static.SECTION2_REPLICAS`) and — as §2 claims —
    beats the optimal case because the push to D happens at link speed
    instead of waiting for the first session.
    """
    worst = _ordering_series(("C", "A", "E", "D"))
    optimal = _ordering_series(("D", "E", "A", "C"))
    demand_model = paper_section2_demand()
    demand = {SECTION2_REPLICAS[k]: v for k, v in SECTION2_DEMANDS.items()}
    horizon = 4
    totals = [0.0] * horizon
    b = SECTION2_REPLICAS["B"]
    for rep in range(reps):
        topo = star_topology(5)  # node 0 is the hub
        # Map the §2 replicas onto the star: B must be the hub, so swap
        # ids 0 (hub) and B's id in the demand table.
        mapping = _star_mapping()
        model = _remap_demand(demand_model, mapping)
        system = ReplicationSystem(
            topology=topo,
            demand=model,
            config=fast_consistency(),
            seed=derive_seed(seed, f"fig3/{rep}"),
        )
        _quiet_start(system)
        update = system.inject_write(mapping[b])
        system.run_until_replicated(update.uid, max_time=40.0)
        times = system.apply_times(update.uid)
        remapped_demand = {mapping[n]: v for n, v in demand.items()}
        series = satisfied_requests_series(times, remapped_demand, horizon)
        for i, value in enumerate(series):
            totals[i] += value
    fast_series = [v / reps for v in totals]
    return Figure3Result(
        sessions=list(range(1, horizon + 1)),
        worst=worst,
        optimal=optimal,
        fast_simulated=fast_series,
        reps=reps,
    )


def _star_mapping() -> Dict[int, int]:
    """Map §2 replica ids (A=0..E=4) onto star node ids (hub=0).

    B (id 1) becomes the hub (0); the hub's old occupant A takes B's
    id. Everyone else keeps their id.
    """
    return {0: 1, 1: 0, 2: 2, 3: 3, 4: 4}


class _RemappedDemand(DemandModel):
    """Demand model composed with a node-id permutation."""

    def __init__(self, inner: DemandModel, mapping: Mapping[int, int]):
        self._inner = inner
        self._inverse = {new: old for old, new in mapping.items()}

    def demand(self, node: int, time: float) -> float:
        return self._inner.demand(self._inverse.get(int(node), int(node)), time)


def _remap_demand(inner: DemandModel, mapping: Mapping[int, int]) -> DemandModel:
    return _RemappedDemand(inner, mapping)


# ---------------------------------------------------------------------------
# §3-§4: Table 2 — dynamic demand (Fig. 4 scenario)
# ---------------------------------------------------------------------------


@dataclass
class Table2Result:
    """Static vs dynamic neighbour tables under shifting demand.

    ``sequences`` is the paper's literal §4 table — the partners B picks
    at times 1, 2 and 3 under frozen vs current beliefs. The remaining
    fields come from the simulated chain scenario (see
    :func:`table2_dynamic`).
    """

    reps: int
    sequences: Dict[str, List[str]]
    mean_time_to_c: Dict[str, float]
    mean_time_all: Dict[str, float]
    satisfied_at: Dict[str, List[float]]

    def rows(self) -> List[Tuple[object, ...]]:
        rows = []
        for variant in self.mean_time_to_c:
            rows.append(
                (
                    variant,
                    f"{self.mean_time_to_c[variant]:.2f}",
                    f"{self.mean_time_all[variant]:.2f}",
                    *(f"{v:.1f}" for v in self.satisfied_at[variant]),
                )
            )
        return rows

    def sequence_rows(self) -> List[Tuple[object, ...]]:
        return [
            (variant, *picks) for variant, picks in self.sequences.items()
        ]


def table2_selection_sequence() -> Dict[str, List[str]]:
    """The §4 worked example, reproduced exactly.

    B's neighbours are A, C, D with demands from Fig. 4 (D=13, A=2,
    C=0; at t=2 A falls to 0 and C rises to 9). B selects one partner
    per time step. With a frozen table B visits D, A, C; re-reading
    demand before each selection yields the paper's B-D, B-C', B-A'.
    """
    from ..core.policies import DemandOrderedPolicy
    from ..demand.views import OracleDemandView, SnapshotDemandView

    model = paper_fig4_demand()
    names = {node: name for name, node in FIG4_REPLICAS.items()}
    b = FIG4_REPLICAS["B"]
    neighbors = [n for n in FIG4_REPLICAS.values() if n != b]

    static_policy = DemandOrderedPolicy(
        SnapshotDemandView(model, FIG4_REPLICAS.values(), at_time=1.0)
    )
    clock = {"now": 1.0}
    dynamic_policy = DemandOrderedPolicy(
        OracleDemandView(model, clock=lambda: clock["now"])
    )
    sequences: Dict[str, List[str]] = {"static": [], "dynamic": []}
    for step in (1.0, 2.0, 3.0):
        clock["now"] = step
        sequences["static"].append(names[static_policy.select(neighbors)])
        picked = dynamic_policy.select(neighbors)
        suffix = "'" if model.demand(picked, step) != model.demand(picked, 1.0) else ""
        sequences["dynamic"].append(names[picked] + suffix)
    return sequences


def table2_dynamic(reps: int = 80, seed: int = 1) -> Table2Result:
    """§3-4: demand shifts *while* an update propagates.

    Topology: B - x1 - x2 - x3 - C chain plus hot decoy D and fading
    decoy A attached to B. Demands: B=6, x*=1, D=13 (stays hot),
    A: 2 -> 0 and C: 0 -> 9 at t=2 (the Fig. 4 shift, displaced to the
    end of a chain so the update is still in flight when it happens).

    A write lands at B at t=0 and walks the chain by anti-entropy. By
    the time it reaches x3, C has become hot: the *dynamic* variants see
    the new demand and fast-push the final hop immediately, while the
    *static-table* variant still believes C is cold and leaves C' to
    pull on its own schedule. Measured: sessions until C' is consistent
    and requests satisfied with updated content per step.
    """
    variants = {
        "static-table": static_table_consistency(),
        "dynamic-oracle": fast_consistency(),
        "dynamic-advertised": dynamic_fast_consistency(advert_period=0.5),
    }
    topo, model, node_c = _fig4_chain_scenario()
    b = 0
    horizon = 6
    time_to_c: Dict[str, List[float]] = {v: [] for v in variants}
    time_all: Dict[str, List[float]] = {v: [] for v in variants}
    satisfied: Dict[str, List[float]] = {v: [0.0] * horizon for v in variants}
    for rep in range(reps):
        sim_seed = derive_seed(seed, f"table2/{rep}")
        for variant, config in variants.items():
            system = ReplicationSystem(
                topology=topo, demand=model, config=config, seed=sim_seed
            )
            _quiet_start(system)
            update = system.inject_write(b)
            system.run_until_replicated(update.uid, max_time=60.0)
            times = system.apply_times(update.uid)
            t_c = times.get(node_c)
            if t_c is None or reach_time(times, topo.nodes) is None:
                raise ExperimentError(f"fig4 chain run did not converge ({variant})")
            time_to_c[variant].append(t_c)
            time_all[variant].append(reach_time(times, topo.nodes))
            for step in range(1, horizon + 1):
                total = sum(
                    model.demand(node, float(step))
                    for node in topo.nodes
                    if times.get(node) is not None and times[node] <= step
                )
                satisfied[variant][step - 1] += total
    return Table2Result(
        reps=reps,
        sequences=table2_selection_sequence(),
        mean_time_to_c={v: sum(ts) / len(ts) for v, ts in time_to_c.items()},
        mean_time_all={v: sum(ts) / len(ts) for v, ts in time_all.items()},
        satisfied_at={
            v: [total / reps for total in series] for v, series in satisfied.items()
        },
    )


def _fig4_chain_scenario() -> Tuple[Topology, ScheduledDemand, int]:
    """Build the displaced Fig. 4 scenario (see :func:`table2_dynamic`).

    Returns (topology, demand model, id of the C replica).
    """
    topo = Topology("fig4-chain")
    # 0=B, 1..3 = chain x1..x3, 4=C, 5=D (hot decoy), 6=A (fading decoy)
    for node in range(7):
        topo.add_node(node, (float(node), 0.0))
    topo.add_edge(0, 1)
    topo.add_edge(1, 2)
    topo.add_edge(2, 3)
    topo.add_edge(3, 4)
    topo.add_edge(0, 5)
    topo.add_edge(0, 6)
    model = ScheduledDemand(
        initial={0: 6.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 0.0, 5: 13.0, 6: 2.0},
        changes={4: [(2.0, 9.0)], 6: [(2.0, 0.0)]},
    )
    return topo, model, 4


# ---------------------------------------------------------------------------
# §5: scaling with node count vs diameter; uniform topologies
# ---------------------------------------------------------------------------


@dataclass
class ScalingResult:
    """Mean sessions-to-consistency across topology sizes."""

    sizes: List[int]
    rows_by_size: Dict[int, Dict[str, float]]
    reps: int

    def rows(self) -> List[Tuple[object, ...]]:
        rows = []
        for n in self.sizes:
            data = self.rows_by_size[n]
            rows.append(
                (
                    n,
                    f"{data['diameter']:.2f}",
                    f"{data['weak_mean']:.3f}",
                    f"{data['fast_mean']:.3f}",
                    f"{data['fast_top_mean']:.3f}",
                )
            )
        return rows


def scaling_plans(
    sizes: Sequence[int] = (25, 50, 100, 200),
    reps: int = 40,
    seed: int = 1,
) -> Dict[int, ExperimentPlan]:
    """One declarative plan per network size of the §5 scaling sweep."""
    return {
        n: ExperimentPlan(
            name=f"scaling-{n}",
            topology="ba",
            demand="uniform",
            variants=("weak", "fast"),
            n=n,
            reps=reps,
            seed=derive_seed(seed, f"scaling/{n}"),
        )
        for n in sizes
    }


def scaling_campaign(
    sizes: Sequence[int] = (25, 50, 100, 200),
    reps: int = 40,
    seed: int = 1,
) -> Campaign:
    """The §5 scaling sweep as one campaign (one plan per size).

    Running the sizes as a campaign — instead of looping ``plan.run`` —
    means a process-pool backend spawns its workers once for the whole
    sweep, and a checkpoint sink makes the sweep resumable.
    """
    return Campaign(
        "scaling",
        scaling_plans(sizes, reps=reps, seed=seed),
        params={"sizes": list(sizes), "reps": reps, "seed": seed},
    )


def scaling_experiment(
    sizes: Sequence[int] = (25, 50, 100, 200),
    reps: int = 40,
    seed: int = 1,
    backend=None,
    sink=None,
) -> ScalingResult:
    """§5's observation: doubling nodes barely moves the session count.

    The paper notes 50 -> 100 nodes moves fast consistency only from
    3.93 to 4.78 sessions and ties this to the diameter; this experiment
    reports mean diameter and mean sessions per size so the correlation
    is visible (and testable). The sizes run as one
    :class:`~repro.experiments.campaign.Campaign` over a single shared
    ``backend`` — a process pool is spawned once for the whole sweep,
    not once per size — and an optional checkpoint ``sink`` makes the
    sweep resumable.
    """
    outcome = scaling_campaign(sizes, reps=reps, seed=seed).run(backend, sink=sink)
    rows: Dict[int, Dict[str, float]] = {}
    for n in sizes:
        experiment = outcome.results[str(n)]
        weak_cdf = experiment.series["weak"].cdf_all()
        fast_cdf = experiment.series["fast"].cdf_all()
        fast_top = experiment.series["fast"].cdf_top()
        diameters = [t.diameter for t in experiment.series["weak"].trials]
        rows[n] = {
            "diameter": sum(diameters) / len(diameters),
            "weak_mean": weak_cdf.mean(),
            "fast_mean": fast_cdf.mean(),
            "fast_top_mean": fast_top.mean(),
        }
    return ScalingResult(sizes=list(sizes), rows_by_size=rows, reps=reps)


@dataclass
class UniformTopologiesResult:
    """Weak vs fast on the paper's simple uniform topologies."""

    rows_by_name: Dict[str, Dict[str, float]]
    reps: int

    def rows(self) -> List[Tuple[object, ...]]:
        rows = []
        for name, data in self.rows_by_name.items():
            rows.append(
                (
                    name,
                    int(data["n"]),
                    int(data["diameter"]),
                    f"{data['weak_mean']:.3f}",
                    f"{data['fast_mean']:.3f}",
                    f"{data['fast_top_mean']:.3f}",
                )
            )
        return rows


def uniform_topologies(reps: int = 30, seed: int = 1) -> UniformTopologiesResult:
    """§5: "similar results ... with simpler uniform topologies"."""
    cases = {
        "line-24": lambda s: line_topology(24),
        "ring-24": lambda s: ring_topology(24),
        "grid-5x5": lambda s: grid_topology(5, 5),
    }
    rows: Dict[str, Dict[str, float]] = {}
    for name, factory in cases.items():
        experiment = run_experiment(
            name=f"uniform-{name}",
            variants={"weak": weak_consistency(), "fast": fast_consistency()},
            topology_factory=factory,
            demand_factory=lambda topo, s: UniformRandomDemand(0.0, 100.0, seed=s),
            reps=reps,
            seed=derive_seed(seed, f"uniform/{name}"),
            max_time=200.0,
            params={"topology": name},
        )
        weak_cdf = experiment.series["weak"].cdf_all()
        fast_cdf = experiment.series["fast"].cdf_all()
        fast_top = experiment.series["fast"].cdf_top()
        sample = factory(0)
        rows[name] = {
            "n": sample.num_nodes,
            "diameter": experiment.series["weak"].trials[0].diameter,
            "weak_mean": weak_cdf.mean(),
            "fast_mean": fast_cdf.mean(),
            "fast_top_mean": fast_top.mean(),
        }
    return UniformTopologiesResult(rows_by_name=rows, reps=reps)


# ---------------------------------------------------------------------------
# §6: islands
# ---------------------------------------------------------------------------


@dataclass
class IslandsResult:
    """Fast consistency with vs without leader bridges (§6)."""

    reps: int
    islands_detected: int
    mean_far_leader: Dict[str, float]
    mean_far_island: Dict[str, float]
    mean_all: Dict[str, float]

    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                variant,
                f"{self.mean_far_leader[variant]:.3f}",
                f"{self.mean_far_island[variant]:.3f}",
                f"{self.mean_all[variant]:.3f}",
            )
            for variant in self.mean_far_island
        ]


def islands_experiment(
    reps: int = 30, seed: int = 1, rows: int = 10, cols: int = 10
) -> IslandsResult:
    """Two demand valleys on a grid; does bridging help across the ridge?

    A write originates at the leader of one island; we measure sessions
    until the *other* island's leader and members are consistent, with
    and without the §6 leader-bridge overlay. Member times are averaged
    per island (the max is dominated by each member's own session timer
    and hides the bridging effect).
    """
    leader_times: Dict[str, List[float]] = {"fast": [], "fast+bridges": []}
    far_times: Dict[str, List[float]] = {"fast": [], "fast+bridges": []}
    all_times: Dict[str, List[float]] = {"fast": [], "fast+bridges": []}
    islands_detected = 0
    for rep in range(reps):
        sim_seed = derive_seed(seed, f"islands/{rep}")
        for variant, bridged in (("fast", False), ("fast+bridges", True)):
            topo = grid_topology(rows, cols)
            demand = two_valley_field(
                topo, plane_size=float(max(rows, cols) - 1), peak=100.0, base=1.0
            )
            system = ReplicationSystem(
                topology=topo,
                demand=demand,
                config=fast_consistency(),
                seed=sim_seed,
            )
            snapshot = demand.snapshot(topo.nodes, 0.0)
            raw_islands = detect_islands(topo, snapshot, percentile=80.0, min_size=2)
            islands = elect_leaders(raw_islands, snapshot)
            if len(islands) < 2:
                raise ExperimentError(
                    "two-valley field produced fewer than two islands; "
                    "increase the grid or the peak"
                )
            if bridged:
                bridge_system(system, percentile=80.0, min_size=2)
            origin_island = max(islands, key=lambda i: i.total_demand)
            far_island = min(
                (i for i in islands if i.index != origin_island.index),
                key=lambda i: -i.total_demand,
            )
            _quiet_start(system)
            update = system.inject_write(origin_island.leader)
            system.run_until_replicated(update.uid, max_time=120.0)
            times = system.apply_times(update.uid)
            far_members = sorted(far_island.members)
            far_mean = sum(times[m] for m in far_members) / len(far_members)
            everyone = reach_time(times, topo.nodes)
            if everyone is None:
                raise ExperimentError("islands run did not converge")
            leader_times[variant].append(times[far_island.leader])
            far_times[variant].append(far_mean)
            all_times[variant].append(everyone)
            if not bridged:
                islands_detected = len(islands)
    return IslandsResult(
        reps=reps,
        islands_detected=islands_detected,
        mean_far_leader={v: sum(t) / len(t) for v, t in leader_times.items()},
        mean_far_island={v: sum(t) / len(t) for v, t in far_times.items()},
        mean_all={v: sum(t) / len(t) for v, t in all_times.items()},
    )


# ---------------------------------------------------------------------------
# §8 claims: overhead; ablation of the two optimisations
# ---------------------------------------------------------------------------


@dataclass
class OverheadResult:
    """Traffic of weak vs fast over a fixed horizon (§8 byte claim)."""

    reps: int
    horizon: float
    rows_by_variant: Dict[str, Dict[str, float]]

    def rows(self) -> List[Tuple[object, ...]]:
        rows = []
        for variant, data in self.rows_by_variant.items():
            rows.append(
                (
                    variant,
                    f"{data['messages']:.0f}",
                    f"{data['bytes']:.0f}",
                    f"{data['fast_bytes']:.0f}",
                    f"{100 * data['fast_share']:.2f}%",
                    f"{data['time_top']:.3f}",
                )
            )
        return rows


def overhead_experiment(
    reps: int = 20, seed: int = 1, n: int = 50, horizon: float = 10.0
) -> OverheadResult:
    """Measure total traffic for weak vs fast over the same fixed window.

    Both variants run for exactly ``horizon`` session times on identical
    topologies/demands with one injected write, so byte counts are
    directly comparable: the fast-update machinery should add only a
    small fraction of bytes while slashing high-demand latency.
    """
    from ..core.metrics import TrafficMeter

    variants = {"weak": weak_consistency(), "fast": fast_consistency()}
    acc: Dict[str, Dict[str, float]] = {
        v: {"messages": 0.0, "bytes": 0.0, "fast_bytes": 0.0, "time_top": 0.0}
        for v in variants
    }
    for rep in range(reps):
        topo_seed = derive_seed(seed, f"overhead-topo/{rep}")
        demand_seed = derive_seed(seed, f"overhead-demand/{rep}")
        sim_seed = derive_seed(seed, f"overhead-sim/{rep}")
        for variant, config in variants.items():
            topo = internet_like(n, m=2, seed=topo_seed)
            demand = UniformRandomDemand(0.0, 100.0, seed=demand_seed)
            system = ReplicationSystem(
                topology=topo, demand=demand, config=config, seed=sim_seed
            )
            _quiet_start(system)
            origin = random.Random(sim_seed).choice(list(topo.nodes))
            update = system.inject_write(origin)
            system.run_until(horizon)
            report = TrafficMeter(system.network).report()
            times = system.apply_times(update.uid)
            top = demand.top_fraction(topo.nodes, 0.1)
            t_top = reach_time(times, top)
            acc[variant]["messages"] += report.messages_total
            acc[variant]["bytes"] += report.bytes_total
            acc[variant]["fast_bytes"] += report.bytes_fast
            acc[variant]["time_top"] += t_top if t_top is not None else horizon
    rows = {}
    for variant, sums in acc.items():
        bytes_total = sums["bytes"] / reps
        fast_bytes = sums["fast_bytes"] / reps
        rows[variant] = {
            "messages": sums["messages"] / reps,
            "bytes": bytes_total,
            "fast_bytes": fast_bytes,
            "fast_share": (fast_bytes / bytes_total) if bytes_total else 0.0,
            "time_top": sums["time_top"] / reps,
        }
    return OverheadResult(reps=reps, horizon=horizon, rows_by_variant=rows)


@dataclass
class AblationResult:
    """Contribution of each optimisation (§2's "two optimizations")."""

    reps: int
    rows_by_variant: Dict[str, Dict[str, float]]

    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (variant, f"{data['mean_all']:.3f}", f"{data['mean_top']:.3f}")
            for variant, data in self.rows_by_variant.items()
        ]


def ablation_experiment(
    reps: int = 40, seed: int = 1, n: int = 50
) -> AblationResult:
    """Decompose fast consistency into its two optimisations.

    Variants: weak (neither), ordered-only (opt. 1), push-only (opt. 2),
    fast (both), fast with the unconditional ``always`` push rule, and
    fast with fanout 2 — quantifying each §2 design choice.
    """
    variants = {
        "weak": weak_consistency(),
        "ordered-only": high_demand_consistency(),
        "push-only": push_only_consistency(),
        "fast": fast_consistency(),
        "fast-always": fast_consistency(push_rule="always"),
        "fast-fanout2": fast_consistency(fast_fanout=2),
    }
    experiment = run_experiment(
        name="ablation",
        variants=variants,
        topology_factory=lambda s: internet_like(n, m=2, seed=s),
        demand_factory=lambda topo, s: UniformRandomDemand(0.0, 100.0, seed=s),
        reps=reps,
        seed=seed,
        params={"n": n},
    )
    rows = {}
    for variant in variants:
        series = experiment.series[variant]
        rows[variant] = {
            "mean_all": series.cdf_all().mean(),
            "mean_top": series.cdf_top().mean(),
        }
    return AblationResult(reps=reps, rows_by_variant=rows)


@dataclass
class SkewResult:
    """Sensitivity of fast consistency to demand skew (§8 worst case)."""

    reps: int
    rows_by_skew: Dict[str, Dict[str, float]]

    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                skew,
                f"{data['weak_all']:.3f}",
                f"{data['fast_all']:.3f}",
                f"{data['fast_top']:.3f}",
                f"{100 * data['push_fraction']:.1f}%",
            )
            for skew, data in self.rows_by_skew.items()
        ]


def skew_experiment(reps: int = 25, seed: int = 1, n: int = 40) -> SkewResult:
    """Sweep demand non-uniformity from flat to heavily skewed.

    Demand skew is the paper's enabling assumption: with equal demands
    the algorithm "behaves like a normal weak consistency algorithm"
    (§8), and the more skewed the demand, the more work the push can do.
    For each skew level we measure weak vs fast convergence and the
    fraction of replicas that received the update via the push path.
    """
    from ..core.metrics import ConvergenceTracker
    from ..demand.static import ConstantDemand, UniformRandomDemand, ZipfDemand

    def demand_factory(skew: str, topo, demand_seed: int):
        if skew == "flat":
            return ConstantDemand(10.0)
        if skew == "uniform":
            return UniformRandomDemand(0.0, 100.0, seed=demand_seed)
        exponent = float(skew.split("/")[1])
        return ZipfDemand(topo.nodes, exponent=exponent, seed=demand_seed)

    skews = ("flat", "uniform", "zipf/0.5", "zipf/1.5")
    acc: Dict[str, Dict[str, float]] = {
        s: {"weak_all": 0.0, "fast_all": 0.0, "fast_top": 0.0, "push": 0.0, "nodes": 0.0}
        for s in skews
    }
    for rep in range(reps):
        topo_seed = derive_seed(seed, f"skew-topo/{rep}")
        sim_seed = derive_seed(seed, f"skew-sim/{rep}")
        topo = internet_like(n, m=2, seed=topo_seed)
        origin = random.Random(sim_seed).choice(list(topo.nodes))
        for skew in skews:
            demand = demand_factory(skew, topo, derive_seed(seed, f"skew-d/{rep}"))
            for variant, config in (
                ("weak", weak_consistency()),
                ("fast", fast_consistency()),
            ):
                system = ReplicationSystem(
                    topology=topo, demand=demand, config=config, seed=sim_seed
                )
                tracker = ConvergenceTracker(system.sim)
                _quiet_start(system)
                update = system.inject_write(origin)
                done = system.run_until_replicated(update.uid, max_time=120.0)
                if done is None:
                    raise ExperimentError(f"skew run did not converge ({skew})")
                if variant == "weak":
                    acc[skew]["weak_all"] += done
                    continue
                acc[skew]["fast_all"] += done
                top1 = demand.ranked(topo.nodes)[0]
                times = system.apply_times(update.uid)
                acc[skew]["fast_top"] += times[top1]
                breakdown = tracker.delivery_breakdown(update.uid)
                acc[skew]["push"] += breakdown.get("fast", 0)
                acc[skew]["nodes"] += topo.num_nodes - 1
    rows = {}
    for skew, sums in acc.items():
        rows[skew] = {
            "weak_all": sums["weak_all"] / reps,
            "fast_all": sums["fast_all"] / reps,
            "fast_top": sums["fast_top"] / reps,
            "push_fraction": sums["push"] / sums["nodes"] if sums["nodes"] else 0.0,
        }
    return SkewResult(reps=reps, rows_by_skew=rows)


@dataclass
class PartitionResult:
    """Weak/fast behaviour across a network partition (§1 motivation)."""

    reps: int
    heal_time: float
    rows_by_variant: Dict[str, Dict[str, float]]
    strong_commit_rate_during_partition: float

    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                variant,
                f"{data['time_side_a']:.2f}",
                f"{data['time_all']:.2f}",
                f"{data['after_heal']:.2f}",
            )
            for variant, data in self.rows_by_variant.items()
        ]


def partition_experiment(
    reps: int = 20, seed: int = 1, n: int = 30, heal_time: float = 5.0
) -> PartitionResult:
    """§1: weak consistency "withstand[s] segmentation"; strong does not.

    The network splits into two halves at t=0 (the write's side A and
    the far side B) and heals at ``heal_time``. Weak/fast replicas
    converge within side A during the partition and finish the far side
    shortly after healing; a synchronous write attempted during the
    partition can never commit.
    """
    variants = {"weak": weak_consistency(), "fast": fast_consistency()}
    acc: Dict[str, Dict[str, float]] = {
        v: {"time_side_a": 0.0, "time_all": 0.0, "after_heal": 0.0} for v in variants
    }
    strong_commits = 0
    for rep in range(reps):
        topo_seed = derive_seed(seed, f"part-topo/{rep}")
        sim_seed = derive_seed(seed, f"part-sim/{rep}")
        topo = internet_like(n, m=2, seed=topo_seed)
        demand = UniformRandomDemand(0.0, 100.0, seed=topo_seed)
        nodes = sorted(topo.nodes)
        side_a = nodes[: n // 2]
        side_b = nodes[n // 2 :]
        origin = side_a[0]
        for variant, config in variants.items():
            system = ReplicationSystem(
                topology=topo, demand=demand, config=config, seed=sim_seed
            )
            system.network.links.partition([side_a, side_b])
            _quiet_start(system)
            update = system.inject_write(origin)
            system.run_until(heal_time)
            times_during = system.apply_times(update.uid)
            assert all(node in side_a for node in times_during), (
                "partition leaked an update to the far side"
            )
            system.network.links.heal_partition()
            done = system.run_until_replicated(update.uid, max_time=120.0)
            times = system.apply_times(update.uid)
            t_side_a = reach_time(times, side_a)
            if done is None or t_side_a is None:
                raise ExperimentError(f"partition run did not converge ({variant})")
            acc[variant]["time_side_a"] += t_side_a
            acc[variant]["time_all"] += done
            acc[variant]["after_heal"] += done - heal_time

        # A synchronous write attempted mid-partition cannot commit.
        strong = StrongConsistencySystem(
            topo,
            seed=derive_seed(seed, f"part-strong/{rep}"),
            write_timeout=heal_time - 0.5,
        )
        strong.network.links.partition([side_a, side_b])
        wid = strong.write(origin=origin)
        strong.sim.run(until=heal_time)
        if strong.committed(wid):
            strong_commits += 1
    rows = {
        variant: {key: value / reps for key, value in sums.items()}
        for variant, sums in acc.items()
    }
    return PartitionResult(
        reps=reps,
        heal_time=heal_time,
        rows_by_variant=rows,
        strong_commit_rate_during_partition=strong_commits / reps,
    )


@dataclass
class StalenessResult:
    """How stale may §4's demand knowledge get before it stops helping?"""

    reps: int
    rows_by_variant: Dict[str, Dict[str, float]]

    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                variant,
                f"{data['mean_top']:.3f}",
                f"{data['mean_all']:.3f}",
                f"{data['advert_bytes']:.0f}",
            )
            for variant, data in self.rows_by_variant.items()
        ]


def staleness_experiment(
    reps: int = 30, seed: int = 1, n: int = 40
) -> StalenessResult:
    """Sweep the advertisement period under drifting demand.

    Demand follows a bounded random walk (it "changes with time", §3);
    fast consistency runs with oracle knowledge, advertised knowledge at
    several periods, and a frozen snapshot. The faster the adverts, the
    closer to the oracle — and the more advert bytes are spent; the
    frozen snapshot is the §3 straw man the sweep converges away from.
    """
    from ..demand.dynamic import RandomWalkDemand
    from ..demand.static import uniform_snapshot_for

    variants: Dict[str, ProtocolConfig] = {
        "oracle": fast_consistency(),
        "advertised/0.5": dynamic_fast_consistency(advert_period=0.5),
        "advertised/2": dynamic_fast_consistency(advert_period=2.0),
        "advertised/8": dynamic_fast_consistency(advert_period=8.0),
        "snapshot (§3)": static_table_consistency(),
    }
    acc: Dict[str, Dict[str, float]] = {
        v: {"mean_top": 0.0, "mean_all": 0.0, "advert_bytes": 0.0} for v in variants
    }
    completed = {v: 0 for v in variants}
    for rep in range(reps):
        topo_seed = derive_seed(seed, f"stale-topo/{rep}")
        sim_seed = derive_seed(seed, f"stale-sim/{rep}")
        topo = internet_like(n, m=2, seed=topo_seed)
        initial = uniform_snapshot_for(
            topo.nodes, 0.0, 100.0, seed=derive_seed(seed, f"stale-dem/{rep}")
        )
        demand = RandomWalkDemand(
            initial, step=25.0, low=0.0, high=100.0,
            seed=derive_seed(seed, f"stale-walk/{rep}"),
        )
        # Let demand drift before the write so snapshots are stale.
        for variant, config in variants.items():
            system = ReplicationSystem(
                topology=topo, demand=demand, config=config, seed=sim_seed
            )
            _quiet_start(system)
            system.run_until(6.0)
            origin = random.Random(sim_seed).choice(list(topo.nodes))
            update = system.inject_write(origin)
            system.run_until_replicated(update.uid, max_time=80.0)
            times = system.apply_times(update.uid)
            top1 = demand.ranked(topo.nodes, time=6.0)[0]
            t_top = reach_time(times, [top1], t0=6.0)
            t_all = reach_time(times, topo.nodes, t0=6.0)
            if t_top is None or t_all is None:
                continue
            completed[variant] += 1
            acc[variant]["mean_top"] += t_top
            acc[variant]["mean_all"] += t_all
            acc[variant]["advert_bytes"] += system.network.counters.bytes_by_kind.get(
                "demand-advert", 0
            )
    rows = {}
    for variant, sums in acc.items():
        count = max(1, completed[variant])
        rows[variant] = {key: value / count for key, value in sums.items()}
    return StalenessResult(reps=reps, rows_by_variant=rows)


# ---------------------------------------------------------------------------
# Named campaigns (the CLI's `repro campaign run NAME`)
# ---------------------------------------------------------------------------


def figures_campaign(reps: int = 120, seed: int = 1) -> Campaign:
    """Figs. 5 and 6 together: both CDF grids over one worker pool."""
    return Campaign(
        "figures",
        {"fig5": figure_cdf_plan(50, reps=reps, seed=seed),
         "fig6": figure_cdf_plan(100, reps=reps, seed=seed)},
        params={"reps": reps, "seed": seed},
    )


def robustness_campaign(reps: int = 40, seed: int = 1) -> Campaign:
    """Fault-regime x size product on the line topology (PR 2's sweep)."""
    base = ExperimentPlan(
        name="robustness",
        topology="line",
        demand="uniform",
        variants=("weak", "fast"),
        reps=reps,
        seed=derive_seed(seed, "robustness"),
    )
    return Campaign.from_product(
        "robustness",
        base,
        params={"reps": reps, "seed": seed},
        n=(16, 32),
        faults=(("none",), ("none", "split_brain"), ("none", "poisson_churn")),
    )


def smoke_campaign(reps: int = 2, seed: int = 1) -> Campaign:
    """A deliberately tiny two-plan campaign (CI and test fixture).

    Plan one is a healthy ring grid; plan two sweeps a split-brain
    regime on a line, so the smoke covers both the plain and the
    fault-swept checkpoint paths in seconds.
    """
    return Campaign(
        "smoke",
        {
            "ring": ExperimentPlan(
                name="smoke-ring", topology="ring", demand="uniform",
                variants=("weak", "fast"), n=8, reps=reps,
                seed=derive_seed(seed, "smoke/ring"),
            ),
            "line-faults": ExperimentPlan(
                name="smoke-line", topology="line", demand="uniform",
                variants=("weak", "fast"), faults=("none", "split_brain"),
                n=9, reps=reps, seed=derive_seed(seed, "smoke/line"),
            ),
        },
        params={"reps": reps, "seed": seed},
    )


#: Campaign factories by CLI name; each accepts ``reps``/``seed``
#: keywords and carries its own fidelity default for ``reps``.
CAMPAIGNS: Dict[str, Callable[..., Campaign]] = {
    "scaling": lambda reps=40, seed=1: scaling_campaign(reps=reps, seed=seed),
    "figures": figures_campaign,
    "robustness": robustness_campaign,
    "smoke": smoke_campaign,
}


def build_campaign(
    name: str, reps: Optional[int] = None, seed: int = 1
) -> Campaign:
    """Instantiate a registered campaign or fail with the known names.

    ``reps=None`` keeps the campaign's own fidelity default (e.g. the
    ``figures`` campaign runs 120 reps like ``repro fig5`` does) rather
    than imposing one CLI-wide number on every campaign.
    """
    if name not in CAMPAIGNS:
        raise ExperimentError(
            f"unknown campaign {name!r}; known: {sorted(CAMPAIGNS)}"
        )
    kwargs: Dict[str, object] = {"seed": seed}
    if reps is not None:
        kwargs["reps"] = reps
    return CAMPAIGNS[name](**kwargs)


# ---------------------------------------------------------------------------
# §1 motivation: strong consistency cost
# ---------------------------------------------------------------------------


@dataclass
class StrongCostResult:
    """Strong vs weak per-write cost across sizes (§1 motivation)."""

    rows_by_size: Dict[int, Dict[str, float]]

    def rows(self) -> List[Tuple[object, ...]]:
        rows = []
        for n, data in self.rows_by_size.items():
            rows.append(
                (
                    n,
                    f"{data['strong_latency']:.3f}",
                    f"{data['strong_messages']:.0f}",
                    f"{data['strong_fail_rate']:.2f}",
                    f"{data['weak_latency']:.3f}",
                    f"{data['weak_convergence']:.3f}",
                )
            )
        return rows


def strong_cost_experiment(
    sizes: Sequence[int] = (10, 25, 50),
    reps: int = 10,
    seed: int = 1,
    loss: float = 0.05,
) -> StrongCostResult:
    """Measure §1's claims about synchronous replication.

    For each size: the strong system's commit latency and message count
    per write (plus its failure rate under ``loss``), against the weak
    system's client-visible write latency (zero — the write returns
    immediately) and background convergence time.
    """
    rows: Dict[int, Dict[str, float]] = {}
    for n in sizes:
        strong_latency = 0.0
        strong_messages = 0.0
        strong_failures = 0
        weak_convergence = 0.0
        for rep in range(reps):
            topo_seed = derive_seed(seed, f"strong-topo/{n}/{rep}")
            topo = internet_like(n, m=2, seed=topo_seed)
            strong = StrongConsistencySystem(
                topo, seed=derive_seed(seed, f"strong-sim/{n}/{rep}")
            )
            wid = strong.write(origin=list(topo.nodes)[0])
            strong.sim.run(until=50.0)
            if strong.committed(wid):
                strong_latency += strong.latencies[-1]
            strong_messages += strong.network.counters.messages_sent

            lossy = StrongConsistencySystem(
                topo,
                seed=derive_seed(seed, f"strong-lossy/{n}/{rep}"),
                loss=loss,
                write_timeout=5.0,
            )
            wid2 = lossy.write(origin=list(topo.nodes)[0])
            lossy.sim.run(until=50.0)
            if not lossy.committed(wid2):
                strong_failures += 1

            weak = ReplicationSystem(
                topology=topo,
                demand=UniformRandomDemand(seed=topo_seed),
                config=weak_consistency(),
                seed=derive_seed(seed, f"weak-sim/{n}/{rep}"),
            )
            weak.start()
            update = weak.inject_write(list(topo.nodes)[0])
            done = weak.run_until_replicated(update.uid, max_time=80.0)
            weak_convergence += done if done is not None else 80.0
        rows[n] = {
            "strong_latency": strong_latency / reps,
            "strong_messages": strong_messages / reps,
            "strong_fail_rate": strong_failures / reps,
            "weak_latency": 0.0,  # weak writes return to the client at once
            "weak_convergence": weak_convergence / reps,
        }
    return StrongCostResult(rows_by_size=rows)
