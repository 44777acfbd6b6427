"""Per-figure and per-table experiment drivers.

Each public function regenerates one artefact of the paper and returns
a structured result the CLI renders. Paper reference values are collected in
:data:`PAPER` so reports always print paper-vs-measured side by side.

Every driver that repeats a trial runs an
:class:`~repro.experiments.plan.ExperimentPlan`, so its repetitions run
on any :class:`~repro.experiments.backends.ExecutionBackend` with
bit-identical results. The bespoke scenarios (the §2 star, the §4
chain, islands, partitions...) pass a module-level ``trial`` hook: one
repetition of one variant, drawing from ``(spec.seed, spec.rep)`` under
the artefact's own labels (``"fig3/{rep}"``, ...) and returning its
measures in ``TrialResult.extra``; the driver reduces the series' sums
or means into its result dataclass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import ProtocolConfig
from ..core.islands import bridge_system, detect_islands, elect_leaders
from ..core.metrics import ConvergenceTracker, TrafficMeter, mean_reach_time
from ..core.metrics import reach_time, satisfied_requests_series
from ..core.policies import DemandOrderedPolicy
from ..core.strong import StrongConsistencySystem
from ..core.system import ReplicationSystem
from ..core.variants import (
    dynamic_fast_consistency,
    fast_consistency,
    static_table_consistency,
    weak_consistency,
)
from ..demand.base import DemandModel
from ..demand.dynamic import FIG4_REPLICAS, RandomWalkDemand, ScheduledDemand
from ..demand.dynamic import paper_fig4_demand
from ..demand.field import two_valley_field
from ..demand.static import SECTION2_REPLICAS, ConstantDemand, ExplicitDemand
from ..demand.static import UniformRandomDemand, ZipfDemand, uniform_snapshot_for
from ..demand.views import OracleDemandView, SnapshotDemandView
from ..errors import ExperimentError
from ..port.rng import derive_seed
from ..topology.analysis import diameter as topo_diameter
from ..topology.brite import internet_like
from ..topology.graph import Topology
from ..topology.simple import grid as grid_topology
from ..topology.simple import star as star_topology
from .campaign import Campaign
from .cdf import session_grid
from .plan import ExperimentPlan, ScenarioSpec
from .results import ExperimentResult, TrialResult
from .scenarios import VARIANTS

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


def _started(
    topology: Topology, demand: DemandModel, config: ProtocolConfig, seed: int
) -> ReplicationSystem:
    """Build and start an experiment system with tracing off (throughput)."""
    system = ReplicationSystem(topology, demand, config, seed)
    system.sim.trace.disable()
    system.start()
    return system


def _measured(system, origin: int, times, t0: float = 0.0, **extra) -> TrialResult:
    """A trial hook's row: the generic measures of ``system`` (anything
    with a ``topology`` and a ``network``) plus the artefact's ``extra``."""
    nodes, counters = system.topology.nodes, system.network.counters
    return TrialResult(
        rep=-1, origin=origin, time_all=reach_time(times, nodes, t0),
        time_top=None, time_top1=None, mean_time=mean_reach_time(times, nodes, t0),
        diameter=topo_diameter(system.topology), messages=counters.messages_sent,
        bytes_sent=counters.bytes_sent, n_nodes=len(nodes),
        extra={name: float(value) for name, value in extra.items()},
    )


def _replicate(system: ReplicationSystem, origin: int, max_time: float):
    """Write at ``origin`` and run until every replica has it or
    ``max_time`` passes; returns ``(that time or None, apply times)``."""
    update = system.inject_write(origin)
    done = system.run_until_replicated(update.uid, max_time=max_time)
    return done, system.apply_times(update.uid)


def _means(backend, **plan) -> Dict[str, Dict[str, float]]:
    """Run a trial-hook plan; each variant's ``extra`` means."""
    series = ExperimentPlan(**plan).run(backend).series
    return {variant: s.extra_means() for variant, s in series.items()}


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
    larger ``reps`` via the CLI for full fidelity). Runs
    :func:`figure_cdf_plan`, so passing a parallel ``backend`` (e.g.
    ``ProcessPoolBackend``) fans the repetitions out over cores with
    bit-identical results. Only the registered BA densities (m=2, 3)
    are accepted.
    """
    experiment = figure_cdf_plan(
        n, reps=reps, seed=seed, m=m, top_fraction=top_fraction, max_time=max_time
    ).run(backend)
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


#: The §2 demands on the star Fig. 3 simulates: B is the hub (0), A
#: takes B's id and everyone else keeps theirs.
STAR_DEMANDS: Dict[int, float] = {0: 6.0, 1: 4.0, 2: 3.0, 3: 8.0, 4: 7.0}

_FIG3_HORIZON = 4


def _fig3_trial(spec: ScenarioSpec) -> TrialResult:
    """One fast-consistency write from the hub of the §2 star."""
    seed = derive_seed(spec.seed, f"fig3/{spec.rep}")
    system = _started(
        star_topology(5), ExplicitDemand(STAR_DEMANDS), fast_consistency(), seed
    )
    _, times = _replicate(system, 0, spec.max_time)
    sat = satisfied_requests_series(times, STAR_DEMANDS, _FIG3_HORIZON)
    return _measured(system, 0, times, **{f"sat@{k}": v for k, v in enumerate(sat, 1)})


def figure3(reps: int = 60, seed: int = 1, backend=None) -> Figure3Result:
    """Fig. 3: requests satisfied with consistent content over time.

    The worst/optimal curves are the paper's analytic example (one
    B-initiated session per time unit). The fast-consistency curve is
    *simulated* on the same five replicas (a star with B at the hub,
    :data:`STAR_DEMANDS`) and — as §2 claims — beats the optimal case
    because the push to D happens at link speed instead of waiting for
    the first session.
    """
    means = _means(
        backend, name="fig3", trial=_fig3_trial, variants=("fast",), n=5,
        reps=reps, seed=seed, max_time=40.0,
    )["fast"]
    return Figure3Result(
        sessions=list(range(1, _FIG3_HORIZON + 1)),
        worst=_ordering_series(("C", "A", "E", "D")),
        optimal=_ordering_series(("D", "E", "A", "C")),
        fast_simulated=[means[f"sat@{k}"] for k in range(1, _FIG3_HORIZON + 1)],
        reps=reps,
    )


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


#: Protocol configs of the Table 2 chain scenario, by variant name.
_TABLE2_CONFIGS: Dict[str, Callable[[], ProtocolConfig]] = {
    "static-table": static_table_consistency,
    "dynamic-oracle": fast_consistency,
    "dynamic-advertised": partial(dynamic_fast_consistency, advert_period=0.5),
}

_TABLE2_HORIZON = 6


def _table2_trial(spec: ScenarioSpec) -> TrialResult:
    """One write from B walking the displaced Fig. 4 chain."""
    topo, model, node_c = _fig4_chain_scenario()
    seed = derive_seed(spec.seed, f"table2/{spec.rep}")
    system = _started(topo, model, _TABLE2_CONFIGS[spec.variant](), seed)
    _, times = _replicate(system, 0, spec.max_time)  # B writes
    t_c, t_all = times.get(node_c), reach_time(times, topo.nodes)
    if t_c is None or t_all is None:
        raise ExperimentError(f"fig4 chain run did not converge ({spec.variant})")
    satisfied = satisfied_requests_series(
        times, model, _TABLE2_HORIZON, nodes=topo.nodes
    )
    return _measured(
        system, 0, times, time_to_c=t_c, time_all=t_all,
        **{f"sat@{k}": v for k, v in enumerate(satisfied, 1)},
    )


def table2_dynamic(reps: int = 80, seed: int = 1, backend=None) -> Table2Result:
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
    means = _means(
        backend, name="table2", trial=_table2_trial,
        variants=tuple(_TABLE2_CONFIGS), n=7, reps=reps, seed=seed, max_time=60.0,
    )
    return Table2Result(
        reps=reps,
        sequences=table2_selection_sequence(),
        mean_time_to_c={v: m["time_to_c"] for v, m in means.items()},
        mean_time_all={v: m["time_all"] for v, m in means.items()},
        satisfied_at={
            v: [m[f"sat@{k}"] for k in range(1, _TABLE2_HORIZON + 1)]
            for v, m in means.items()
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
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (0, 6)):
        topo.add_edge(a, b)
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


def uniform_topologies(
    reps: int = 30, seed: int = 1, backend=None
) -> UniformTopologiesResult:
    """§5: "similar results ... with simpler uniform topologies"."""
    # Row name -> (TOPOLOGIES registry key, node count).
    cases = {"line-24": ("line", 24), "ring-24": ("ring", 24), "grid-5x5": ("grid", 25)}
    rows: Dict[str, Dict[str, float]] = {}
    for name, (topology, n) in cases.items():
        experiment = ExperimentPlan(
            name=f"uniform-{name}",
            topology=topology,
            demand="uniform",
            variants=("weak", "fast"),
            n=n,
            reps=reps,
            seed=derive_seed(seed, f"uniform/{name}"),
            max_time=200.0,
        ).run(backend)
        weak_cdf = experiment.series["weak"].cdf_all()
        fast_cdf = experiment.series["fast"].cdf_all()
        fast_top = experiment.series["fast"].cdf_top()
        first = experiment.series["weak"].trials[0]
        rows[name] = {
            "n": first.n_nodes,
            "diameter": first.diameter,
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


def _islands_trial(spec: ScenarioSpec) -> TrialResult:
    """One write from the busier valley's leader, bridged or not."""
    rows, cols = spec.params["rows"], spec.params["cols"]
    topo = grid_topology(rows, cols)
    demand = two_valley_field(
        topo, plane_size=float(max(rows, cols) - 1), peak=100.0, base=1.0
    )
    snapshot = demand.snapshot(topo.nodes, 0.0)
    raw_islands = detect_islands(topo, snapshot, percentile=80.0, min_size=2)
    islands = elect_leaders(raw_islands, snapshot)
    if len(islands) < 2:
        raise ExperimentError(
            "two-valley field produced fewer than two islands; "
            "increase the grid or the peak"
        )
    seed = derive_seed(spec.seed, f"islands/{spec.rep}")
    system = _started(topo, demand, fast_consistency(), seed)
    if spec.variant == "fast+bridges":
        bridge_system(system, percentile=80.0, min_size=2)
    origin_island = max(islands, key=lambda i: i.total_demand)
    far_island = min(
        (i for i in islands if i.index != origin_island.index),
        key=lambda i: -i.total_demand,
    )
    _, times = _replicate(system, origin_island.leader, spec.max_time)
    far_members = sorted(far_island.members)
    everyone = reach_time(times, topo.nodes)
    if everyone is None:
        raise ExperimentError("islands run did not converge")
    return _measured(
        system, origin_island.leader, times,
        far_leader=times[far_island.leader],
        far_island=sum(times[m] for m in far_members) / len(far_members),
        all=everyone, islands=len(islands),
    )


def islands_experiment(
    reps: int = 30, seed: int = 1, rows: int = 10, cols: int = 10, backend=None
) -> IslandsResult:
    """Two demand valleys on a grid; does bridging help across the ridge?

    A write originates at the leader of one island; we measure sessions
    until the *other* island's leader and members are consistent, with
    and without the §6 leader-bridge overlay. Member times are averaged
    per island (the max is dominated by each member's own session timer
    and hides the bridging effect).
    """
    means = _means(
        backend, name="islands", trial=_islands_trial,
        variants=("fast", "fast+bridges"), n=rows * cols, reps=reps, seed=seed,
        max_time=120.0, params={"rows": rows, "cols": cols},
    )
    return IslandsResult(
        reps=reps,
        # The same grid every repetition: the count is one exact value.
        islands_detected=int(means["fast"]["islands"]),
        mean_far_leader={v: m["far_leader"] for v, m in means.items()},
        mean_far_island={v: m["far_island"] for v, m in means.items()},
        mean_all={v: m["all"] for v, m in means.items()},
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


def _overhead_trial(spec: ScenarioSpec) -> TrialResult:
    """One write, then traffic counted over the fixed ``max_time`` window."""
    seed, rep = spec.seed, spec.rep
    topo = internet_like(spec.n, m=2, seed=derive_seed(seed, f"overhead-topo/{rep}"))
    demand = UniformRandomDemand(
        0.0, 100.0, seed=derive_seed(seed, f"overhead-demand/{rep}")
    )
    sim_seed = derive_seed(seed, f"overhead-sim/{rep}")
    system = _started(topo, demand, VARIANTS[spec.variant](), sim_seed)
    origin = random.Random(sim_seed).choice(list(topo.nodes))
    update = system.inject_write(origin)
    system.run_until(spec.max_time)
    report = TrafficMeter(system.network).report()
    times = system.apply_times(update.uid)
    t_top = reach_time(times, demand.top_fraction(topo.nodes, 0.1))
    return _measured(
        system, origin, times,
        messages=report.messages_total, bytes=report.bytes_total,
        fast_bytes=report.bytes_fast,
        time_top=t_top if t_top is not None else spec.max_time,
    )


def overhead_experiment(
    reps: int = 20, seed: int = 1, n: int = 50, horizon: float = 10.0, backend=None
) -> OverheadResult:
    """Measure total traffic for weak vs fast over the same fixed window.

    Both variants run for exactly ``horizon`` session times on identical
    topologies/demands with one injected write, so byte counts are
    directly comparable: the fast-update machinery should add only a
    small fraction of bytes while slashing high-demand latency.
    """
    means = _means(
        backend, name="overhead", trial=_overhead_trial, variants=("weak", "fast"),
        n=n, reps=reps, seed=seed, max_time=horizon,
    )
    rows = {
        variant: {
            "messages": m["messages"],
            "bytes": m["bytes"],
            "fast_bytes": m["fast_bytes"],
            "fast_share": m["fast_bytes"] / m["bytes"] if m["bytes"] else 0.0,
            "time_top": m["time_top"],
        }
        for variant, m in means.items()
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
    reps: int = 40, seed: int = 1, n: int = 50, backend=None
) -> AblationResult:
    """Decompose fast consistency into its two optimisations.

    Variants: weak (neither), ordered-only (opt. 1), push-only (opt. 2),
    fast (both), fast with the unconditional ``always`` push rule, and
    fast with fanout 2 — quantifying each §2 design choice.
    """
    variants = (
        "weak", "ordered", "push-only", "fast", "fast-always", "fast-fanout2"
    )
    experiment = ExperimentPlan(
        name="ablation",
        topology="ba",
        demand="uniform",
        variants=variants,
        n=n,
        reps=reps,
        seed=seed,
    ).run(backend)
    rows = {}
    for variant in variants:
        series = experiment.series[variant]
        rows[{"ordered": "ordered-only"}.get(variant, variant)] = {
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


def _skew_demand(skew: str, topo: Topology, seed: int) -> DemandModel:
    if skew == "flat":
        return ConstantDemand(10.0)
    if skew == "uniform":
        return UniformRandomDemand(0.0, 100.0, seed=seed)
    return ZipfDemand(topo.nodes, exponent=float(skew.split("/")[1]), seed=seed)


def _skew_trial(spec: ScenarioSpec) -> TrialResult:
    """Weak then fast on one skew level; the row measures the fast run."""
    seed, rep = spec.seed, spec.rep
    topo = internet_like(spec.n, m=2, seed=derive_seed(seed, f"skew-topo/{rep}"))
    sim_seed = derive_seed(seed, f"skew-sim/{rep}")
    origin = random.Random(sim_seed).choice(list(topo.nodes))
    demand = _skew_demand(spec.variant, topo, derive_seed(seed, f"skew-d/{rep}"))
    weak = _started(topo, demand, weak_consistency(), sim_seed)
    weak_all, _ = _replicate(weak, origin, spec.max_time)
    fast = _started(topo, demand, fast_consistency(), sim_seed)
    tracker = ConvergenceTracker(fast.sim)
    update = fast.inject_write(origin)
    fast_all = fast.run_until_replicated(update.uid, max_time=spec.max_time)
    if weak_all is None or fast_all is None:
        raise ExperimentError(f"skew run did not converge ({spec.variant})")
    times = fast.apply_times(update.uid)
    return _measured(
        fast, origin, times, weak_all=weak_all, fast_all=fast_all,
        fast_top=times[demand.ranked(topo.nodes)[0]],
        push=tracker.delivery_breakdown(update.uid).get("fast", 0),
        nodes=topo.num_nodes - 1,
    )


def skew_experiment(
    reps: int = 25, seed: int = 1, n: int = 40, backend=None
) -> SkewResult:
    """Sweep demand non-uniformity from flat to heavily skewed.

    Demand skew is the paper's enabling assumption: with equal demands
    the algorithm "behaves like a normal weak consistency algorithm"
    (§8), and the more skewed the demand, the more work the push can do.
    For each skew level we measure weak vs fast convergence and the
    fraction of replicas that received the update via the push path.
    """
    experiment = ExperimentPlan(
        name="skew", trial=_skew_trial,
        variants=("flat", "uniform", "zipf/0.5", "zipf/1.5"),
        n=n, reps=reps, seed=seed, max_time=120.0,
    ).run(backend)
    rows = {}
    for skew, series in experiment.series.items():
        means, sums = series.extra_means(), series.extra_sums()
        rows[skew] = {
            "weak_all": means["weak_all"],
            "fast_all": means["fast_all"],
            "fast_top": means["fast_top"],
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


def _partition_trial(spec: ScenarioSpec) -> TrialResult:
    """One write on side A of a split that heals at ``heal_time``; the
    ``"strong"`` variant instead records whether a synchronous write
    attempted during the partition committed."""
    seed, rep, heal_time = spec.seed, spec.rep, spec.params["heal_time"]
    topo_seed = derive_seed(seed, f"part-topo/{rep}")
    topo = internet_like(spec.n, m=2, seed=topo_seed)
    nodes = sorted(topo.nodes)
    side_a, side_b = nodes[: spec.n // 2], nodes[spec.n // 2 :]
    origin = side_a[0]
    if spec.variant == "strong":
        strong = StrongConsistencySystem(
            topo, seed=derive_seed(seed, f"part-strong/{rep}"),
            write_timeout=heal_time - 0.5,
        )
        strong.network.links.partition([side_a, side_b])
        wid = strong.write(origin=origin)
        strong.sim.run(until=heal_time)
        return _measured(strong, origin, {}, committed=strong.committed(wid))
    demand = UniformRandomDemand(0.0, 100.0, seed=topo_seed)
    sim_seed = derive_seed(seed, f"part-sim/{rep}")
    system = _started(topo, demand, VARIANTS[spec.variant](), sim_seed)
    system.network.links.partition([side_a, side_b])
    update = system.inject_write(origin)
    system.run_until(heal_time)
    if not set(system.apply_times(update.uid)) <= set(side_a):
        raise ExperimentError("partition leaked an update to the far side")
    system.network.links.heal_partition()
    done = system.run_until_replicated(update.uid, max_time=spec.max_time)
    times = system.apply_times(update.uid)
    t_side_a = reach_time(times, side_a)
    if done is None or t_side_a is None:
        raise ExperimentError(f"partition run did not converge ({spec.variant})")
    return _measured(
        system, origin, times,
        time_side_a=t_side_a, time_all=done, after_heal=done - heal_time,
    )


def partition_experiment(
    reps: int = 20, seed: int = 1, n: int = 30, heal_time: float = 5.0, backend=None
) -> PartitionResult:
    """§1: weak consistency "withstand[s] segmentation"; strong does not.

    The network splits into two halves at t=0 (the write's side A and
    the far side B) and heals at ``heal_time``. Weak/fast replicas
    converge within side A during the partition and finish the far side
    shortly after healing; a synchronous write attempted during the
    partition can never commit.
    """
    means = _means(
        backend, name="partition", trial=_partition_trial,
        variants=("weak", "fast", "strong"), n=n, reps=reps, seed=seed,
        max_time=120.0, params={"heal_time": heal_time},
    )
    return PartitionResult(
        reps=reps,
        heal_time=heal_time,
        rows_by_variant={v: means[v] for v in ("weak", "fast")},
        strong_commit_rate_during_partition=means["strong"]["committed"],
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


#: Demand knowledge of the §4 staleness sweep, freshest first.
_STALENESS_CONFIGS: Dict[str, Callable[[], ProtocolConfig]] = {
    "oracle": fast_consistency,
    "advertised/0.5": partial(dynamic_fast_consistency, advert_period=0.5),
    "advertised/2": partial(dynamic_fast_consistency, advert_period=2.0),
    "advertised/8": partial(dynamic_fast_consistency, advert_period=8.0),
    "snapshot (§3)": static_table_consistency,
}

#: Demand drifts this long before the write, so snapshots are stale.
_STALE_WRITE_AT = 6.0


def _staleness_trial(spec: ScenarioSpec) -> TrialResult:
    """One write under drifting demand; a trial that never converged
    records ``completed=0`` and zeros, so it drops out of the means."""
    seed, rep = spec.seed, spec.rep
    topo = internet_like(spec.n, m=2, seed=derive_seed(seed, f"stale-topo/{rep}"))
    initial = uniform_snapshot_for(
        topo.nodes, 0.0, 100.0, seed=derive_seed(seed, f"stale-dem/{rep}")
    )
    demand = RandomWalkDemand(
        initial, step=25.0, low=0.0, high=100.0,
        seed=derive_seed(seed, f"stale-walk/{rep}"),
    )
    sim_seed = derive_seed(seed, f"stale-sim/{rep}")
    system = _started(topo, demand, _STALENESS_CONFIGS[spec.variant](), sim_seed)
    system.run_until(_STALE_WRITE_AT)
    origin = random.Random(sim_seed).choice(list(topo.nodes))
    _, times = _replicate(system, origin, spec.max_time)
    top1 = demand.ranked(topo.nodes, time=_STALE_WRITE_AT)[0]
    measures = {
        "mean_top": reach_time(times, [top1], t0=_STALE_WRITE_AT),
        "mean_all": reach_time(times, topo.nodes, t0=_STALE_WRITE_AT),
        "advert_bytes": system.network.counters.bytes_by_kind.get("demand-advert", 0),
    }
    completed = None not in measures.values()
    return _measured(
        system, origin, times, t0=_STALE_WRITE_AT, completed=completed,
        **{name: value if completed else 0.0 for name, value in measures.items()},
    )


def staleness_experiment(
    reps: int = 30, seed: int = 1, n: int = 40, backend=None
) -> StalenessResult:
    """Sweep the advertisement period under drifting demand.

    Demand follows a bounded random walk (it "changes with time", §3);
    fast consistency runs with oracle knowledge, advertised knowledge at
    several periods, and a frozen snapshot. The faster the adverts, the
    closer to the oracle — and the more advert bytes are spent; the
    frozen snapshot is the §3 straw man the sweep converges away from.
    """
    experiment = ExperimentPlan(
        name="staleness", trial=_staleness_trial,
        variants=tuple(_STALENESS_CONFIGS), n=n, reps=reps, seed=seed,
        max_time=80.0,
    ).run(backend)
    rows = {}
    for variant, series in experiment.series.items():
        sums = series.extra_sums()
        count = max(1, sums.pop("completed"))
        rows[variant] = {name: total / count for name, total in sums.items()}
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


def _strong_cost_trial(spec: ScenarioSpec) -> TrialResult:
    """One write on a strong, a lossy strong and a weak system of
    ``int(spec.variant)`` nodes; the row measures the weak run."""
    n, seed, rep = int(spec.variant), spec.seed, spec.rep
    topo_seed = derive_seed(seed, f"strong-topo/{n}/{rep}")
    topo = internet_like(n, m=2, seed=topo_seed)
    origin = list(topo.nodes)[0]
    strong = StrongConsistencySystem(
        topo, seed=derive_seed(seed, f"strong-sim/{n}/{rep}")
    )
    wid = strong.write(origin=origin)
    strong.sim.run(until=50.0)
    lossy = StrongConsistencySystem(
        topo, seed=derive_seed(seed, f"strong-lossy/{n}/{rep}"),
        loss=spec.loss, write_timeout=5.0,
    )
    lossy_wid = lossy.write(origin=origin)
    lossy.sim.run(until=50.0)
    demand = UniformRandomDemand(seed=topo_seed)
    weak_seed = derive_seed(seed, f"weak-sim/{n}/{rep}")
    weak = _started(topo, demand, weak_consistency(), weak_seed)
    done, times = _replicate(weak, origin, spec.max_time)
    return _measured(
        weak, origin, times,
        strong_latency=strong.latencies[-1] if strong.committed(wid) else 0.0,
        strong_messages=strong.network.counters.messages_sent,
        strong_failed=not lossy.committed(lossy_wid),
        weak_convergence=done if done is not None else spec.max_time,
    )


def strong_cost_experiment(
    sizes: Sequence[int] = (10, 25, 50),
    reps: int = 10,
    seed: int = 1,
    loss: float = 0.05,
    backend=None,
) -> StrongCostResult:
    """Measure §1's claims about synchronous replication.

    For each size: the strong system's commit latency and message count
    per write (plus its failure rate under ``loss``), against the weak
    system's client-visible write latency (zero — the write returns
    immediately) and background convergence time.
    """
    means = _means(
        backend, name="strongcost", trial=_strong_cost_trial,
        variants=tuple(str(n) for n in sizes), reps=reps, seed=seed,
        max_time=80.0, loss=loss,
    )
    rows = {
        int(size): {
            "strong_latency": m["strong_latency"],
            "strong_messages": m["strong_messages"],
            "strong_fail_rate": m["strong_failed"],
            "weak_latency": 0.0,  # weak writes return to the client at once
            "weak_convergence": m["weak_convergence"],
        }
        for size, m in means.items()
    }
    return StrongCostResult(rows_by_size=rows)
