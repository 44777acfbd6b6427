"""Declarative, picklable experiment plans.

The paper's evaluation is hundreds of paired repetitions across
topology x demand x variant grids. A :class:`ScenarioSpec` describes one
repetition of one variant *by registry name* (see
:mod:`repro.experiments.scenarios`) plus derived seeds — no live
:class:`~repro.topology.graph.Topology` or
:class:`~repro.demand.base.DemandModel` objects — so specs cross process
boundaries and the grid can fan out over an
:class:`~repro.experiments.backends.ExecutionBackend`.

:class:`ExperimentPlan` is the one front end for repeated trials: it
expands ``reps x variants`` into scenario specs whose seeds come from
:func:`~repro.experiments.harness.rep_seeds`, so a plan executed on any
backend gives the same result bit-for-bit. Every registry builder is a
pure function of its seeds, which is what makes "rebuild inside the
worker" equivalent to "share one object across variants". A paper
artefact that measures something other than the §5 trial passes its
own ``trial`` hook, not a second loop.

Example::

    plan = ExperimentPlan(
        name="fig5", topology="ba", demand="uniform",
        variants=("weak", "fast"), n=50, reps=120, seed=1,
    )
    result = plan.run(ProcessPoolBackend(max_workers=4))
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..faults.schedule import FaultSchedule
from ..topology.graph import Topology
from .harness import DEFAULT_TOP_FRACTION, TrialSpec, rep_seeds, run_trial
from .results import ExperimentResult, TrialResult
from .scenarios import DEMANDS, FAULTS, PLACEMENTS, TOPOLOGIES, VARIANTS, lookup


def series_label(variant: str, faults: str, placement: str = "none") -> str:
    """Result-series name for a (variant, fault regime, placement) triple.

    Healthy trials keep the bare variant name (existing results stay
    stable); faulted trials append the regime, so a plan sweeping fault
    regimes yields one comparable series per pair, and placement
    regimes append a ``+placement`` suffix the same way.
    """
    label = variant if faults == "none" else f"{variant}@{faults}"
    return label if placement == "none" else f"{label}+{placement}"


@dataclass(frozen=True)
class ScenarioSpec:
    """One repetition of one variant, named by registry keys.

    Unlike :class:`~repro.experiments.harness.TrialSpec` (which carries
    live objects), every field here is a plain string, number or
    mapping, or a module-level ``trial`` function that pickles by
    reference, so the spec pickles cheaply and the worker process
    rebuilds the topology, demand model and protocol config itself.

    Attributes:
        experiment: Name of the owning experiment (for reports).
        rep: Repetition index within the experiment.
        variant: :data:`~repro.experiments.scenarios.VARIANTS` key, or
            any name the ``trial`` hook understands.
        topology: :data:`~repro.experiments.scenarios.TOPOLOGIES` key.
        demand: :data:`~repro.experiments.scenarios.DEMANDS` key.
        n: Requested node count (generators may round; the effective
            count is recorded in ``TrialResult.n_nodes``).
        topo_seed / demand_seed / sim_seed / origin_seed: Derived seeds;
            every variant of the same repetition shares them, which is
            what makes variant comparisons paired.
        max_time / top_fraction / loss: Run knobs, as in ``TrialSpec``.
        faults: :data:`~repro.experiments.scenarios.FAULTS` key naming
            the fault regime replayed during the trial (``"none"`` = a
            healthy network).
        fault_seed: Derived seed the fault generator runs with; shared
            by every variant of a repetition so fault comparisons are
            paired too.
        placement: :data:`~repro.experiments.scenarios.PLACEMENTS` key
            naming the placement regime (``"none"`` = classic harness,
            ``"static"`` = capacity metric without a controller, any
            policy name = run the autoscaler).
        seed / params: The owning plan's master seed and parameters; a
            ``trial`` hook derives its draws from ``(seed, rep)``.
        trial: The plan's trial hook (None = the §5 trial of
            :func:`~repro.experiments.harness.run_trial`).
    """

    experiment: str
    rep: int
    variant: str
    topology: str
    demand: str
    n: int
    topo_seed: int
    demand_seed: int
    sim_seed: int
    origin_seed: int
    max_time: float = 80.0
    top_fraction: float = DEFAULT_TOP_FRACTION
    loss: float = 0.0
    faults: str = "none"
    fault_seed: int = 0
    placement: str = "none"
    seed: int = 0
    params: Dict[str, object] = field(default_factory=dict, hash=False)
    trial: Optional[Callable[["ScenarioSpec"], TrialResult]] = None

    def validate(self) -> "ScenarioSpec":
        """Raise :class:`ExperimentError` if any registry key is unknown."""
        lookup("topology", TOPOLOGIES, self.topology)
        lookup("demand", DEMANDS, self.demand)
        if self.trial is None:
            lookup("variant", VARIANTS, self.variant)
        lookup("fault regime", FAULTS, self.faults)
        lookup("placement", PLACEMENTS, self.placement)
        return self

    def series_label(self) -> str:
        """Name of the result series this trial belongs to."""
        return series_label(self.variant, self.faults, self.placement)

    def key(self) -> str:
        """Stable identity of this scenario within its experiment.

        ``(rep, faults, placement, variant)`` uniquely names a scenario
        inside one plan (topology, demand and n are plan constants), so
        the key is what checkpoint sinks use to skip already-recorded
        work on resume. Campaign runners prefix it with the plan's
        name. Placement-free scenarios keep the historical three-part
        key, so existing checkpoints stay valid.
        """
        key = f"rep={self.rep}/faults={self.faults}/variant={self.variant}"
        if self.placement != "none":
            key += f"/placement={self.placement}"
        return key

    # -- materialisation (runs inside the worker process) -----------------

    def build_topology(self) -> Topology:
        return TOPOLOGIES[self.topology](self.n, self.topo_seed)

    def resolve_origin(self, topology: Topology) -> int:
        """Pick the repetition's write origin from its origin seed."""
        return random.Random(self.origin_seed).choice(list(topology.nodes))

    def build_faults(self, topology: Topology) -> Optional[FaultSchedule]:
        """Generate the fault schedule (None for ``"none"``/empty ones)."""
        schedule = FAULTS[self.faults](topology, self.fault_seed)
        return schedule if schedule.events else None

    def to_trial_spec(self) -> TrialSpec:
        """Build the live :class:`TrialSpec` this scenario describes."""
        self.validate()
        topology = self.build_topology()
        demand = DEMANDS[self.demand](topology, self.demand_seed)
        return TrialSpec(
            topology=topology,
            demand=demand,
            config=VARIANTS[self.variant](),
            seed=self.sim_seed,
            origin=self.resolve_origin(topology),
            max_time=self.max_time,
            top_fraction=self.top_fraction,
            loss=self.loss,
            faults=self.build_faults(topology),
            placement=PLACEMENTS[self.placement](),
        )

    def run(self) -> TrialResult:
        """Execute this scenario and return its measurements."""
        trial = self.trial(self) if self.trial else run_trial(self.to_trial_spec())[0]
        return replace(trial, rep=self.rep)


def run_scenario(spec: ScenarioSpec) -> TrialResult:
    """Module-level entry point so process pools can pickle the work."""
    return spec.run()


@dataclass(frozen=True)
class ExperimentPlan:
    """A reps x variants grid over one (topology, demand) scenario.

    Attributes:
        name: Experiment id recorded in the result.
        topology / demand: Registry keys resolved inside each trial.
        variants: Registry keys, one series per entry (order preserved).
        n: Requested node count per topology.
        reps: Paired repetitions per variant.
        seed: Master seed; repetition *i* derives its topology, demand,
            simulator, origin and fault seeds from it with
            :func:`~repro.experiments.harness.rep_seeds`.
        max_time / top_fraction / loss: Run knobs for every trial.
        faults: Fault-regime registry keys to sweep (default: a healthy
            network). Each extra regime multiplies the grid; every
            (variant, regime) pair of a repetition shares the
            repetition's seeds, so fault comparisons are paired the same
            way variant comparisons are.
        placements: Placement-regime registry keys to sweep (default:
            placement disabled). Sweeping e.g. ``("static",
            "threshold")`` yields paired series whose
            ``satisfied_area`` difference is the autoscaler's measured
            benefit on identical seeds.
        params: Extra parameters recorded verbatim in the result and
            handed to every scenario.
        trial: A module-level function from :class:`ScenarioSpec` to
            :class:`TrialResult` that replaces the §5 trial (Fig. 3, the
            §4 chain, partitions...). It pickles by reference, draws
            from ``(spec.seed, spec.rep)``, and reads ``spec.variant``
            as any name it knows.
    """

    name: str
    topology: str = "ba"
    demand: str = "uniform"
    variants: Tuple[str, ...] = ("weak", "fast")
    n: int = 50
    reps: int = 50
    seed: int = 0
    max_time: float = 80.0
    top_fraction: float = DEFAULT_TOP_FRACTION
    loss: float = 0.0
    faults: Tuple[str, ...] = ("none",)
    placements: Tuple[str, ...] = ("none",)
    params: Dict[str, object] = field(default_factory=dict)
    trial: Optional[Callable[[ScenarioSpec], TrialResult]] = None

    def __post_init__(self) -> None:
        # A bare string is a single key, not an iterable of characters.
        for attr in ("variants", "faults", "placements"):
            value = getattr(self, attr)
            coerced = (value,) if isinstance(value, str) else tuple(value)
            object.__setattr__(self, attr, coerced)

    def validate(self) -> "ExperimentPlan":
        if self.reps < 1:
            raise ExperimentError(f"reps must be >= 1, got {self.reps}")
        if not self.variants:
            raise ExperimentError("no variants given")
        if len(set(self.variants)) != len(self.variants):
            raise ExperimentError(f"duplicate variants in {self.variants}")
        if not self.faults:
            raise ExperimentError("no fault regimes given (use ('none',))")
        if len(set(self.faults)) != len(self.faults):
            raise ExperimentError(f"duplicate fault regimes in {self.faults}")
        if not self.placements:
            raise ExperimentError("no placements given (use ('none',))")
        if len(set(self.placements)) != len(self.placements):
            raise ExperimentError(f"duplicate placements in {self.placements}")
        if self.trial is not None and {*self.faults, *self.placements} != {"none"}:
            raise ExperimentError("a trial hook takes no fault or placement regimes")
        lookup("topology", TOPOLOGIES, self.topology)
        lookup("demand", DEMANDS, self.demand)
        if self.trial is None:
            for variant in self.variants:
                lookup("variant", VARIANTS, variant)
        for fault in self.faults:
            lookup("fault regime", FAULTS, fault)
        for placement in self.placements:
            lookup("placement", PLACEMENTS, placement)
        return self

    # -- expansion --------------------------------------------------------

    def scenarios(self) -> List[ScenarioSpec]:
        """Expand into scenario specs, repetition-major.

        Every (fault regime, variant) pair of repetition *i* shares that
        repetition's derived seeds, so comparisons stay paired no matter
        which backend runs the specs or in what order the pool schedules
        them. Variants are innermost, so a plan with the default healthy
        regime expands exactly as before the faults axis existed.
        """
        self.validate()
        specs: List[ScenarioSpec] = []
        for rep in range(self.reps):
            seeds = rep_seeds(self.seed, rep)
            for fault in self.faults:
                for placement in self.placements:
                    for variant in self.variants:
                        specs.append(
                            ScenarioSpec(
                                experiment=self.name,
                                rep=rep,
                                variant=variant,
                                topology=self.topology,
                                demand=self.demand,
                                n=self.n,
                                topo_seed=seeds.topology,
                                demand_seed=seeds.demand,
                                sim_seed=seeds.simulator,
                                origin_seed=seeds.origin,
                                max_time=self.max_time,
                                top_fraction=self.top_fraction,
                                loss=self.loss,
                                faults=fault,
                                fault_seed=seeds.faults,
                                placement=placement,
                                seed=self.seed,
                                params=self.params,
                                trial=self.trial,
                            )
                        )
        return specs

    def series_labels(self) -> Tuple[str, ...]:
        """Result-series names in expansion order (fault-major)."""
        return tuple(
            series_label(variant, fault, placement)
            for fault in self.faults
            for placement in self.placements
            for variant in self.variants
        )

    def total_trials(self) -> int:
        """Trials the plan expands to (``reps * faults * placements * variants``)."""
        return (
            self.reps
            * len(self.faults)
            * len(self.placements)
            * len(self.variants)
        )

    # -- execution --------------------------------------------------------

    def assemble(
        self, trials: Sequence[TrialResult], backend_name: str = "serial"
    ) -> ExperimentResult:
        """Package trials (in expansion order) into an experiment result.

        Split out of :meth:`run` so campaign runners can execute the
        scenario stream themselves (out of order, partially from a
        checkpoint sink) and still produce the exact result a plain
        ``plan.run`` would: assembly only depends on the trial rows and
        their expansion-order position.
        """
        if len(trials) != self.total_trials():
            raise ExperimentError(
                f"plan {self.name} expands to {self.total_trials()} trials, "
                f"got {len(trials)}"
            )
        result = ExperimentResult(
            name=self.name,
            params={
                "reps": self.reps,
                "seed": self.seed,
                "max_time": self.max_time,
                "top_fraction": self.top_fraction,
                "loss": self.loss,
                "topology": self.topology,
                "demand": self.demand,
                "variants": list(self.variants),
                "faults": list(self.faults),
                "placements": list(self.placements),
                "n": self.n,
                **dict(self.params),
            },
        )
        labels = self.series_labels()
        for index, trial in enumerate(trials):
            result.variant(labels[index % len(labels)]).add(trial)
        effective = {t.n_nodes for t in trials if t.n_nodes is not None}
        if effective and effective != {self.n}:
            result.params["effective_n"] = sorted(effective)[0]
        result.notes["backend"] = backend_name
        return result

    def run(self, backend: Optional["ExecutionBackend"] = None) -> ExperimentResult:
        """Execute every scenario on ``backend`` (serial by default).

        Results are assembled in expansion order, so the returned
        :class:`ExperimentResult` is identical for every backend. A
        passed-in backend is left open (its pool keeps running for the
        caller's next plan); close it yourself or use it as a context
        manager.
        """
        from .backends import SerialBackend

        if backend is None:
            backend = SerialBackend()
        trials = backend.run_trials(self.scenarios())
        return self.assemble(trials, backend.name)
