"""Evaluation harness: plans, backends, trials, CDFs, figure drivers.

An :class:`ExperimentPlan` is the one way to run repeated trials; the
layer is split in five:

* **Declarative plans** (:mod:`repro.experiments.plan`) — an
  :class:`ExperimentPlan` names topology/demand/variants by registry
  key and expands ``reps x variants`` into picklable
  :class:`ScenarioSpec` objects.
* **Execution backends** (:mod:`repro.experiments.backends`) — a
  :class:`SerialBackend` or :class:`ProcessPoolBackend` turns scenarios
  into :class:`TrialResult` rows; all backends are bit-identical, only
  wall-clock differs. Backends are persistent (a pool is spawned once
  and reused until ``close()``) and can stream results as they
  complete.
* **Campaigns** (:mod:`repro.experiments.campaign`) — a
  :class:`Campaign` runs many named plans over one shared backend,
  checkpointing every completed trial to a
  :class:`~repro.experiments.sink.JsonLinesSink` so interrupted runs
  resume bit-identically.
* **Columnar export** (:mod:`repro.experiments.columnar`) — a
  checkpoint streamed into packed per-column binaries for offline
  analysis (``repro campaign export --columnar``).
* **Figure drivers** (:mod:`repro.experiments.figures`) — every
  table/figure of the paper maps to one driver, which reports the
  paper's value beside the measured one (``python -m repro all``).

A scenario the registries cannot express gets a registry entry in
:mod:`repro.experiments.scenarios`, or a plan ``trial`` hook when it
measures something other than the §5 trial, so it runs as a plan like
any other.
"""

from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from .campaign import Campaign, CampaignPaused, CampaignResult, scenario_key
from .cdf import EmpiricalCdf, SummaryStats, session_grid
from .columnar import export_columnar, read_column, read_manifest
from .figures import (
    PAPER,
    AblationResult,
    Figure3Result,
    FigureCdfResult,
    IslandsResult,
    OverheadResult,
    ScalingResult,
    StrongCostResult,
    Table1Result,
    Table2Result,
    UniformTopologiesResult,
    ablation_experiment,
    figure3,
    figure_cdf,
    islands_experiment,
    overhead_experiment,
    scaling_experiment,
    strong_cost_experiment,
    table1_orderings,
    table2_dynamic,
    uniform_topologies,
)
from .figures import (
    CAMPAIGNS,
    build_campaign,
    figure_cdf_plan,
    figures_campaign,
    robustness_campaign,
    scaling_campaign,
    scaling_plans,
    smoke_campaign,
)
from .sink import (
    CheckpointStatus,
    JsonLinesSink,
    ResultSink,
    StreamingSink,
    default_sidecar,
    sink_status,
    stream_status,
)
from .harness import (
    DEFAULT_TOP_FRACTION,
    RepSeeds,
    TrialSpec,
    rep_seeds,
    run_trial,
)
from .plan import ExperimentPlan, ScenarioSpec, run_scenario
from .results import ExperimentResult, TrialResult, VariantSeries
from .scenarios import (
    DEMANDS,
    FAULTS,
    TOPOLOGIES,
    VARIANTS,
    build_demand,
    build_faults,
    build_system,
    build_topology,
    build_variant,
)
from .tables import format_kv, format_table

__all__ = [
    "EmpiricalCdf",
    "SummaryStats",
    "session_grid",
    "ExperimentResult",
    "TrialResult",
    "VariantSeries",
    "TrialSpec",
    "run_trial",
    "DEFAULT_TOP_FRACTION",
    "RepSeeds",
    "rep_seeds",
    # declarative pipeline
    "ExperimentPlan",
    "ScenarioSpec",
    "run_scenario",
    "figure_cdf_plan",
    "scaling_plans",
    # execution backends
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
    # campaigns & checkpoint sinks
    "Campaign",
    "CampaignResult",
    "CampaignPaused",
    "scenario_key",
    "JsonLinesSink",
    "StreamingSink",
    "ResultSink",
    "sink_status",
    "stream_status",
    "CheckpointStatus",
    "default_sidecar",
    "export_columnar",
    "read_column",
    "read_manifest",
    "CAMPAIGNS",
    "build_campaign",
    "scaling_campaign",
    "figures_campaign",
    "robustness_campaign",
    "smoke_campaign",
    "format_table",
    "format_kv",
    # figure drivers
    "PAPER",
    "figure_cdf",
    "figure3",
    "table1_orderings",
    "table2_dynamic",
    "scaling_experiment",
    "uniform_topologies",
    "islands_experiment",
    "overhead_experiment",
    "ablation_experiment",
    "strong_cost_experiment",
    "FigureCdfResult",
    "Figure3Result",
    "Table1Result",
    "Table2Result",
    "ScalingResult",
    "UniformTopologiesResult",
    "IslandsResult",
    "OverheadResult",
    "AblationResult",
    "StrongCostResult",
    # scenario registry
    "TOPOLOGIES",
    "DEMANDS",
    "VARIANTS",
    "FAULTS",
    "build_topology",
    "build_demand",
    "build_variant",
    "build_faults",
    "build_system",
]
