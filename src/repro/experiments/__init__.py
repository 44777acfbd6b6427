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
  :class:`~repro.experiments.sink.StreamingSink` so interrupted runs
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

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".cdf": ("EmpiricalCdf", "SummaryStats", "session_grid"),
        ".results": ("ExperimentResult", "TrialResult", "VariantSeries"),
        ".harness": (
            "TrialSpec",
            "run_trial",
            "DEFAULT_TOP_FRACTION",
            "RepSeeds",
            "rep_seeds",
        ),
        # declarative pipeline
        ".plan": ("ExperimentPlan", "ScenarioSpec", "run_scenario"),
        # execution backends
        ".backends": (
            "ExecutionBackend",
            "SerialBackend",
            "ProcessPoolBackend",
            "resolve_backend",
        ),
        # campaigns & checkpoint sinks
        ".campaign": ("Campaign", "CampaignResult", "CampaignPaused", "scenario_key"),
        ".sink": ("StreamingSink", "stream_status", "CheckpointStatus"),
        ".columnar": ("export_columnar", "read_column", "read_manifest"),
        ".tables": ("format_table", "format_kv"),
        # figure drivers and the campaigns and plans built from them
        ".figures": (
            "figure_cdf_plan",
            "scaling_plans",
            "CAMPAIGNS",
            "build_campaign",
            "scaling_campaign",
            "figures_campaign",
            "robustness_campaign",
            "smoke_campaign",
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
        ),
        # scenario registry
        ".scenarios": (
            "TOPOLOGIES",
            "DEMANDS",
            "VARIANTS",
            "FAULTS",
            "build_topology",
            "build_demand",
            "build_variant",
            "build_faults",
            "build_system",
        ),
    },
)
