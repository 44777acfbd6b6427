"""Tests for the declarative experiment pipeline (plan + backends)."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ExperimentError, ExperimentSizeWarning
from repro.experiments.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.experiments.harness import rep_seeds
from repro.experiments.plan import ExperimentPlan, ScenarioSpec, run_scenario
from repro.experiments.scenarios import DEMANDS, TOPOLOGIES, VARIANTS


def small_plan(**overrides) -> ExperimentPlan:
    defaults = dict(
        name="t",
        topology="ring",
        demand="uniform",
        variants=("weak", "fast"),
        n=10,
        reps=3,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestPlanExpansion:
    def test_expansion_counts(self):
        plan = small_plan(reps=4, variants=("weak", "ordered", "fast"))
        specs = plan.scenarios()
        assert len(specs) == plan.total_trials() == 12
        assert [s.rep for s in specs] == [r for r in range(4) for _ in range(3)]
        assert [s.variant for s in specs[:3]] == ["weak", "ordered", "fast"]

    def test_variants_paired_within_rep(self):
        specs = small_plan().scenarios()
        by_rep = {}
        for spec in specs:
            by_rep.setdefault(spec.rep, []).append(spec)
        for rep, group in by_rep.items():
            seeds = rep_seeds(5, rep)
            for spec in group:
                assert spec.topo_seed == seeds.topology
                assert spec.demand_seed == seeds.demand
                assert spec.sim_seed == seeds.simulator
                assert spec.origin_seed == seeds.origin

    def test_knobs_propagate_to_specs(self):
        plan = small_plan(max_time=33.0, top_fraction=0.2, loss=0.01)
        for spec in plan.scenarios():
            assert spec.max_time == 33.0
            assert spec.top_fraction == 0.2
            assert spec.loss == 0.01

    def test_validation_rejects_bad_plans(self):
        with pytest.raises(ExperimentError):
            small_plan(reps=0).scenarios()
        with pytest.raises(ExperimentError):
            small_plan(variants=()).scenarios()
        with pytest.raises(ExperimentError):
            small_plan(variants=("weak", "weak")).scenarios()
        with pytest.raises(ExperimentError):
            small_plan(topology="moebius").scenarios()
        with pytest.raises(ExperimentError):
            small_plan(demand="psychic").scenarios()
        with pytest.raises(ExperimentError):
            small_plan(variants=("quantum",)).scenarios()

    def test_scenario_spec_is_picklable(self):
        spec = small_plan().scenarios()[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert run_scenario(clone).time_all == run_scenario(spec).time_all


class TestBackendDeterminism:
    def test_process_pool_bit_identical_to_serial(self):
        plan = small_plan(topology="ba", n=12, reps=2)
        serial = plan.run(SerialBackend())
        with ProcessPoolBackend(max_workers=2, chunksize=1) as backend:
            parallel = plan.run(backend)
        assert serial.to_dict()["series"] == parallel.to_dict()["series"]
        assert serial.notes["backend"] == "serial"
        assert parallel.notes["backend"] == "process[2]"

    def test_plan_reproducible(self):
        plan = small_plan(reps=2, params={"note": "x"})
        result = plan.run()
        assert result.to_dict() == plan.run().to_dict()
        assert result.params["reps"] == 2
        assert result.params["note"] == "x"


class TestRegistryCompleteness:
    """Every registry key must build and run through a ScenarioSpec."""

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_every_topology_runs(self, topology):
        plan = ExperimentPlan(
            name="t", topology=topology, demand="uniform",
            variants=("fast",), n=9, reps=1, seed=3, max_time=120.0,
        )
        result = plan.run()
        trial = result.series["fast"].trials[0]
        assert trial.n_nodes >= 4
        assert trial.messages > 0

    @pytest.mark.parametrize("demand", sorted(DEMANDS))
    def test_every_demand_runs(self, demand):
        # grid carries node positions, which "two-valleys" requires.
        plan = ExperimentPlan(
            name="t", topology="grid", demand=demand,
            variants=("fast",), n=9, reps=1, seed=3, max_time=120.0,
        )
        trial = plan.run().series["fast"].trials[0]
        assert trial.time_top1 is not None

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_variant_runs(self, variant):
        plan = ExperimentPlan(
            name="t", topology="ring", demand="uniform",
            variants=(variant,), n=8, reps=1, seed=3, max_time=120.0,
        )
        trial = plan.run().series[variant].trials[0]
        assert trial.time_all is not None


class TestEffectiveSize:
    def test_non_square_grid_warns_and_records_effective_n(self):
        plan = ExperimentPlan(
            name="t", topology="grid", demand="uniform",
            variants=("weak",), n=10, reps=1, seed=1, max_time=120.0,
        )
        with pytest.warns(ExperimentSizeWarning):
            result = plan.run()
        assert result.params["effective_n"] == 9
        assert result.series["weak"].trials[0].n_nodes == 9

    def test_square_grid_does_not_warn(self):
        import warnings

        plan = ExperimentPlan(
            name="t", topology="grid", demand="uniform",
            variants=("weak",), n=9, reps=1, seed=1, max_time=120.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExperimentSizeWarning)
            result = plan.run()
        assert "effective_n" not in result.params
        assert result.series["weak"].trials[0].n_nodes == 9


class TestResolveBackend:
    def test_none_and_small_counts_are_serial(self):
        for spec in (None, 0, 1, "serial"):
            assert isinstance(resolve_backend(spec), SerialBackend)

    def test_counts_above_one_use_process_pool(self):
        backend = resolve_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 3
        assert resolve_backend("process:4").max_workers == 4

    def test_backend_instances_pass_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_backends_satisfy_protocol(self):
        assert isinstance(SerialBackend(), ExecutionBackend)
        assert isinstance(ProcessPoolBackend(max_workers=2), ExecutionBackend)

    def test_object_missing_part_of_the_protocol_rejected(self):
        class RunTrialsOnly:
            name = "partial"

            def run_trials(self, scenarios):
                return SerialBackend().run_trials(scenarios)

        with pytest.raises(ExperimentError):
            resolve_backend(RunTrialsOnly())

    def test_malformed_specs_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_backend("warp-drive")
        with pytest.raises(ExperimentError):
            resolve_backend("process:many")
        with pytest.raises(ExperimentError):
            resolve_backend(-4)
        with pytest.raises(ExperimentError):
            ProcessPoolBackend(max_workers=0)

    def test_process_zero_string_rejected_like_the_cli(self):
        # `resolve_backend(0)` staying serial is a documented API
        # convenience, but the *string* form spells out a pool request:
        # 'process:0' must fail exactly like `--workers 0` does.
        with pytest.raises(ExperimentError):
            resolve_backend("process:0")
        with pytest.raises(ExperimentError):
            resolve_backend("process:-3")
        assert isinstance(resolve_backend(0), SerialBackend)


class TestChunkLayout:
    """Regression: the splitting policy must never starve the pool."""

    def test_layout_covers_total_exactly(self):
        backend = ProcessPoolBackend(max_workers=2)
        for total in (0, 1, 2, 3, 7, 8, 9, 17, 64):
            layout = backend.chunk_layout(total)
            assert sum(layout) == total

    def test_small_grids_split_one_scenario_per_task(self):
        backend = ProcessPoolBackend(max_workers=4)
        assert backend.chunk_layout(3) == [1, 1, 1]
        assert backend.chunk_layout(4) == [1, 1, 1, 1]
        assert backend.chunk_layout(5) == [1, 1, 1, 1, 1]

    def test_grid_never_collapses_into_fewer_chunks_than_workers(self):
        for workers in (2, 3, 4, 8):
            backend = ProcessPoolBackend(max_workers=workers)
            for total in range(1, 4 * workers + 2):
                layout = backend.chunk_layout(total)
                assert len(layout) >= min(total, workers), (
                    f"workers={workers} total={total} layout={layout}"
                )

    def test_explicit_chunksize_capped_to_keep_every_worker_busy(self):
        # chunksize=100 with 12 scenarios used to ship one oversized
        # chunk that serialised the whole grid on a single worker.
        backend = ProcessPoolBackend(max_workers=4, chunksize=100)
        layout = backend.chunk_layout(12)
        assert max(layout) == 3  # ceil(12 / 4)
        assert len(layout) == 4

    def test_modest_explicit_chunksize_is_honoured(self):
        backend = ProcessPoolBackend(max_workers=2, chunksize=3)
        assert backend.chunk_layout(12) == [3, 3, 3, 3]

    def test_invariant_holds_for_explicit_chunksizes_too(self):
        # chunksize=2 with 5 scenarios on 4 workers used to yield
        # [2, 2, 1] — three chunks, one idle worker.
        assert ProcessPoolBackend(max_workers=4, chunksize=2).chunk_layout(5) == [
            1, 1, 1, 1, 1,
        ]
        for workers in (2, 3, 4):
            for chunksize in (1, 2, 3, 5, 100):
                backend = ProcessPoolBackend(max_workers=workers, chunksize=chunksize)
                for total in range(1, 4 * workers + 2):
                    layout = backend.chunk_layout(total)
                    assert sum(layout) == total
                    assert len(layout) >= min(total, workers), (
                        f"workers={workers} chunksize={chunksize} "
                        f"total={total} layout={layout}"
                    )

    def test_default_batches_about_four_chunks_per_worker(self):
        backend = ProcessPoolBackend(max_workers=2)
        assert backend.chunk_layout(64) == [8] * 8


class TestFigureCdfFrontEnd:
    def test_unregistered_m_rejected(self):
        from repro.experiments.figures import figure_cdf

        with pytest.raises(ExperimentError):
            figure_cdf(n=10, reps=1, seed=2, m=4)

    def test_plan_constructor_rejects_unregistered_m(self):
        from repro.experiments.figures import figure_cdf_plan

        with pytest.raises(ExperimentError):
            figure_cdf_plan(10, m=4)


#: The eight trial-hook artefacts at their tier-1 sizes
#: (tests/test_experiments_figures.py), keyed by CLI command name.
ARTEFACTS = {
    "fig3": ("figure3", dict(reps=20, seed=3)),
    "table2": ("table2_dynamic", dict(reps=30, seed=4)),
    "islands": ("islands_experiment", dict(reps=4, seed=7)),
    "overhead": ("overhead_experiment", dict(reps=4, seed=8, n=30, horizon=8.0)),
    "strongcost": ("strong_cost_experiment", dict(sizes=(10, 25, 50), reps=3, seed=10)),
    "staleness": ("staleness_experiment", dict(reps=8, seed=3, n=30)),
    "partition": ("partition_experiment", dict(reps=4, seed=5, n=20, heal_time=4.0)),
    "skew": ("skew_experiment", dict(reps=4, seed=6, n=24)),
}


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolBackend(max_workers=2) as backend:
        yield backend


def partition_plan(**overrides) -> ExperimentPlan:
    from repro.experiments.figures import _partition_trial

    defaults = dict(
        name="partition", trial=_partition_trial,
        variants=("weak", "fast", "strong"), n=20, reps=3, seed=5,
        max_time=120.0, params={"heal_time": 4.0},
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestTrialHookPlans:
    @pytest.mark.parametrize("artefact", sorted(ARTEFACTS))
    def test_process_pool_bit_identical_to_serial(self, artefact, pool):
        from repro.experiments import figures

        driver, kwargs = ARTEFACTS[artefact]
        run = getattr(figures, driver)
        assert run(**kwargs, backend=SerialBackend()) == run(**kwargs, backend=pool)

    def test_hook_variants_skip_the_registry(self):
        specs = partition_plan(reps=1).scenarios()
        assert [s.variant for s in specs] == ["weak", "fast", "strong"]
        assert {(s.seed, s.params["heal_time"]) for s in specs} == {(5, 4.0)}
        with pytest.raises(ExperimentError, match="unknown variant"):
            partition_plan(trial=None).validate()

    @pytest.mark.parametrize("axis", [
        {"faults": ("none", "split_brain")}, {"placements": ("static",)},
    ])
    def test_hook_takes_no_fault_or_placement_regimes(self, axis):
        with pytest.raises(ExperimentError, match="trial hook"):
            partition_plan(**axis).validate()

    def test_spec_with_hook_pickles_by_reference(self):
        spec = partition_plan(reps=1).scenarios()[2]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and hash(clone) == hash(spec)
        assert run_scenario(clone) == run_scenario(spec)
        assert run_scenario(spec).extra == {"committed": 0.0}

    def test_checkpoint_header_names_the_hook(self):
        from repro.experiments.campaign import Campaign

        header = Campaign("c", {"partition": partition_plan()}).header()
        assert header["plans"]["partition"]["plan"]["trial"] == (
            "repro.experiments.figures._partition_trial"
        )

    def test_campaign_resume_assembles_the_uninterrupted_result(self, tmp_path):
        from repro.experiments.campaign import Campaign, CampaignPaused
        from repro.experiments.sink import StreamingSink

        campaign = Campaign("artefact", {"partition": partition_plan()})
        whole = campaign.run().results["partition"]
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            with pytest.raises(CampaignPaused):
                campaign.run(sink=sink, limit=4)
        with StreamingSink(path) as sink:
            resumed = campaign.run(sink=sink).results["partition"]
            trials = {
                series: sink.registry.get(
                    "campaign.trials", plan="partition", series=series
                ).value
                for series in ("weak", "fast", "strong")
            }
        assert resumed.to_dict() == whole.to_dict()
        assert resumed.series["strong"].extra_means() == {"committed": 0.0}
        assert trials == {"weak": 3, "fast": 3, "strong": 3}
