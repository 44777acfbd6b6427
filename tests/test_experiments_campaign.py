"""Tests for the campaign execution layer (persistent pools, sinks, resume)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import backends as backends_module
from repro.experiments.backends import ProcessPoolBackend, SerialBackend
from repro.experiments.campaign import (
    Campaign,
    CampaignPaused,
    CampaignResult,
    scenario_key,
)
from repro.experiments.figures import build_campaign, scaling_experiment, smoke_campaign
from repro.experiments.plan import ExperimentPlan
from repro.experiments.results import TrialResult, VariantSeries
from repro.experiments.sink import StreamingSink


def small_plan(name="t", **overrides) -> ExperimentPlan:
    defaults = dict(
        name=name,
        topology="ring",
        demand="uniform",
        variants=("weak", "fast"),
        n=8,
        reps=2,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def two_plan_campaign(**overrides) -> Campaign:
    return Campaign(
        "duo",
        {
            "a": small_plan("a", seed=5),
            "b": small_plan("b", topology="line", n=9, seed=7),
        },
        **overrides,
    )


class CountingExecutor(backends_module.ProcessPoolExecutor):
    """ProcessPoolExecutor that counts constructions (pool-spawn audit)."""

    created = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)


@pytest.fixture()
def counting_executor(monkeypatch):
    CountingExecutor.created = 0
    monkeypatch.setattr(backends_module, "ProcessPoolExecutor", CountingExecutor)
    return CountingExecutor


# ---------------------------------------------------------------------------
# Persistent pool lifecycle
# ---------------------------------------------------------------------------


class TestPersistentPool:
    def test_pool_and_worker_pids_reused_across_run_trials(self):
        plan_a, plan_b = small_plan("a"), small_plan("b", seed=9)
        with ProcessPoolBackend(max_workers=2) as backend:
            backend.run_trials(plan_a.scenarios())
            pool_first = backend._pool
            pids_first = set(pool_first._processes)
            backend.run_trials(plan_b.scenarios())
            assert backend._pool is pool_first
            assert set(backend._pool._processes) == pids_first
            assert len(pids_first) == 2
        assert backend._pool is None  # context manager closed it

    def test_close_is_idempotent_and_pool_restarts_lazily(self):
        backend = ProcessPoolBackend(max_workers=2)
        plan = small_plan()
        first = backend.run_trials(plan.scenarios())
        backend.close()
        backend.close()
        assert backend._pool is None
        second = backend.run_trials(plan.scenarios())  # fresh pool, same rows
        assert first == second
        backend.close()

    def test_serial_backend_lifecycle_is_noop(self):
        backend = SerialBackend()
        with backend as entered:
            assert entered is backend
            assert backend.run_trials(small_plan(reps=1).scenarios())
        backend.close()  # still usable afterwards
        assert backend.run_trials(small_plan(reps=1).scenarios())

    def test_two_plan_campaign_spawns_exactly_one_pool(self, counting_executor):
        campaign = two_plan_campaign()
        with ProcessPoolBackend(max_workers=2) as backend:
            outcome = campaign.run(backend)
        assert counting_executor.created == 1
        assert set(outcome.results) == {"a", "b"}
        # Sharing the pool is not a source of noise: each plan run on
        # its own gives the same series byte for byte.
        for key, plan in campaign.plans.items():
            assert (
                plan.run().to_dict()["series"]
                == outcome.results[key].to_dict()["series"]
            ), key

    def test_scaling_experiment_spawns_exactly_one_pool(self, counting_executor):
        with ProcessPoolBackend(max_workers=2) as backend:
            result = scaling_experiment(sizes=(10, 12), reps=1, seed=1, backend=backend)
        assert counting_executor.created == 1
        assert list(result.rows_by_size) == [10, 12]

    def test_cli_scaling_workers_spawns_exactly_one_pool(
        self, counting_executor, capsys
    ):
        from repro.cli import main

        code = main(
            ["scaling", "--reps", "1", "--sizes", "10", "12", "--workers", "2"]
        )
        assert code == 0
        assert counting_executor.created == 1
        assert "diameter" in capsys.readouterr().out

    def test_campaign_closes_backend_it_resolved_itself(self, counting_executor):
        # A spec (int) is resolved inside run() and must not leak a pool.
        outcome = two_plan_campaign().run(backend=2)
        assert counting_executor.created == 1
        assert outcome.notes["backend"] == "process[2]"


# ---------------------------------------------------------------------------
# Streaming execution
# ---------------------------------------------------------------------------


class TestStreaming:
    def test_serial_iter_yields_in_input_order(self):
        specs = small_plan().scenarios()
        indices = [i for i, _ in SerialBackend().run_trials_iter(specs)]
        assert indices == list(range(len(specs)))

    def test_pool_iter_covers_every_index_once_and_matches_lists(self):
        specs = small_plan(topology="ba", n=12).scenarios()
        serial = SerialBackend().run_trials(specs)
        with ProcessPoolBackend(max_workers=2, chunksize=1) as backend:
            streamed = dict(backend.run_trials_iter(specs))
        assert sorted(streamed) == list(range(len(specs)))
        assert [streamed[i] for i in range(len(specs))] == serial

    def test_run_trials_reassembles_stream_in_input_order(self):
        specs = small_plan().scenarios()
        with ProcessPoolBackend(max_workers=2, chunksize=1) as backend:
            assert backend.run_trials(specs) == SerialBackend().run_trials(specs)


# ---------------------------------------------------------------------------
# JSON-lines sink
# ---------------------------------------------------------------------------


def make_trial(rep=0, time_all=3.25) -> TrialResult:
    return TrialResult(
        rep=rep, origin=1, time_all=time_all, time_top=1.5, time_top1=1.0,
        mean_time=2.125, diameter=4, messages=120, bytes_sent=4096, n_nodes=8,
    )


class TestCheckpointLog:
    def test_record_and_reload_roundtrip_bit_identical(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        trial = make_trial(time_all=3.0000000000000004)  # repr round-trips
        with StreamingSink(path) as sink:
            sink.record("p::rep=0/faults=none/variant=weak", trial)
        reloaded = StreamingSink(path)
        assert reloaded.get("p::rep=0/faults=none/variant=weak") == trial
        assert len(reloaded) == 1

    def test_duplicate_record_keeps_file_append_only(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            sink.record("k", make_trial())
            sink.record("k", make_trial(rep=9))  # ignored: already recorded
        assert len(path.read_text().splitlines()) == 1
        assert StreamingSink(path).get("k").rep == 0

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            sink.record("a", make_trial())
            sink.record("b", make_trial(rep=1))
        first, second = path.read_text().splitlines()
        path.write_text(first + "\n" + second[:20])  # kill mid-write of 'b'
        survivor = StreamingSink(path)
        assert "a" in survivor
        assert len(survivor) == 1

    def test_header_written_once_and_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            sink.write_header({"campaign": "x", "total": 4, "plans": {"a": 4}})
            sink.write_header({"campaign": "x", "total": 4, "plans": {"a": 4}})
        assert len(path.read_text().splitlines()) == 1
        reopened = StreamingSink(path)
        with pytest.raises(ExperimentError):
            reopened.write_header({"campaign": "y", "total": 4, "plans": {"a": 4}})


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_construction_rejects_empty_and_duplicate_plans(self):
        with pytest.raises(ExperimentError):
            Campaign("empty", {})
        with pytest.raises(ExperimentError):
            Campaign("dup", [small_plan("same"), small_plan("same", seed=9)])

    def test_sequence_plans_keyed_by_name_and_int_keys_coerced(self):
        by_seq = Campaign("c", [small_plan("a"), small_plan("b")])
        assert list(by_seq.plans) == ["a", "b"]
        by_map = Campaign("c", {25: small_plan("a"), 50: small_plan("b")})
        assert list(by_map.plans) == ["25", "50"]

    def test_scenario_key_prefixes_plan(self):
        spec = small_plan().scenarios()[0]
        assert scenario_key("p1", spec) == "p1::rep=0/faults=none/variant=weak"

    def test_serial_and_pool_campaigns_bit_identical_series(self):
        campaign = smoke_campaign(reps=1, seed=3)
        serial = campaign.run()
        with ProcessPoolBackend(max_workers=2) as backend:
            pooled = campaign.run(backend)
        for key in serial.results:
            assert (
                serial.results[key].to_dict()["series"]
                == pooled.results[key].to_dict()["series"]
            )

    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path):
        # The fault-swept smoke plan exercises the independent per-rep
        # fault seed stream across the interruption boundary.
        campaign = smoke_campaign(reps=2, seed=5)
        uninterrupted = campaign.run()
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            with pytest.raises(CampaignPaused) as excinfo:
                campaign.run(sink=sink, limit=5)
        assert excinfo.value.done == 5
        assert excinfo.value.total == campaign.total_trials()
        with StreamingSink(path) as sink:
            resumed = campaign.run(sink=sink)
        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            uninterrupted.to_dict(), sort_keys=True
        )

    def test_resume_skips_recorded_scenarios(self, tmp_path, monkeypatch):
        campaign = two_plan_campaign()
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            campaign.run(sink=sink)
        executed = []
        real = backends_module.run_scenario
        monkeypatch.setattr(
            backends_module,
            "run_scenario",
            lambda spec: executed.append(spec) or real(spec),
        )
        with StreamingSink(path) as sink:
            rerun = campaign.run(sink=sink)
        assert executed == []
        assert rerun.total_trials() == campaign.total_trials()

    def test_checkpoint_from_other_campaign_rejected(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
        other = Campaign("other", {"a": small_plan("a")})
        with StreamingSink(path) as sink:
            with pytest.raises(ExperimentError):
                other.run(sink=sink)

    def test_checkpoint_with_different_seed_rejected(self, tmp_path):
        # Same campaign name and trial counts, different plan seeds: the
        # header fingerprints full plan definitions, so old-seed trials
        # can never be silently spliced into a new-seed run.
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            with pytest.raises(CampaignPaused):
                smoke_campaign(reps=1, seed=3).run(sink=sink, limit=2)
        with StreamingSink(path) as sink:
            with pytest.raises(ExperimentError, match="different campaign"):
                smoke_campaign(reps=1, seed=4).run(sink=sink)

    def test_limit_validation(self):
        with pytest.raises(ExperimentError):
            two_plan_campaign().run(limit=0)

    def test_limit_without_sink_rejected(self, tmp_path):
        # Executing trials just to throw them away is never what the
        # caller meant; the guard lives in Campaign.run, not only the CLI.
        with pytest.raises(ExperimentError, match="limit without a sink"):
            two_plan_campaign().run(limit=3)
        with StreamingSink(tmp_path / "cp.jsonl") as sink:
            with pytest.raises(CampaignPaused):
                two_plan_campaign().run(sink=sink, limit=3)

    def test_from_product_builds_cartesian_plans(self):
        base = small_plan("base")
        campaign = Campaign.from_product(
            "prod", base, n=(8, 12), faults=(("none",), ("none", "split_brain")),
        )
        assert len(campaign.plans) == 4
        key = "n=8/faults=none+split_brain"
        assert key in campaign.plans
        assert campaign.plans[key].n == 8
        assert campaign.plans[key].faults == ("none", "split_brain")
        with pytest.raises(ExperimentError):
            Campaign.from_product("prod", base)
        with pytest.raises(ExperimentError):
            Campaign.from_product("prod", base, warp=(1, 2))

    def test_robustness_campaign_runs_at_one_rep(self):
        campaign = build_campaign("robustness", reps=1)
        outcome = campaign.run()
        faults = ("none", "none+split_brain", "none+poisson_churn")
        assert list(outcome.results) == [
            f"n={n}/faults={regime}" for n in (16, 32) for regime in faults
        ]
        assert outcome.total_trials() == campaign.total_trials() == 20
        for key, result in outcome.results.items():
            n = int(key.split("/")[0][2:])
            for label, series in result.series.items():
                [trial] = series.trials
                assert trial.n_nodes == n and trial.time_all is not None, (key, label)
                # Only a healed partition times a post-heal convergence.
                assert (trial.time_post_heal is not None) == label.endswith(
                    "@split_brain"
                ), (key, label)
            # Every plan at one size pairs its fault-free trials on the
            # same seeds.
            baseline = outcome.results[f"n={n}/faults=none"]
            for variant in ("weak", "fast"):
                assert (
                    result.series[variant].trials[0].time_all
                    == baseline.series[variant].trials[0].time_all
                )

    def test_campaign_result_save_load_roundtrip(self, tmp_path):
        outcome = two_plan_campaign().run()
        path = tmp_path / "campaign.json"
        outcome.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.to_dict() == outcome.to_dict()
        assert loaded.total_trials() == outcome.total_trials()


# ---------------------------------------------------------------------------
# Converged fraction (censored means must be visible)
# ---------------------------------------------------------------------------


class TestConvergedFraction:
    def test_fraction_counts_unconverged_trials(self):
        series = VariantSeries(variant="v")
        series.add(make_trial(rep=0, time_all=3.0))
        series.add(make_trial(rep=1, time_all=None))
        series.add(make_trial(rep=2, time_all=5.0))
        assert series.converged_fraction() == pytest.approx(2 / 3)

    def test_fraction_is_one_when_everything_converged(self):
        series = VariantSeries(variant="v")
        series.add(make_trial())
        assert series.converged_fraction() == 1.0

    def test_empty_series_raises(self):
        with pytest.raises(ExperimentError):
            VariantSeries(variant="v").converged_fraction()
