"""End-to-end telemetry: streaming sink vs exact lists, resume, cluster.

The issue's acceptance bar, asserted on *real* campaign runs: streaming
aggregates must match exact list-based values — exactly for counts and
means, within the sketch's certified bound for quantiles — including
across an interrupt-then-resume boundary, and ``campaign status`` must
answer from the checkpoint in O(1) memory without materializing trials.
"""

from __future__ import annotations

import json
import math
import tracemalloc

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.campaign import Campaign, CampaignPaused, scenario_key
from repro.experiments.plan import ExperimentPlan
from repro.experiments.results import TrialResult
from repro.experiments.sink import (
    SIDECAR_SCHEMA,
    StreamingSink,
    _scenario_parts,
    _sidecar,
    stream_status,
)
from repro.experiments.scenarios import VARIANTS
from repro.runtime.cluster import ReplicaCluster
from repro.telemetry import MetricRegistry, SnapshotEmitter, read_snapshots
from repro.experiments.columnar import (
    COLUMN_DTYPES,
    export_columnar,
    read_column,
    read_manifest,
)


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


def exact_groups(sink):
    """(plan, series) -> list of the sink's loaded trials."""
    groups = {}
    for key in sink.keys():
        groups.setdefault(_scenario_parts(key), []).append(sink.get(key))
    return groups


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


#: The streaming peak may grow by at most this factor from 10^3 to 10^4
#: trials; below FLAT_FLOOR_KB the ratio measures allocator noise.
FLAT_FACTOR = 3.0
FLAT_FLOOR_KB = 256.0
#: At 10^4 trials the list baseline holds at least this many times the
#: streaming peak: the O(n) against O(1) separation itself.
SEPARATION_FACTOR = 5.0


def write_synthetic_checkpoint(path, trials) -> None:
    """A checkpoint shaped like a real campaign's, ``trials`` rows."""
    state = 0x9E3779B9
    with path.open("w", encoding="utf-8") as fh:
        header = {"kind": "header", "campaign": "synthetic", "plans": {"bench": trials}}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i in range(trials):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            spread = (state >> 11) % 10_000 / 1_000.0
            trial = {
                "rep": i, "origin": i % 97, "time_all": 4.0 + spread,
                "time_top": 1.0 + spread / 4.0, "time_top1": 0.5 + spread / 8.0,
                "mean_time": 2.0 + spread / 2.0, "diameter": 11,
                "messages": 1000 + i % 311, "bytes_sent": 50_000 + i % 7001,
                "n_nodes": 100, "time_post_heal": None, "time_top_shocked": None,
                "satisfied_area": None, "replicas_spawned": 0,
                "replicas_retired": 0, "replicas_peak": 0, "placement_bytes": 0,
            }
            variant = ("fast", "weak")[i % 2]
            record = {
                "kind": "trial",
                "key": f"bench::rep={i}/faults=none/variant={variant}",
                "trial": trial,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def traced_peak_kb(call):
    """``call()``'s result and the peak KiB it allocated meanwhile."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 1024.0


# ---------------------------------------------------------------------------
# Streaming aggregates vs exact list-based values
# ---------------------------------------------------------------------------


class TestStreamingMatchesExact:
    def test_counts_and_means_exact_quantiles_within_bound(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
            registry = sink.registry
            groups = exact_groups(sink)
        assert groups
        for (plan, series), trials in groups.items():
            labels = {"plan": plan, "series": series}
            assert registry.counter("campaign.trials", **labels).value == len(
                trials
            )
            converged = [t for t in trials if t.time_all is not None]
            if converged:
                assert (
                    registry.counter("campaign.converged", **labels).value
                    == len(converged)
                )
            values = [float(t.time_all) for t in converged]
            if not values:
                continue
            moments = registry.moments("trial.time_all", **labels)
            # Counts and means are exact, not approximate.
            assert moments.count == len(values)
            assert moments.mean == pytest.approx(
                sum(values) / len(values), abs=1e-12
            )
            assert moments.minimum == min(values)
            assert moments.maximum == max(values)
            sketch = registry.sketch("trial.time_all.sketch", **labels)
            assert sketch.count == len(values)
            for p in (0.5, 0.95, 0.99):
                got = sketch.quantile(p)
                target = p * len(values)
                below = sum(1 for v in values if v < got)
                at_or_below = sum(1 for v in values if v <= got)
                err = sketch.rank_error
                assert below - err <= target <= at_or_below + err
        # `campaign status` reads the same registry back from the sidecar.
        status = stream_status(path)
        assert not status.partial
        assert status.telemetry.to_json() == registry.to_json()

    def test_sidecar_written_and_restores_identical(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
            expected = sink.registry.to_json()
        sidecar = _sidecar(path)
        assert sidecar.exists()
        payload = json.loads(sidecar.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro-telemetry-sidecar/1"
        assert payload["source"] == path.name
        restored = MetricRegistry.restore(payload["telemetry"])
        assert restored.to_json() == expected

    def test_reopen_does_not_double_count(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        campaign = two_plan_campaign()
        with StreamingSink(path) as sink:
            campaign.run(sink=sink)
            trials = len(sink)
        with StreamingSink(path) as sink:
            total = sum(
                metric.value
                for name, _, metric in sink.registry.series()
                if name == "campaign.trials"
            )
            assert total == trials


# ---------------------------------------------------------------------------
# Interrupt-then-resume
# ---------------------------------------------------------------------------


class TestInterruptResume:
    def test_resumed_registry_bit_identical_to_uninterrupted(self, tmp_path):
        campaign = two_plan_campaign()

        straight_path = tmp_path / "straight.jsonl"
        with StreamingSink(straight_path) as sink:
            straight = campaign.run(sink=sink)
            straight_json = sink.registry.to_json()

        resumed_path = tmp_path / "resumed.jsonl"
        with StreamingSink(resumed_path) as sink:
            with pytest.raises(CampaignPaused) as excinfo:
                campaign.run(sink=sink, limit=3)
        assert excinfo.value.done == 3
        with StreamingSink(resumed_path) as sink:
            resumed = campaign.run(sink=sink)
            resumed_json = sink.registry.to_json()

        # Trial-level results and streamed aggregates both bit-identical.
        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            straight.to_dict(), sort_keys=True
        )
        assert resumed_json == straight_json

    def test_resume_folds_only_past_watermark(self, tmp_path):
        campaign = two_plan_campaign()
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            with pytest.raises(CampaignPaused):
                campaign.run(sink=sink, limit=3)
        # The sidecar covers all three; reopening must fold nothing new.
        status = stream_status(path)
        assert status.folded == 3 and status.trials == 3
        with StreamingSink(path) as sink:
            total = sum(
                metric.value
                for name, _, metric in sink.registry.series()
                if name == "campaign.trials"
            )
            assert total == 3

    def test_stale_sidecar_triggers_full_refold(self, tmp_path):
        campaign = two_plan_campaign()
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            campaign.run(sink=sink)
        # Truncate the log below the sidecar watermark: the registry in
        # the sidecar now claims trials the log no longer holds.
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:4]), encoding="utf-8")  # header + 3
        with StreamingSink(path) as sink:
            total = sum(
                metric.value
                for name, _, metric in sink.registry.series()
                if name == "campaign.trials"
            )
            assert total == 3


    def test_resume_over_incomplete_record_is_bit_identical(self, tmp_path):
        # A JSON-valid trial record without its payload is torn, as a
        # truncated line is: the resume re-runs that scenario.
        campaign = two_plan_campaign()
        straight_path = tmp_path / "straight.jsonl"
        with StreamingSink(straight_path) as sink:
            straight = campaign.run(sink=sink)
            straight_json = sink.registry.to_json()

        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            with pytest.raises(CampaignPaused):
                campaign.run(sink=sink, limit=3)
        fourth = scenario_key("a", campaign.plans["a"].scenarios()[3])
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "trial", "key": fourth}) + "\n")
        assert stream_status(path).torn_lines == 1
        with StreamingSink(path) as sink:
            assert len(sink) == 3 and fourth not in sink
            resumed = campaign.run(sink=sink)
            resumed_json = sink.registry.to_json()

        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            straight.to_dict(), sort_keys=True
        )
        assert resumed_json == straight_json

    def test_payload_the_result_type_rejects_raises(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        record = {"kind": "trial", "key": "a::rep=0", "trial": {"rep": 0}}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ExperimentError, match="malformed trial record"):
            StreamingSink(path)

    def test_sidecar_written_every_256_records_and_on_close(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        sidecar = _sidecar(path)
        trial = TrialResult(
            rep=0, origin=0, time_all=1.0, time_top=1.0, time_top1=1.0,
            mean_time=1.0, diameter=1, messages=1, bytes_sent=1,
        )
        with StreamingSink(path) as sink:
            for rep in range(255):
                sink.record(f"p::rep={rep}/variant=fast", trial)
            assert not sidecar.exists()
            sink.record("p::rep=255/variant=fast", trial)
            assert json.loads(sidecar.read_text())["folded"] == 256
            sink.record("p::rep=256/variant=fast", trial)
            assert json.loads(sidecar.read_text())["folded"] == 256
        assert json.loads(sidecar.read_text())["folded"] == 257
        # A reopen that folds nothing new leaves the sidecar alone.
        mtime = sidecar.stat().st_mtime_ns
        StreamingSink(path).close()
        assert sidecar.stat().st_mtime_ns == mtime


# ---------------------------------------------------------------------------
# O(1) status and torn-line tolerance
# ---------------------------------------------------------------------------


class TestStreamStatus:
    def test_status_without_materializing(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
            trials = len(sink)
        status = stream_status(path)
        assert status.trials == trials
        assert status.torn_lines == 0 and not status.partial
        assert status.folded == trials
        assert status.telemetry is not None
        assert status.counts["a"] + status.counts["b"] == trials

    def test_torn_final_line_counts_partial(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
            trials = len(sink)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "a::rep=9/fau')  # writer died mid-record
        status = stream_status(path)
        assert status.trials == trials
        assert status.torn_lines == 1 and status.partial

    def test_structurally_incomplete_row_is_torn_not_fatal(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
            trials = len(sink)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "trial", "key": "a::rep=9"}) + "\n")
        status = stream_status(path)
        assert status.trials == trials
        assert status.torn_lines == 1 and status.partial

    def test_foreign_sidecar_shows_no_aggregates(self, tmp_path):
        # Resume refuses a sidecar of another schema; status must not
        # show its aggregates either.
        path = tmp_path / "cp.jsonl"
        header = {"kind": "header", "campaign": "x", "plans": {}}
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        foreign = {
            "schema": "someone-elses/3",
            "folded": 5,
            "telemetry": MetricRegistry().snapshot(),
        }
        _sidecar(path).write_text(json.dumps(foreign), encoding="utf-8")
        status = stream_status(path)
        assert status.trials == 0
        assert status.telemetry is None and status.folded == 0
        with pytest.raises(ExperimentError, match="not a telemetry sidecar"):
            StreamingSink(path)

    def test_sidecar_past_the_log_shows_no_aggregates(self, tmp_path):
        # A watermark past the log's trial count is where the sink
        # refolds: the sidecar's aggregates describe trials the log no
        # longer holds.
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:4]), encoding="utf-8")  # header + 3
        status = stream_status(path)
        assert status.trials == 3
        assert status.telemetry is None and status.folded == 0

    def test_sidecar_behind_the_log_shows_aggregates(self, tmp_path):
        # A watermark below the log's trial count is a sidecar that lags
        # a live writer: a resume trusts it, so status shows it.
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
            expected = sink.registry.to_json()
        doc = json.loads(_sidecar(path).read_text(encoding="utf-8"))
        doc["folded"] = 1
        _sidecar(path).write_text(json.dumps(doc), encoding="utf-8")
        status = stream_status(path)
        assert status.folded == 1 < status.trials
        assert status.telemetry.to_json() == expected

    def test_readers_agree_on_a_damaged_checkpoint(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
            trials = len(sink)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n")  # blank: neither a trial nor torn
            fh.write(json.dumps({"kind": "trial", "key": "a::rep=9"}) + "\n")
            fh.write(json.dumps({"kind": "trial", "key": 7, "trial": {}}) + "\n")
            fh.write('{"kind": "trial", "key": "a::rep=9/fau')  # torn final line
        status = stream_status(path)
        manifest = export_columnar(path, tmp_path / "cols")
        assert len(StreamingSink(path)) == status.trials == manifest["rows"] == trials
        assert status.torn_lines == 3

    def test_status_memory_flat_in_trial_count(self, tmp_path):
        # 10x more trials: the streaming pass's traced peak stays flat,
        # while the list baseline (opening the sink, which loads every
        # trial) grows.
        peaks = {}
        for trials in (1_000, 10_000):
            path = tmp_path / f"cp_{trials}.jsonl"
            write_synthetic_checkpoint(path, trials)
            status, stream_kb = traced_peak_kb(lambda: stream_status(path))
            sink, list_kb = traced_peak_kb(lambda: StreamingSink(path))
            assert status.trials == status.counts["bench"] == len(sink) == trials
            assert status.torn_lines == 0
            peaks[trials] = stream_kb, list_kb
        small_stream, _ = peaks[1_000]
        large_stream, large_list = peaks[10_000]
        assert large_stream <= FLAT_FACTOR * max(small_stream, FLAT_FLOOR_KB), peaks
        assert large_list >= SEPARATION_FACTOR * large_stream, peaks


# ---------------------------------------------------------------------------
# Columnar export
# ---------------------------------------------------------------------------


class TestColumnarExport:
    def test_export_and_read_back_matches_trials(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
            trials = [(key, sink.get(key)) for key in sink.keys()]
        out = tmp_path / "cols"
        manifest = export_columnar(path, out)
        assert manifest["schema"] == "repro-columnar/1"
        assert manifest["rows"] == len(trials)
        loaded = read_manifest(out)
        assert loaded == manifest
        keys = (out / "keys.txt").read_text(encoding="utf-8").splitlines()
        assert keys == [key for key, _ in trials]
        reps = read_column(out, "rep")
        assert reps == [trial.rep for _, trial in trials]
        time_all = read_column(out, "time_all")
        for got, (_, trial) in zip(time_all, trials):
            if trial.time_all is None:
                assert math.isnan(got)
            else:
                assert got == pytest.approx(float(trial.time_all))

    def test_column_dtypes_fixed_by_field_name(self):
        # Every TrialResult field's dtype as first exported; a new
        # field with a default must not flip any of them.
        ints = ("rep", "origin", "diameter", "messages", "bytes_sent")
        floats = (
            "time_all", "time_top", "time_top1", "mean_time", "n_nodes",
            "time_post_heal", "time_top_shocked", "satisfied_area",
            "replicas_spawned", "replicas_retired", "replicas_peak",
            "placement_bytes",
        )
        for name in ints:
            assert COLUMN_DTYPES[name] == "<q", name
        for name in floats:
            assert COLUMN_DTYPES[name] == "<d", name
        assert "extra" not in COLUMN_DTYPES

    def test_trial_hook_checkpoint_exports(self, tmp_path):
        from repro.experiments.figures import _staleness_trial

        plan = ExperimentPlan(
            name="staleness", trial=_staleness_trial,
            variants=("oracle", "advertised/0.5"), n=12, reps=2, seed=3,
        )
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            Campaign("artefact", {"staleness": plan}).run(sink=sink)
            trials = [sink.get(key) for key in sink.keys()]
        out = tmp_path / "cols"
        manifest = export_columnar(path, out)
        assert manifest["rows"] == 4
        assert set(manifest["columns"]) == set(COLUMN_DTYPES)
        assert read_column(out, "messages") == [t.messages for t in trials]
        assert all(t.extra["advert_bytes"] >= 0 for t in trials)

    def test_slashed_variant_names_keep_their_series(self):
        key = "staleness::rep=0/faults=none/variant=advertised/0.5"
        assert _scenario_parts(key) == ("staleness", "advertised/0.5")

    def test_unknown_column_raises(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with StreamingSink(path) as sink:
            two_plan_campaign().run(sink=sink)
        out = tmp_path / "cols"
        export_columnar(path, out)
        with pytest.raises(ExperimentError):
            read_column(out, "no_such_column")


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_status_telemetry_and_export(self, tmp_path, capsys):
        checkpoint = tmp_path / "cp.jsonl"
        run_cli(
            capsys,
            "campaign",
            "run",
            "smoke",
            "--reps",
            "1",
            "--checkpoint",
            str(checkpoint),
        )
        out = run_cli(
            capsys,
            "campaign",
            "status",
            "--checkpoint",
            str(checkpoint),
            "--telemetry",
        )
        assert "p95" in out and "trials" in out
        out = run_cli(
            capsys,
            "campaign",
            "export",
            "--checkpoint",
            str(checkpoint),
            "--columnar",
            str(tmp_path / "cols"),
        )
        assert "rows" in out
        assert (tmp_path / "cols" / "manifest.json").exists()


# ---------------------------------------------------------------------------
# Live-cluster registry
# ---------------------------------------------------------------------------


class TestClusterTelemetry:
    def test_puts_feed_counters_sketch_and_emitter(self, tmp_path):
        trail = tmp_path / "trail.jsonl"
        with ReplicaCluster(
            nodes=6, config=VARIANTS["fast"](), seed=3, time_scale=0.02
        ) as cluster:
            uids = [
                cluster.put("content", f"v{i}").uid for i in range(4)
            ]
            for uid in uids:
                assert cluster.wait_replicated(uid, timeout=30.0)
            cluster.read("content")
            with SnapshotEmitter(cluster.telemetry, path=trail) as emitter:
                cluster.emit_metrics(emitter, phase="test")
            snapshot = cluster.telemetry_snapshot()
            p99 = cluster.replication_latency_quantile(0.99)
            stats = cluster.stats()
        registry = MetricRegistry.restore(snapshot)
        labels = {"transport": "queue"}
        assert registry.counter("cluster.puts", **labels).value == 4
        assert registry.counter("cluster.gets", **labels).value == 1
        assert (
            registry.counter("cluster.updates_replicated", **labels).value == 4
        )
        moments = registry.moments("cluster.replication_latency", **labels)
        assert moments.count == 4 and moments.mean > 0.0
        sketch = registry.sketch(
            "cluster.replication_latency.sketch", **labels
        )
        assert sketch.count == 4
        assert p99 is not None and p99 > 0.0
        assert stats["telemetry"]["schema"] == "repro-telemetry/1"
        records = list(read_snapshots(trail))
        assert len(records) == 1 and records[0]["phase"] == "test"

    def test_latency_quantile_none_before_any_replication(self):
        with ReplicaCluster(
            nodes=4, config=VARIANTS["fast"](), seed=3, time_scale=0.02
        ) as cluster:
            assert cluster.replication_latency_quantile(0.5) is None
