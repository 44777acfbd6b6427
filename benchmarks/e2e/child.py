"""What runs inside one workload subprocess.

``run.py`` starts a fresh interpreter per measurement so that peak RSS,
GC state and any span patches belong to that measurement alone.  The
subprocess runs one workload once (or only its set-up), checks the
outputs and prints one JSON object on its last line of stdout.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from typing import Dict, List, Optional

import checks
import workloads
from percentile import quantile
from workloads import NOMINAL_SECONDS

#: ``(span name, field)`` pairs reported as ``<span name>.<field>``.
SPAN_FIELDS = (
    ("sim.network.send", "calls"),
    ("sim.network.send", "self_s"),
    ("core.protocol.on_message", "calls"),
    ("core.protocol.on_message", "self_s"),
    ("core.antientropy.on_message", "self_s"),
    ("core.antientropy.initiate", "self_s"),
    ("core.fastupdate.on_message", "self_s"),
    ("core.fastupdate.on_new_updates", "self_s"),
    ("replica.server.integrate", "calls"),
    ("replica.server.integrate", "self_s"),
    ("replica.log.add", "calls"),
    ("replica.log.add", "self_s"),
    ("replica.log.updates_since", "calls"),
    ("replica.log.updates_since", "self_s"),
    ("replica.store.apply", "self_s"),
    ("replica.server.local_write", "self_s"),
    ("replica.workload.arrival", "self_s"),
    ("runtime.live.send", "calls"),
    ("runtime.live.send", "self_s"),
    ("telemetry.sketch.add", "self_s"),
)


MIN_SETUPS = 2
MAX_SETUPS = 30
SETUP_BUDGET_S = 3.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _offer_accept_ratio(traffic: Dict[str, object]) -> float:
    """Fast-update payloads sent per offer made."""
    by_kind = traffic.get("by_kind", {})
    return _ratio(by_kind.get("fast-payload", 0), by_kind.get("fast-offer", 0))


def _span_metrics(recorder, ops: Optional[List[object]]) -> Dict[str, float]:
    """Per-layer numbers that only a traced run can give."""
    aggregate = recorder.aggregate()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "result_count": 0}
    out: Dict[str, float] = {
        f"{span}.{field}": aggregate.get(span, zero)[field]
        for span, field in SPAN_FIELDS
    }
    all_self = sum(row["self_s"] for row in aggregate.values())
    engine = aggregate.get("sim.engine", zero)
    out["sim.engine.self_s"] = engine["self_s"]
    out["sim.engine.self_share"] = _ratio(engine["self_s"], engine["total_s"])
    out["replica.self_share"] = _ratio(
        sum(r["self_s"] for n, r in aggregate.items() if n.startswith("replica.")),
        all_self,
    )
    local_write = aggregate.get("replica.server.local_write", zero)
    out["replica.server.local_write.self_us"] = _ratio(
        local_write["self_s"] * 1e6, local_write["calls"]
    )
    log_add = aggregate.get("replica.log.add", zero)
    out["replica.log.add_useful_ratio"] = _ratio(
        log_add["result_count"], log_add["calls"]
    )
    out["runtime.tcp.hub_frames"] = (
        aggregate.get("runtime.tcp.hub_encode", zero)["calls"]
        + aggregate.get("runtime.tcp.hub_decode", zero)["result_count"]
    )
    if ops is not None:
        put_ns = recorder.durations_by_op("runtime.cluster.put")
        write_ns = recorder.durations_by_op("replica.server.local_write")
        waits = [
            (put_ns[op] - write_ns[op]) / 1e6 for op in put_ns if op in write_ns
        ]
        out["runtime.cluster.call_wait_ms_p50"] = quantile(waits, 0.5)
    out["tracing.spans"] = recorder.span_count()
    out["tracing.targets_missing"] = len(recorder.missing)
    return out


def _load_runner(name: str):
    """``(module, seconds)``: the workload's runner, and how long the
    import took — it pulls in the program, which is part of set-up."""
    started = time.perf_counter()
    module = importlib.import_module(
        "simrun" if name.startswith("sim-") else "liverun"
    )
    return module, time.perf_counter() - started


def _sim(simrun, import_s: float, name: str, seed: int, scale: float,
         recorder) -> Dict[str, object]:
    spec = workloads.sim_spec(name, scale)
    raw = simrun.run(
        spec, workloads.derive_seeds(name, seed),
        repeats=1 if recorder is not None else spec.repeats,
    )
    attempted, failed, problems = checks.check_sim(spec, seed, raw)
    # Simulated time from a write's issue, at the live clusters' 20 ms
    # per protocol unit: what the protocol alone would take.
    to_ms = workloads.TIME_SCALE * 1e3
    settled = [
        w for w in checks.settled_writes(spec, raw) if w["converged_at"] is not None
    ]
    hot_ms = [(w["hot_at"] - w["issued"]) * to_ms for w in settled]
    replicated_ms = [(w["covered_at"] - w["issued"]) * to_ms for w in settled]
    metrics: Dict[str, float] = {
        "setup_s": import_s + raw["setup_s"],
        "cpu_ms_per_op": raw["cpu_s"] * 1e3 / raw["events"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "put_hot_p50_ms": quantile(hot_ms, 0.5),
        "put_replicated_p50_ms": quantile(replicated_ms, 0.5),
        "sim.engine.events": raw["events"],
        "sim.engine.events_per_s": raw["events"] / raw["wall_s"],
        "sim.network.messages_sent": raw["traffic"]["messages_sent"],
        "sim.network.bytes_sent": raw["traffic"]["bytes_sent"],
        "core.fastupdate.offer_accept_ratio": _offer_accept_ratio(raw["traffic"]),
        "core.antientropy.sessions": raw["sessions"]["completed_initiator"],
        "loadgen.samples": len(settled),
        "loadgen.put_replicated_p95_ms": quantile(replicated_ms, 0.95),
        "program.import_s": import_s,
    }
    metrics.update(raw["layers"])
    if recorder is not None:
        metrics.update(_span_metrics(recorder, None))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "cost": raw["wall_s"],
        "detail": {
            "horizon": raw["horizon"],
            "wall_s": raw["wall_s"],
            "writes": len(raw["writes"]),
            "reads": raw["reads"],
            "fingerprint": raw["fingerprint"],
        },
    }


def _live(liverun, import_s: float, name: str, seed: int, scale: float,
          recorder) -> Dict[str, object]:
    spec = workloads.live_spec(name, scale)
    raw = liverun.run(spec, workloads.derive_seeds(name, seed))
    attempted, failed, problems = checks.check_live(raw)
    phases = raw["phases"]
    ref, lo, flood = phases["ref"], phases["lo"], phases["flood"]
    stats = raw["stats"]
    traffic = stats["traffic"]
    puts = stats["puts"]
    interval_ms = 1e3 / spec.phases[2].rate
    metrics: Dict[str, float] = {
        "setup_s": import_s + raw["setup_s"],
        "cpu_ms_per_op": ref["self_cpu_ms_per_op"] + ref["children_cpu_ms_per_op"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "put_hot_p50_ms": ref["put_hot_p50_ms"],
        "put_replicated_p50_ms": ref["put_replicated_p50_ms"],
        "program.import_s": import_s,
        "core.antientropy.sessions": stats["sessions"]["completed_initiator"],
        "core.fastupdate.offer_accept_ratio": _offer_accept_ratio(traffic),
        "runtime.cluster.messages_per_put": _ratio(traffic["messages_sent"], puts),
        "runtime.cluster.bytes_per_put": _ratio(traffic["bytes_sent"], puts),
        "runtime.cluster.hub_cpu_ms_per_op": ref["self_cpu_ms_per_op"],
        "runtime.live.loop_cpu_share": ref["loop_cpu_share"],
        "runtime.nodeproc.cpu_ms_per_op": ref["children_cpu_ms_per_op"],
        "runtime.tcp.frames_dropped": (
            traffic["messages_dropped"] + traffic["corrupt_frames_dropped"]
        ),
        "loadgen.samples": ref["samples"],
        "loadgen.achieved_rate": ref["achieved_rate"],
        "loadgen.late_p99_ms": ref["late_p99_ms"],
        # Flagged, not hidden: the generator itself fell far behind.
        "loadgen.late_flagged": float(ref["late_p99_ms"] > 50 * interval_ms),
        "loadgen.put_ack_p50_ms": ref["put_ack_p50_ms"],
        "loadgen.put_replicated_p95_ms": ref["put_replicated_p95_ms"],
        "loadgen.put_replicated_p99_ms": ref["put_replicated_p99_ms"],
        "loadgen.get_p50_ms": ref["get_p50_ms"],
        "loadgen.lo.put_hot_p50_ms": lo["put_hot_p50_ms"],
        "loadgen.lo.put_replicated_p50_ms": lo["put_replicated_p50_ms"],
        "loadgen.flood_ops_per_s": flood["windowed_ops_per_s"],
        "loadgen.clock_offset_width_ms": raw["clock_offset_width_ms"],
    }
    metrics.update(raw["layers"])
    if spec.transport == "tcp":
        import codec

        replay = codec.replay(workloads.derive_seeds(name, seed)["values"])
        if replay.pop("frames_lost"):
            failed += 1
            problems.append("codec replay lost frames")
        metrics.update(replay)
    if recorder is not None:
        metrics.update(_span_metrics(recorder, raw["ops"]))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "cost": _ratio(1.0, flood["windowed_ops_per_s"]),
        "detail": {
            "env": raw["env"],
            "phases": phases,
        },
    }


def measure(
    name: str, seed: int, seconds: float, traced: bool, spans_out: Optional[str]
) -> Dict[str, object]:
    """Run workload ``name`` once; see the module docstring."""
    recorder = None
    if traced:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    module, import_s = _load_runner(name)
    runner = _sim if name.startswith("sim-") else _live
    result = runner(
        module, import_s, name, seed, seconds / NOMINAL_SECONDS, recorder
    )
    if recorder is not None:
        recorder.uninstall()
        if spans_out:
            recorder.write_jsonl(spans_out)
    return result


def _forget_program() -> None:
    """Drop the program and the runners from ``sys.modules`` so that
    the next :func:`_load_runner` imports them again."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("repro", "simrun", "liverun"):
            del sys.modules[name]


def setup_only(name: str, seed: int, seconds: float) -> Dict[str, object]:
    """Import, set up and tear down, repeatedly: at least ``MIN_SETUPS``
    times, and further while that took under ``SETUP_BUDGET_S``, so
    that a set-up of milliseconds gets the samples a steady median
    needs and one of seven seconds is not run ten times."""
    seeds = workloads.derive_seeds(name, seed)
    scale = seconds / NOMINAL_SECONDS
    samples: List[float] = []
    started = time.perf_counter()
    while len(samples) < MIN_SETUPS or (
        len(samples) < MAX_SETUPS
        and time.perf_counter() - started < SETUP_BUDGET_S
    ):
        _forget_program()
        module, import_s = _load_runner(name)
        if name.startswith("sim-"):
            built = module.build(workloads.sim_spec(name, scale), seeds)
        else:
            built = module.boot(workloads.live_spec(name, scale), seeds)
            built["cluster"].close()
        samples.append(import_s + built["setup_s"])
        del built, module
        gc.collect()
    return {"setup_samples_s": samples}
