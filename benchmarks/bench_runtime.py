"""Live-runtime chaos benches: SLOs under faults, parity, hub failover.

Every other benchmark measures the protocol in virtual time.  This one
exercises the *wall-clock* execution world: a :class:`ReplicaCluster`
on the asyncio runtime serves a stream of client ``put``\\ s while
faults replay against it.  Results go to ``BENCH_runtime.json`` at the
repo root so the live trajectory is tracked across PRs alongside
``BENCH_faults.json``.  (The fast-vs-weak serving gate is a test:
``tests/test_runtime_live.py``.)

Three experiments share that file:

* ``chaos`` — the same cluster serving *through* an injected fault
  schedule (``rolling_restart``, ``flapping_links``,
  ``corrupt_storm``).  Gates: every accepted put converges after the
  schedule heals, puts addressed to a crashed node fail cleanly (never
  hang), the p99 put-to-replicated latency stays under a loose SLO,
  and the corrupt storm visibly drops frames without ever breaking
  convergence.
* ``packet_parity`` — the same schedule object carrying all four
  packet-level actions must account identically (applied/skipped) in
  virtual time and on the wall clock.
* ``hub_failover`` — a TCP cluster with a standby hub loses its
  primary hub mid-traffic; nodes re-register with the standby and
  every accepted put still converges under the SLO (the no-SPOF gate).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict

from repro.errors import ReplicationError
from repro.experiments.scenarios import VARIANTS, build_faults
from repro.experiments.tables import format_table
from repro.runtime.cluster import ReplicaCluster
from repro.topology.brite import internet_like

SEED = 7
TIME_SCALE = 0.02  # 50 protocol units per wall second

CHAOS_NODES = 8
CHAOS_SCHEDULES = ("rolling_restart", "flapping_links", "corrupt_storm")
#: Very loose: a healthy run sits well under 200 ms; the SLO only
#: catches convergence pathologies, not machine-load jitter.
CHAOS_P99_SLO_MS = 1500.0

#: The hub-failover gate's TCP cluster (spawned OS processes, so small).
FAILOVER_NODES = 6

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"


def _write_section(section: str, payload: Dict[str, object]) -> None:
    """Merge one experiment's payload into BENCH_runtime.json.

    The experiments run as separate tests (possibly filtered to one of
    them), so each merges its own section instead of overwriting the
    whole file.
    """
    data: Dict[str, object] = {}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            existing = None
        # The pre-chaos layout was one flat experiment dict; replace it.
        if isinstance(existing, dict) and "experiment" not in existing:
            data = existing
    data[section] = payload
    RESULT_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _serve_through_chaos(name: str) -> Dict[str, object]:
    """Serve puts while ``name``'s fault schedule replays; measure SLOs."""
    topology = internet_like(CHAOS_NODES, seed=SEED)
    schedule = build_faults(name, topology, seed=SEED)
    config = VARIANTS["fast"]()
    with ReplicaCluster(
        topology,
        config=config,
        seed=SEED,
        time_scale=TIME_SCALE,
        faults=schedule,
    ) as cluster:
        node_ids = cluster.node_ids
        uids = []
        refused = 0
        # Serve for the whole schedule plus a post-heal tail.  Packet
        # windows outlive their triggering event by their duration, so
        # the horizon covers the last window's expiry too.
        window_end = schedule.last_packet_window_end() or 0.0
        horizon = (max(schedule.duration, window_end) + 2.0) * TIME_SCALE
        started = time.monotonic()
        sequence = 0
        while time.monotonic() - started < horizon:
            node = node_ids[sequence % len(node_ids)]
            try:
                uids.append(cluster.put("content", f"v{sequence}", node=node).uid)
            except ReplicationError:
                # The target is crashed right now; a clean refusal is
                # the contract (a hang here would blow the bench gate).
                refused += 1
            sequence += 1
            time.sleep(0.01)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status = cluster.chaos_status()
            if status is not None and status["done"]:
                break
            time.sleep(0.05)
        chaos = cluster.chaos_status() or {}
        converged = sum(
            1 for uid in uids if cluster.wait_replicated(uid, timeout=30.0)
        )
        # p50/p99 read from the cluster's streaming latency sketch (the
        # same series `repro chaos --report` and the metrics emitter
        # see) — no per-put latency list, and the numbers keep covering
        # puts even after their per-uid records are evicted.
        p50 = cluster.replication_latency_quantile(0.5)
        p99 = cluster.replication_latency_quantile(0.99)
        stats = cluster.stats()
    traffic = stats["traffic"]
    return {
        "schedule": name,
        "puts_accepted": len(uids),
        "puts_refused": refused,
        "converged": converged,
        "fault_events_applied": chaos.get("applied", 0),
        "fault_events_total": chaos.get("total", 0),
        "p50_all_ms": 1000 * p50 if p50 is not None else None,
        "p99_all_ms": 1000 * p99 if p99 is not None else None,
        "post_heal_seconds": stats["post_heal_seconds"],
        "messages": traffic["messages_sent"],
        "corrupt_frames_dropped": traffic.get("corrupt_frames_dropped", 0),
        "duplicates_suppressed": traffic.get("duplicates_suppressed", 0),
        "reorders_applied": traffic.get("reorders_applied", 0),
        "handler_errors": stats["handler_errors"],
    }


def test_runtime_chaos(benchmark, report):
    results: Dict[str, Dict[str, object]] = {}

    def run_all() -> None:
        for name in CHAOS_SCHEDULES:
            results[name] = _serve_through_chaos(name)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    for name in CHAOS_SCHEDULES:
        result = results[name]
        # Every scheduled fault fired, and every put the cluster
        # accepted converged once the schedule healed.
        assert result["fault_events_applied"] == result["fault_events_total"], result
        assert result["puts_accepted"] > 0, result
        assert result["converged"] == result["puts_accepted"], result
        assert result["handler_errors"] == 0, result
        assert result["p99_all_ms"] is not None, result
        assert result["p99_all_ms"] <= CHAOS_P99_SLO_MS, result
        if name == "corrupt_storm":
            # The packet storm must actually bite on the live channel
            # (and still never break convergence, per the gates above).
            assert result["corrupt_frames_dropped"] > 0, result

    payload = {
        "experiment": "runtime-chaos",
        "nodes": CHAOS_NODES,
        "seed": SEED,
        "time_scale": TIME_SCALE,
        "p99_slo_ms": CHAOS_P99_SLO_MS,
        "results": results,
    }
    _write_section("chaos", payload)

    rows = [
        (
            name,
            results[name]["puts_accepted"],
            results[name]["puts_refused"],
            f"{results[name]['converged']}/{results[name]['puts_accepted']}",
            f"{results[name]['p50_all_ms']:.1f}",
            f"{results[name]['p99_all_ms']:.1f}",
            f"{results[name]['fault_events_applied']}"
            f"/{results[name]['fault_events_total']}",
        )
        for name in CHAOS_SCHEDULES
    ]
    report.add(
        "live runtime — serving through chaos (wall-clock ms)",
        format_table(
            ["schedule", "puts", "refused", "converged", "p50", "p99", "faults"],
            rows,
            title=f"ReplicaCluster n={CHAOS_NODES}, fast variant, "
            f"time_scale={TIME_SCALE}, p99 SLO {CHAOS_P99_SLO_MS:.0f} ms",
        ),
    )


def test_runtime_packet_parity(report):
    """sim == live: the four packet actions account identically.

    The very same schedule object — one window of each packet-level
    action — replays through ``FaultProcess`` (virtual time) and
    ``FaultReplayer`` (wall clock on the queue cluster); the gate is
    bit-identical applied/skipped accounting.
    """
    from repro.experiments.scenarios import build_system
    from repro.faults import FaultProcess, FaultSchedule
    from repro.faults.schedule import (
        corrupt_frame,
        latency_shock,
        packet_duplicate,
        packet_reorder,
    )
    from repro.topology.simple import line

    topology = line(4)
    schedule = FaultSchedule(
        events=(
            latency_shock(0.2, 2.0, 1.0),
            packet_reorder(0.3, 0.4, 0.5, 1.0),
            packet_duplicate(0.4, 0.4, 1.0),
            corrupt_frame(0.5, 0.2, 1.0),
        ),
        name="packet-mix",
    ).validate()

    system = build_system(topology="line", n=4, variant="fast", seed=SEED)
    process = FaultProcess(system, schedule)
    system.start()
    system.run_until(schedule.duration + 1.0)
    sim_stats = dict(process.stats)
    sim_skipped = len(process.skipped)

    with ReplicaCluster(topology, seed=SEED, time_scale=TIME_SCALE) as cluster:
        replayer = cluster.inject_faults(schedule)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not replayer.done:
            time.sleep(0.02)
        live_stats = dict(replayer.stats)
        live_skipped = len(replayer.skipped)

    payload = {
        "experiment": "packet-parity",
        "seed": SEED,
        "sim_stats": sim_stats,
        "live_stats": live_stats,
        "sim_skipped": sim_skipped,
        "live_skipped": live_skipped,
    }
    _write_section("packet_parity", payload)

    assert sim_stats == live_stats == {
        "latency_shock": 1,
        "packet_reorder": 1,
        "packet_duplicate": 1,
        "corrupt_frame": 1,
    }, payload
    assert sim_skipped == live_skipped == 0, payload

    report.add(
        "packet-fault parity (sim vs live)",
        f"applied {sim_stats} in both worlds, skipped 0/0",
    )


def test_runtime_hub_failover(benchmark, report):
    """Kill the hub mid-traffic on a TCP cluster; no put is stranded.

    The no-SPOF gate: a spawn-per-node TCP cluster with one standby hub
    serves a put stream, the primary hub dies mid-stream, nodes
    re-register with the standby, and every accepted put still
    converges with p99 under the chaos SLO.
    """
    result: Dict[str, object] = {}

    def run() -> None:
        with ReplicaCluster(
            nodes=FAILOVER_NODES,
            config=VARIANTS["fast"](),
            seed=SEED,
            time_scale=TIME_SCALE,
            transport="tcp",
            standby_hubs=1,
        ) as cluster:
            node_ids = cluster.node_ids
            uids = []
            refused = 0
            killed = False
            started = time.monotonic()
            sequence = 0
            # ~2 s of traffic; the hub dies a quarter of the way in.
            while time.monotonic() - started < 2.0:
                if not killed and time.monotonic() - started > 0.5:
                    cluster.kill_hub()
                    killed = True
                node = node_ids[sequence % len(node_ids)]
                try:
                    uids.append(
                        cluster.put("content", f"v{sequence}", node=node).uid
                    )
                except ReplicationError:
                    # The control channel flaps while its node
                    # re-registers with the standby; refusals must be
                    # clean and bounded, never hangs.
                    refused += 1
                sequence += 1
                time.sleep(0.01)
            converged = sum(
                1 for uid in uids if cluster.wait_replicated(uid, timeout=30.0)
            )
            p99 = cluster.replication_latency_quantile(0.99)
            stats = cluster.stats()
            result.update(
                {
                    "puts_accepted": len(uids),
                    "puts_refused": refused,
                    "converged": converged,
                    "hub_killed": killed,
                    "hubs": len(cluster.hub_addresses),
                    "p99_all_ms": 1000 * p99 if p99 is not None else None,
                    "post_heal_seconds": stats["post_heal_seconds"],
                    "handler_errors": stats["handler_errors"],
                }
            )

    benchmark.pedantic(run, rounds=1, iterations=1)

    payload = {
        "experiment": "runtime-hub-failover",
        "nodes": FAILOVER_NODES,
        "seed": SEED,
        "time_scale": TIME_SCALE,
        "p99_slo_ms": CHAOS_P99_SLO_MS,
        "result": result,
    }
    _write_section("hub_failover", payload)

    assert result["hub_killed"], result
    assert result["puts_accepted"] > 0, result
    # The headline gate: every put the cluster accepted — before,
    # during, and after the failover — converged on every replica.
    assert result["converged"] == result["puts_accepted"], result
    assert result["handler_errors"] == 0, result
    assert result["p99_all_ms"] is not None, result
    assert result["p99_all_ms"] <= CHAOS_P99_SLO_MS, result

    report.add(
        "live runtime — hub failover (TCP, standby hub)",
        f"{result['puts_accepted']} puts ({result['puts_refused']} refused "
        f"during failover), {result['converged']} converged, "
        f"p99 {result['p99_all_ms']:.1f} ms, "
        f"post-heal {result['post_heal_seconds']}",
    )
