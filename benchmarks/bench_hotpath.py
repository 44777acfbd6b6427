"""Simulation-kernel hot-path benchmark: the events/s trajectory.

Not a paper artefact — this is the perf floor every experiment stands
on. Three measurements, written to ``BENCH_hotpath.json`` at the repo
root so regressions show up across PRs:

* **kernel**: raw engine events/s on a schedule/cancel/fire mix (the
  session-timeout pattern that used to leave cancelled events rotting
  in the heap);
* **log diff**: anti-entropy "what does the partner lack" operations/s
  at log sizes 10², 10³ and 10⁴, for the indexed :class:`WriteLog`
  *and* for a reference implementation with the pre-index semantics
  (full scan + sort per call, kept below). The gate — indexed must be
  ≥ 2× the reference at 10⁴ entries — compares two in-process
  implementations on the same machine in the same run, so it is
  load-tolerant by construction;
* **macro**: an n=100 fast-vs-weak convergence run end to end, plus the
  cost of tracing (full vs metrics-only vs disabled) on the same
  workload — the number that justifies ``build_system``'s
  ``trace="metrics"`` default.

Set ``BENCH_HOTPATH_QUICK=1`` (the CI perf-smoke job does) to shrink
the kernel and macro portions; the 10⁴ log-diff gate always runs at
full size.  The n=10⁴ macro lives in ``benchmarks/e2e`` (``sim-scale``).
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List

from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency, weak_consistency
from repro.demand.static import UniformRandomDemand
from repro.experiments.scenarios import build_system
from repro.replica.log import Update, WriteLog
from repro.replica.timestamps import Timestamp
from repro.replica.versions import SummaryVector
from repro.sim.engine import Simulator
from repro.topology.brite import internet_like

QUICK = os.environ.get("BENCH_HOTPATH_QUICK", "") not in ("", "0")

KERNEL_EVENTS = 30_000 if QUICK else 150_000
DIFF_LOG_SIZES = (100, 1_000, 10_000)
DIFF_ORIGINS = 32
DIFF_MISSING = 40
MACRO_NODES = 100
SESSIONS_GATE = 2.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


# ---------------------------------------------------------------------------
# Reference implementation: the pre-index WriteLog diff (scan + sort)
# ---------------------------------------------------------------------------


class ReferenceScanLog:
    """``updates_since`` exactly as the log computed it before indexing:
    a full scan of every stored entry plus a sort per session."""

    def __init__(self, updates: List[Update]):
        self._entries = {u.uid: u for u in updates}

    def updates_since(self, peer_summary: SummaryVector) -> List[Update]:
        missing = [
            u for u in self._entries.values() if u.seq > peer_summary.get(u.origin)
        ]
        missing.sort(key=lambda u: (u.origin, u.seq))
        return missing


def _make_updates(total: int, origins: int) -> List[Update]:
    per_origin = total // origins
    updates = []
    for origin in range(origins):
        for seq in range(1, per_origin + 1):
            updates.append(
                Update(
                    origin=origin,
                    seq=seq,
                    timestamp=Timestamp(seq, origin),
                    key=f"k{seq % 7}",
                    value=None,
                    payload_bytes=0,
                )
            )
    return updates


def _ops_per_second(fn, min_seconds: float = 0.2, min_ops: int = 3) -> float:
    """Wall-clock throughput of ``fn`` (at least min_seconds of work)."""
    # Warm-up outside the timed window.
    fn()
    ops = 0
    start = time.perf_counter()
    while True:
        fn()
        ops += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds and ops >= min_ops:
            return ops / elapsed


def _bench_log_diff(total: int) -> Dict[str, float]:
    updates = _make_updates(total, DIFF_ORIGINS)
    indexed = WriteLog()
    indexed.add_all(updates)
    reference = ReferenceScanLog(updates)
    # The peer lags DIFF_MISSING writes behind, spread over the origins
    # — the steady-state session shape: almost everything is shared,
    # the transfer is the small new suffix.
    per_origin = total // DIFF_ORIGINS
    lag, remainder = divmod(DIFF_MISSING, DIFF_ORIGINS)
    peer = SummaryVector(
        {
            origin: max(0, per_origin - lag - (1 if origin < remainder else 0))
            for origin in range(DIFF_ORIGINS)
        }
    )
    expected = [u.uid for u in reference.updates_since(peer)]
    got = [u.uid for u in indexed.updates_since(peer)]
    assert got == expected, "indexed diff diverged from reference"
    indexed_ops = _ops_per_second(lambda: indexed.updates_since(peer))
    reference_ops = _ops_per_second(lambda: reference.updates_since(peer))
    return {
        "log_size": total,
        "missing": len(expected),
        "indexed_diffs_per_s": round(indexed_ops, 1),
        "reference_diffs_per_s": round(reference_ops, 1),
        "speedup": round(indexed_ops / reference_ops, 2),
    }


# ---------------------------------------------------------------------------
# Kernel: schedule / cancel / fire mix
# ---------------------------------------------------------------------------


def _bench_kernel(n_events: int) -> Dict[str, float]:
    sim = Simulator(seed=1)
    sim.trace.disable()
    pending: List[object] = []

    def tick() -> None:
        # Each fire schedules two timers and cancels an older one — the
        # session-timeout pattern (every completed session cancels its
        # timeout), which exercises heap compaction.
        pending.append(sim.schedule(5.0, lambda: None))
        if sim.events_executed < n_events:
            sim.schedule(0.001, tick)
        if len(pending) > 1:
            sim.cancel(pending.pop(0))

    for _ in range(100):
        sim.schedule(0.001, tick)
    start = time.perf_counter()
    sim.run(max_events=n_events)
    elapsed = time.perf_counter() - start
    return {
        "events": sim.events_executed,
        "seconds": round(elapsed, 4),
        "events_per_s": round(sim.events_executed / elapsed, 1),
        "heap_left": len(sim._heap),
    }


# ---------------------------------------------------------------------------
# Macro: n=100 fast vs weak + tracing cost
# ---------------------------------------------------------------------------


def _run_macro(config, trace_mode: str = "off") -> Dict[str, object]:
    system = ReplicationSystem(
        topology=internet_like(MACRO_NODES, seed=3),
        demand=UniformRandomDemand(seed=3),
        config=config,
        seed=5,
    )
    if trace_mode == "off":
        system.sim.trace.disable()
    system.start()
    update = system.inject_write(node=0)
    start = time.perf_counter()
    done = system.run_until_replicated(update.uid, max_time=80.0)
    elapsed = time.perf_counter() - start
    return {
        "converged_at": None if done is None else round(done, 3),
        "seconds": round(elapsed, 4),
        "events": system.sim.events_executed,
        "events_per_s": round(system.sim.events_executed / elapsed, 1),
        "trace_records": len(system.sim.trace),
    }


def _bench_trace_modes() -> Dict[str, object]:
    """Time + peak memory of one sweep-shaped run per trace mode."""
    horizon = 10.0 if QUICK else 20.0
    out: Dict[str, object] = {}
    for mode in ("full", "metrics", "off"):
        tracemalloc.start()
        start = time.perf_counter()
        system = build_system(
            topology="ba", variant="fast", n=50, seed=3, trace=mode
        )
        system.start()
        system.inject_write(list(system.topology.nodes)[0])
        system.run_until(horizon)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out[mode] = {
            "seconds": round(elapsed, 4),
            "peak_kb": round(peak / 1024, 1),
            "trace_records": len(system.sim.trace),
        }
    return out


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def test_hotpath_suite(report):
    kernel = _bench_kernel(KERNEL_EVENTS)
    diffs = [_bench_log_diff(size) for size in DIFF_LOG_SIZES]
    macro = {
        "fast": _run_macro(fast_consistency()),
        "weak": _run_macro(weak_consistency()),
    }
    trace_modes = _bench_trace_modes()

    payload = {
        "quick_mode": QUICK,
        "kernel": kernel,
        "log_diff": diffs,
        "sessions_gate": {
            "log_size": DIFF_LOG_SIZES[-1],
            "required_speedup": SESSIONS_GATE,
            "measured_speedup": diffs[-1]["speedup"],
        },
        "macro_n100": macro,
        "trace_modes": trace_modes,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"kernel events/s: {kernel['events_per_s']:.0f} "
        f"({kernel['events']} events, heap left {kernel['heap_left']})",
    ]
    for row in diffs:
        lines.append(
            f"log diff @ {row['log_size']:>6}: indexed "
            f"{row['indexed_diffs_per_s']:.0f}/s vs reference "
            f"{row['reference_diffs_per_s']:.0f}/s ({row['speedup']}x)"
        )
    for variant, row in macro.items():
        lines.append(
            f"macro n={MACRO_NODES} {variant}: {row['events_per_s']:.0f} events/s, "
            f"converged at {row['converged_at']}"
        )
    for mode, row in trace_modes.items():
        lines.append(
            f"trace={mode}: {row['seconds']}s, peak {row['peak_kb']} KiB, "
            f"{row['trace_records']} records"
        )
    report.add("hotpath", "\n".join(lines))

    # The tentpole gate: at the largest log the indexed diff must beat
    # the scan-and-sort reference by at least 2x. Both run in-process
    # back to back, so machine load cancels out of the ratio.
    assert diffs[-1]["speedup"] >= SESSIONS_GATE, (
        f"indexed WriteLog only {diffs[-1]['speedup']}x the reference at "
        f"{DIFF_LOG_SIZES[-1]} entries (gate: {SESSIONS_GATE}x)"
    )
    # Sanity: both protocol variants actually converged at n=100.
    assert macro["fast"]["converged_at"] is not None
    assert macro["weak"]["converged_at"] is not None
    # The metrics-only default must not store more records than full
    # tracing (it stores strictly fewer on any fast-update workload).
    assert (
        trace_modes["metrics"]["trace_records"]
        < trace_modes["full"]["trace_records"]
    )
    assert trace_modes["off"]["trace_records"] == 0
