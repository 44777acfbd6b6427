"""The two live-cluster workloads: boot, offer load in phases, read out.

One generator thread (the caller) drives ``ReplicaCluster`` through its
public client API.  Open-loop phases send on a fixed schedule and time
every op from the instant it was *due*, so a stall charges the ops
queued behind it; the closed-loop ``flood`` phase sends the next op as
soon as the previous one is acknowledged.  Each phase ends by waiting,
up to a deadline, for every acknowledged put to reach every replica.

Replica apply times come back from ``ReplicaCluster.apply_times`` in
protocol units on the cluster's own clock.  The offset between that
clock and ``time.monotonic()`` is estimated from the puts themselves:
a put is applied at its origin after it was sent and before it
returned, so every put bounds the offset from both sides and the
tightest pair of bounds pins it to within the fastest hand-off seen.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.core.variants import fast_consistency
from repro.demand.static import UniformRandomDemand
from repro.errors import ReproError
from repro.runtime.cluster import ReplicaCluster
from repro.sim.network import FixedLatency
from repro.topology.brite import internet_like

from percentile import quantile
from workloads import (
    CONVERGENCE_DEADLINE_S, HOT_FRACTION, LiveSpec, OpSource, Phase, covered_at,
)

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Equal windows each phase is cut into for its steady-state numbers.
WINDOWS = 12


class Op:
    """One client operation as the generator saw it (monotonic seconds)."""

    __slots__ = (
        "kind", "key", "value", "due", "sent", "done", "uid", "result",
        "error", "converged",
    )

    def __init__(self, kind: str, key: str, value: str, due: float):
        self.kind = kind
        self.key = key
        self.value = value
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.uid: Optional[Tuple[int, int]] = None
        self.result: object = None
        self.error: Optional[str] = None
        self.converged = False


# ---------------------------------------------------------------------------
# Node-process accounting (live-tcp): /proc of this process's children
# ---------------------------------------------------------------------------


def children_cpu_seconds() -> float:
    """CPU seconds used so far by the live child processes."""
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def children_peak_rss_mb() -> float:
    """Sum of the live child processes' peak resident sets."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", "r", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


#: GIL switch interval while a live workload runs (CPython's default
#: is 5 ms).
SWITCH_INTERVAL_S = 0.0005


def tune_process(spec: LiveSpec) -> Dict[str, object]:
    """Keep the load generator out of the measurement.

    The generator thread shares this process, and so the GIL, with the
    cluster's loop thread.  At the default 5 ms switch interval the
    hand-off between the two threads, not the program, sets the pace:
    closed-loop windows of one run ranged from 390 to 3000 puts/s, and
    a run on two cores was slower than on one.  A 0.5 ms interval hands
    the GIL over promptly, and the single-process workload is pinned to
    one core so the two threads never bounce between caches.  Both are
    settings of the process that embeds the library, not of the library.
    """
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    pinned = None
    if spec.transport == "queue":
        pinned = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {pinned})
    return {"gil_switch_interval_s": SWITCH_INTERVAL_S, "pinned_cpu": pinned}


def boot(spec: LiveSpec, seeds: Dict[str, int]) -> Dict[str, object]:
    """Inputs plus a started cluster, with the set-up split by layer."""
    tuning = tune_process(spec)
    t0 = time.perf_counter()
    topology = internet_like(spec.nodes, seed=seeds["topology"])
    t1 = time.perf_counter()
    demand = UniformRandomDemand(seed=seeds["demand"])
    hot = demand.top_fraction(sorted(topology.nodes), HOT_FRACTION)
    t2 = time.perf_counter()
    config = fast_consistency()
    cluster = ReplicaCluster(
        topology,
        config=config,
        demand=demand,
        seed=seeds["system"],
        time_scale=spec.time_scale,
        # The injected latency floor: every hop costs link_delay units.
        latency=FixedLatency(config.link_delay),
        track_limit=10**7,
        transport=spec.transport,
    )
    t3 = time.perf_counter()
    cluster.start()
    t4 = time.perf_counter()
    return {
        "cluster": cluster,
        "hot": hot,
        "tuning": tuning,
        "setup_s": t4 - t0,
        "layers": {
            "topology.build_s": t1 - t0,
            "demand.bootstrap_s": t2 - t1,
            "core.system.build_s": t3 - t2,
            "runtime.nodeproc.boot_s": t4 - t3,
        },
    }


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


def _issue(cluster: ReplicaCluster, source: OpSource, due: float) -> Op:
    kind, node, key, value = source.next()
    op = Op(kind, key, value, due)
    op.sent = time.monotonic()
    try:
        if kind == "put":
            op.uid = cluster.put(key, value, node=node).uid
        else:
            op.result = cluster.get(key, node=node)
    except ReproError as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    op.done = time.monotonic()
    return op


def run_phase(
    cluster: ReplicaCluster, phase: Phase, source: OpSource
) -> Dict[str, object]:
    """Offer one phase's load, then wait for its puts to converge."""
    ops: List[Op] = []
    self_cpu0 = time.process_time()
    children_cpu0 = children_cpu_seconds()
    thread_cpu0 = time.thread_time()
    start = time.monotonic() + 0.002
    window = phase.seconds / WINDOWS
    #: Ops completed by each window boundary.
    marks: List[int] = [0]

    def mark_windows(now: float) -> None:
        while len(marks) <= WINDOWS and now >= start + len(marks) * window:
            marks.append(len(ops))

    if phase.rate:
        interval = 1.0 / phase.rate
        for index in range(int(round(phase.rate * phase.seconds))):
            due = start + index * interval
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            mark_windows(due)
            ops.append(_issue(cluster, source, due))
    else:
        end = start + phase.seconds
        while True:
            now = time.monotonic()
            mark_windows(now)
            if now >= end:
                break
            ops.append(_issue(cluster, source, now))
    sent_all = time.monotonic()
    mark_windows(start + phase.seconds)
    deadline = sent_all + CONVERGENCE_DEADLINE_S
    for op in ops:
        if op.uid is not None:
            op.converged = cluster.wait_replicated(
                op.uid, timeout=max(0.0, deadline - time.monotonic())
            )
    end_all = time.monotonic()
    return {
        "name": phase.name,
        "ops": ops,
        "first_due": ops[0].due if ops else start,
        "window_rates": [
            (after - before) / window for before, after in zip(marks, marks[1:])
        ],
        "sent_all": sent_all,
        "end_all": end_all,
        "self_cpu_s": time.process_time() - self_cpu0,
        "children_cpu_s": children_cpu_seconds() - children_cpu0,
        "generator_cpu_s": time.thread_time() - thread_cpu0,
    }


# ---------------------------------------------------------------------------
# Read-out
# ---------------------------------------------------------------------------


def _clock_offset(puts: List[Op], origin_units: Dict[Tuple[int, int], float],
                  time_scale: float) -> Tuple[float, float]:
    """``(offset, width)``: cluster-clock zero on the monotonic clock,
    and the width of the interval the puts confine it to."""
    low, high = float("-inf"), float("inf")
    for op in puts:
        applied = origin_units[op.uid] * time_scale
        low = max(low, op.sent - applied)
        high = min(high, op.done - applied)
    return (low + high) / 2.0, high - low


def _phase_numbers(
    phase: Dict[str, object],
    apply_units: Dict[Tuple[int, int], Dict[int, float]],
    offset: float,
    time_scale: float,
    hot: List[int],
) -> Dict[str, float]:
    ops: List[Op] = phase["ops"]
    puts = [op for op in ops if op.kind == "put" and op.uid is not None]
    gets = [op for op in ops if op.kind == "get" and op.error is None]
    ack = [(op.done - op.due) * 1e3 for op in puts]
    hot_ms: List[float] = []
    replicated_ms: List[float] = []
    last_replicated = phase["sent_all"]
    for op in puts:
        if not op.converged:
            continue
        times = apply_units[op.uid]
        everywhere = offset + covered_at(times.values()) * time_scale
        hot_at = offset + covered_at(times[node] for node in hot) * time_scale
        replicated_ms.append((everywhere - op.due) * 1e3)
        hot_ms.append((hot_at - op.due) * 1e3)
        last_replicated = max(last_replicated, everywhere)
    accepted = len(puts) + len(gets)
    busy = max(last_replicated, max((op.done for op in ops), default=0.0))
    span = busy - phase["first_due"]
    wall = phase["end_all"] - phase["first_due"]
    per_op_ms = 1e3 / accepted if accepted else 0.0
    return {
        "samples": len(puts),
        "put_ack_p50_ms": quantile(ack, 0.5),
        "put_hot_p50_ms": quantile(hot_ms, 0.5),
        "put_replicated_p50_ms": quantile(replicated_ms, 0.5),
        "put_replicated_p95_ms": quantile(replicated_ms, 0.95),
        "put_replicated_p99_ms": quantile(replicated_ms, 0.99),
        "get_p50_ms": quantile([(op.done - op.due) * 1e3 for op in gets], 0.5),
        "late_p99_ms": quantile([(op.sent - op.due) * 1e3 for op in ops], 0.99),
        "achieved_rate": accepted / span if span > 0 else 0.0,
        # Median window: one stalled window (a GC pause, a descheduled
        # thread) moves a mean by its full length and this not at all.
        "windowed_ops_per_s": quantile(phase["window_rates"], 0.5),
        "self_cpu_ms_per_op": phase["self_cpu_s"] * per_op_ms,
        "children_cpu_ms_per_op": phase["children_cpu_s"] * per_op_ms,
        "loop_cpu_share": (
            (phase["self_cpu_s"] - phase["generator_cpu_s"]) / wall
            if wall > 0 else 0.0
        ),
    }


def run(spec: LiveSpec, seeds: Dict[str, int]) -> Dict[str, object]:
    """One measured run; returns raw numbers for metrics and checks."""
    booted = boot(spec, seeds)
    cluster: ReplicaCluster = booted["cluster"]
    try:
        source = OpSource(cluster.node_ids, spec.gets, seeds["values"])
        gc.collect()
        phases = []
        peak_rss_mb = 0.0
        for phase in spec.phases:
            phases.append(run_phase(cluster, phase, source))
            if phase.name == "ref":
                # Peak memory at a fixed amount of work: what the flood
                # adds depends on how many ops it got through.
                peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    + children_peak_rss_mb()
                )
        all_ops = [op for phase in phases for op in phase["ops"]]
        puts = [op for op in all_ops if op.uid is not None]
        apply_units = {op.uid: cluster.apply_times(op.uid) for op in puts}
        stats = cluster.stats()
    finally:
        cluster.close()
    offset, offset_width = _clock_offset(
        puts, {uid: times[uid[0]] for uid, times in apply_units.items()},
        spec.time_scale,
    )
    numbers = {
        phase["name"]: _phase_numbers(
            phase, apply_units, offset, spec.time_scale, booted["hot"]
        )
        for phase in phases
    }
    config = cluster.config
    return {
        "setup_s": booted["setup_s"],
        "layers": booted["layers"],
        "phases": numbers,
        "ops": all_ops,
        "stats": stats,
        "peak_rss_mb": peak_rss_mb,
        "clock_offset_width_ms": offset_width * 1e3,
        "env": {
            "time_scale": spec.time_scale,
            "session_period_ms": config.session_interval_mean * spec.time_scale * 1e3,
            "link_latency_min_ms": config.link_delay * spec.time_scale * 1e3,
            "link_latency_max_ms": config.link_delay * spec.time_scale * 1e3,
            "hot_nodes": list(booted["hot"]),
            **booted["tuning"],
        },
    }
