"""The two simulator workloads: build, run to the horizon, read out.

All timing is taken here, around calls into the program's public
functions (``internet_like``, ``ReplicationSystem``, ``start_workloads``,
``run_until``); the program is not edited to be measured.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from typing import Dict, List, Optional

from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency
from repro.demand.static import UniformRandomDemand
from repro.replica.workload import start_workloads
from repro.topology.brite import internet_like

from workloads import HOT_FRACTION, SimSpec, covered_at, sample_origins


def build(spec: SimSpec, seeds: Dict[str, int]) -> Dict[str, object]:
    """Inputs plus a started system, with the set-up split by layer."""
    t0 = time.perf_counter()
    topology = internet_like(spec.nodes, seed=seeds["topology"])
    t1 = time.perf_counter()
    demand = UniformRandomDemand(seed=seeds["demand"])
    # Ranking materialises every node's (lazily drawn) demand before
    # the clock of the timed region starts.
    hot = demand.top_fraction(sorted(topology.nodes), HOT_FRACTION)
    t2 = time.perf_counter()
    system = ReplicationSystem(
        topology=topology,
        demand=demand,
        config=fast_consistency(),
        seed=seeds["system"],
    )
    system.sim.trace.disable()
    system.start()
    injected = []
    clients = {}
    if spec.injected_writes:
        origins = sample_origins(
            topology.nodes, spec.injected_writes, seeds["origins"]
        )
        injected = [
            system.inject_write(node=origin, key=f"key-{i:02d}", value=f"v{i}")
            for i, origin in enumerate(origins)
        ]
    if spec.client_max_rate:
        clients = start_workloads(
            system.runtime,
            system.servers,
            demand,
            max_rate=spec.client_max_rate,
            write_fraction=spec.client_write_fraction,
        )
    t3 = time.perf_counter()
    return {
        "system": system,
        "hot": hot,
        "injected": injected,
        "clients": clients,
        "setup_s": t3 - t0,
        "layers": {
            "topology.build_s": t1 - t0,
            "demand.bootstrap_s": t2 - t1,
            "core.system.build_s": t3 - t2,
        },
    }


def _timed_run(spec: SimSpec, seeds: Dict[str, int]) -> Dict[str, object]:
    built = build(spec, seeds)
    system: ReplicationSystem = built["system"]
    gc.collect()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    system.run_until(spec.horizon)
    built["wall_s"] = time.perf_counter() - wall0
    built["cpu_s"] = time.process_time() - cpu0
    return built


def run(spec: SimSpec, seeds: Dict[str, int], repeats: int = 1) -> Dict[str, object]:
    """One measured run; returns raw numbers for metrics and checks.

    With ``repeats`` > 1 the identical build-and-run is done again and
    the fastest pass gives the time: the same seed executes the same
    events, so passes differ only by what else the machine was doing,
    and that can only slow a pass down.
    """
    built = _timed_run(spec, seeds)
    system: ReplicationSystem = built["system"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    nodes = system.topology.num_nodes
    hot = built["hot"]
    if spec.injected_writes:
        uids = [update.uid for update in built["injected"]]
    else:
        uids = [
            (node, seq)
            for node, server in sorted(system.servers.items())
            for seq in range(1, server.local_writes + 1)
        ]
    writes: List[Dict[str, object]] = []
    digest = hashlib.sha256()
    for uid in uids:
        times = system.apply_times(uid)
        issued = times[uid[0]]
        converged: Optional[float] = (
            max(times.values()) if len(times) == nodes else None
        )
        writes.append(
            {
                "uid": uid,
                "issued": issued,
                "converged_at": converged,
                # Read only for writes that converged.
                "covered_at": covered_at(times.values()) if converged else None,
                "hot_at": covered_at(times[n] for n in hot) if converged else None,
            }
        )
        digest.update(repr((uid, converged)).encode())
    fingerprint_times = (
        [w["converged_at"] for w in writes] if len(writes) <= 16 else None
    )
    traffic = system.traffic()
    events = system.sim.events_executed
    raw = {
        "setup_s": built["setup_s"],
        "layers": built["layers"],
        "wall_s": built["wall_s"],
        "cpu_s": built["cpu_s"],
        "peak_rss_mb": peak_rss_mb,
        "events": events,
        "horizon": spec.horizon,
        "writes": writes,
        "reads": sum(c.stats.reads for c in built["clients"].values()),
        "traffic": traffic,
        "sessions": system.session_stats_total(),
        "passes_identical": True,
        "fingerprint": {
            "events": events,
            "messages_sent": traffic["messages_sent"],
            "messages_delivered": traffic["messages_delivered"],
            "bytes_sent": traffic["bytes_sent"],
            "writes": len(writes),
            "writes_converged": sum(
                1 for w in writes if w["converged_at"] is not None
            ),
            # Spelled out when few; the digest covers every write.
            "converged_at": fingerprint_times,
            "converged_at_sha256": digest.hexdigest(),
        },
    }
    del built, system
    for _ in range(repeats - 1):
        gc.collect()
        again = _timed_run(spec, seeds)
        if again["system"].sim.events_executed != events:
            raw["passes_identical"] = False
        raw["wall_s"] = min(raw["wall_s"], again["wall_s"])
        raw["cpu_s"] = min(raw["cpu_s"], again["cpu_s"])
        del again
    return raw
