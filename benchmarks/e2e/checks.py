"""Correctness checks: a fast wrong answer must not pass as a result.

Each check returns ``(attempted, failed, problems)``; ``failed /
attempted`` is the run's ``failed_fraction`` and any failure makes the
benchmark exit non-zero.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from workloads import DEFAULT_SEED, SimSpec

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

#: A client write at least this many time units old at the horizon must
#: have reached every node (30-node fast consistency needs 3 to 6).
SETTLE_UNITS = 12.0

Verdict = Tuple[int, int, List[str]]


def settled_writes(spec: SimSpec, raw: Dict[str, object]) -> List[Dict[str, object]]:
    """The writes that must be on every node by the horizon: injected
    ones at the full horizon, client ones old enough."""
    if spec.injected_writes:
        return raw["writes"] if spec.horizon >= spec.full_horizon else []
    return [w for w in raw["writes"] if w["issued"] <= spec.horizon - SETTLE_UNITS]


def check_sim(spec: SimSpec, seed: int, raw: Dict[str, object]) -> Verdict:
    """Simulator runs: every settled write is everywhere, the counters
    are coherent, repeated passes executed the same events, and at the
    default seed and size the run is event-for-event the pinned one."""
    problems: List[str] = []
    settled = settled_writes(spec, raw)
    attempted = len(settled) + 1
    failed = 0
    for write in settled:
        if write["converged_at"] is None:
            failed += 1
            if failed <= 5:
                problems.append(f"write {write['uid']} did not reach every node")
    traffic = raw["traffic"]
    coherent = (
        raw["events"] > 0
        and traffic["messages_delivered"] <= traffic["messages_sent"]
        and traffic["messages_dropped"] == 0
        and raw["passes_identical"]
    )
    if not coherent:
        problems.append(f"incoherent counters: events={raw['events']} traffic={traffic}")
    if seed == DEFAULT_SEED and spec.horizon == spec.full_horizon:
        with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
            expected = json.load(handle)[spec.name]
        if raw["fingerprint"] != expected:
            coherent = False
            problems.append(
                f"fingerprint differs from expected.json: {raw['fingerprint']}"
            )
    if not coherent:
        # A run that is not the pinned run has no trustworthy result.
        failed = attempted
    return attempted, failed, problems


def check_live(raw: Dict[str, object]) -> Verdict:
    """Live runs: no op failed, every acknowledged put reached every
    replica, every read returned a value written to its key (or
    nothing yet), and no handler raised or frame was dropped."""
    problems: List[str] = []
    ops = raw["ops"]
    written: Dict[str, set] = {}
    for op in ops:
        if op.kind == "put":
            written.setdefault(op.key, set()).add(op.value)
    failed = 0
    for op in ops:
        reason = None
        if op.error is not None:
            reason = f"{op.kind} failed: {op.error}"
        elif op.kind == "put" and not op.converged:
            reason = f"put {op.uid} not on every replica by the deadline"
        elif (
            op.kind == "get"
            and op.result is not None
            and op.result not in written.get(op.key, ())
        ):
            reason = f"get({op.key}) returned a value never written to it"
        if reason is not None:
            failed += 1
            if failed <= 5:
                problems.append(reason)
    attempted = len(ops) + 1
    stats = raw["stats"]
    traffic = stats["traffic"]
    acked = sum(1 for op in ops if op.uid is not None)
    dropped = traffic["messages_dropped"] + traffic["corrupt_frames_dropped"]
    healthy = (
        stats["handler_errors"] == 0
        and dropped == 0
        and stats["puts"] == acked
        and stats["updates_fully_replicated"] >= sum(
            1 for op in ops if op.uid is not None and op.converged
        )
    )
    if not healthy:
        failed += 1
        problems.append(
            f"cluster unhealthy: handler_errors={stats['handler_errors']} "
            f"dropped={dropped} puts={stats['puts']} acked={acked} "
            f"replicated={stats['updates_fully_replicated']}"
        )
    return attempted, failed, problems
