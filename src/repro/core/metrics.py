"""Evaluation metrics.

Three families, matching the paper's measurements:

* **Convergence** — sessions (time units) until an update reaches a
  replica set: :class:`ConvergenceTracker` and the pure helpers
  :func:`reach_time` / :func:`coverage_fraction`. This is the metric of
  Figs. 5-6 ("the metric principle to be employed is how many sessions
  are necessary for a change brought about in a replica to be propagated
  to all the others").
* **Request satisfaction** — cumulative client requests served with
  updated content per elapsed session (Fig. 3):
  :func:`satisfied_requests_series`.
* **Traffic** — messages/bytes split into session vs fast-update
  categories (§8's "few additional bytes" claim): :class:`TrafficMeter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ExperimentError
from ..port.base import Runtime, TopicBus
from ..replica.log import Update, UpdateId
from ..replica.messages import traffic_split
from .host import TOPIC_UPDATE_APPLIED

#: The only trace categories any metric helper reads (everything else
#: the metrics consume arrives via the ``update.applied`` topic bus or
#: the network's traffic counters). Experiment assemblers use this to
#: ``enable_only`` exactly what the collectors need — see
#: :func:`repro.experiments.scenarios.build_system` — so sweeps do not
#: pay to store trace records nobody reads.
METRIC_TRACE_CATEGORIES: Tuple[str, ...] = ("fast.deliver",)


class ConvergenceTracker:
    """Records when each node first absorbs each update.

    Subscribe it to the topic bus (or runtime) a host publishes
    ``update.applied`` on; afterwards query per-update times. The
    :class:`~repro.core.system.ReplicationSystem` also records times
    itself — this tracker exists for co-simulations with several
    systems or custom agents sharing one simulator, and to annotate the
    *source* (session vs fast) that delivered each update first.
    """

    def __init__(self, bus: Union[TopicBus, Runtime]):
        self._times: Dict[UpdateId, Dict[int, float]] = {}
        self._sources: Dict[UpdateId, Dict[int, str]] = {}
        bus.subscribe(TOPIC_UPDATE_APPLIED, self._on_applied)

    def _on_applied(
        self, node: int, updates: List[Update], source: str, time: float
    ) -> None:
        for update in updates:
            times = self._times.setdefault(update.uid, {})
            if node not in times:
                times[node] = time
                self._sources.setdefault(update.uid, {})[node] = source

    def times(self, uid: UpdateId) -> Dict[int, float]:
        """node -> first-application time (absent nodes never got it)."""
        return dict(self._times.get(uid, {}))

    def source_of(self, uid: UpdateId, node: int) -> Optional[str]:
        """How ``node`` first received ``uid``: client/session/fast."""
        return self._sources.get(uid, {}).get(node)

    def delivery_breakdown(self, uid: UpdateId) -> Dict[str, int]:
        """How many nodes first got the update via each channel."""
        counts: Dict[str, int] = {}
        for source in self._sources.get(uid, {}).values():
            counts[source] = counts.get(source, 0) + 1
        return counts


def reach_time(
    times: Mapping[int, float],
    nodes: Iterable[int],
    t0: float = 0.0,
) -> Optional[float]:
    """Sessions until every node in ``nodes`` had the update.

    Returns None when some node never received it (within the run).
    """
    worst = 0.0
    for node in nodes:
        at = times.get(int(node))
        if at is None:
            return None
        worst = max(worst, at - t0)
    return worst


def mean_reach_time(
    times: Mapping[int, float], nodes: Iterable[int], t0: float = 0.0
) -> Optional[float]:
    """Mean per-node sessions-to-consistency over ``nodes``."""
    deltas = []
    for node in nodes:
        at = times.get(int(node))
        if at is None:
            return None
        deltas.append(at - t0)
    if not deltas:
        raise ExperimentError("empty node set")
    return sum(deltas) / len(deltas)


def coverage_fraction(
    times: Mapping[int, float], nodes: Sequence[int], at: float, t0: float = 0.0
) -> float:
    """Fraction of ``nodes`` consistent within ``at`` sessions."""
    if not nodes:
        raise ExperimentError("empty node set")
    covered = sum(
        1
        for node in nodes
        if times.get(int(node)) is not None and times[int(node)] - t0 <= at
    )
    return covered / len(nodes)


def post_heal_convergence_time(
    times: Mapping[int, float],
    nodes: Iterable[int],
    heal_time: float,
) -> Optional[float]:
    """Sessions after a partition heals until every node has the update.

    Nodes that converged before (or at) ``heal_time`` contribute zero —
    the metric isolates the *recovery* cost the fault added, so an
    un-partitioned run scores 0.0. Returns None when some node never
    received the update within the run.
    """
    worst = 0.0
    for node in nodes:
        at = times.get(int(node))
        if at is None:
            return None
        worst = max(worst, at - heal_time)
    return max(0.0, worst)


def staleness_under_partition(
    times: Mapping[int, float],
    nodes: Sequence[int],
    start: float,
    heal: float,
) -> float:
    """Mean per-node stale time within the partition window ``[start, heal]``.

    A node is stale from ``start`` (or from the write, if later — times
    before ``start`` contribute nothing) until it first applies the
    update; a node that only converges after the heal — or never — is
    stale for the whole window. The result is in session-time units,
    bounded by ``heal - start``; lower is better, and the gap between
    variants quantifies how much demand-ordering buys while the network
    is split.
    """
    if not nodes:
        raise ExperimentError("empty node set")
    if heal <= start:
        raise ExperimentError(f"empty partition window [{start}, {heal}]")
    total = 0.0
    for node in nodes:
        at = times.get(int(node))
        stale_until = heal if at is None else min(max(at, start), heal)
        total += stale_until - start
    return total / len(nodes)


def satisfied_requests_series(
    times: Mapping[int, float],
    demand: "Mapping[int, float] | DemandModel",
    horizon: int,
    t0: float = 0.0,
    nodes: Optional[Sequence[int]] = None,
) -> List[float]:
    """Fig. 3's series: requests served with consistent content per step.

    Element ``k`` (k = 1..horizon) is the total demand (requests per
    session time) of the replicas that were already consistent at
    session ``k`` — i.e. the number of requests satisfied with updated
    content during that unit interval.

    ``demand`` is either a static ``node -> rate`` mapping or a
    :class:`~repro.demand.base.DemandModel`, re-evaluated at the end of
    each step (``t0 + k``) so flash crowds and demand shocks are
    measured against the rates in force *during* the run rather than a
    frozen pre-shock snapshot. The model form requires ``nodes`` (a
    model has no node set of its own); with a mapping and no ``nodes``
    the historical code path runs unchanged.
    """
    if horizon < 1:
        raise ExperimentError(f"horizon must be >= 1, got {horizon}")
    if isinstance(demand, Mapping):
        if nodes is None:
            series = []
            for step in range(1, horizon + 1):
                total = 0.0
                for node, rate in demand.items():
                    at = times.get(int(node))
                    if at is not None and at - t0 <= step:
                        total += rate
                series.append(total)
            return series
        rate_at = lambda node, time: demand.get(node, 0.0)  # noqa: E731
    else:
        if nodes is None:
            raise ExperimentError(
                "satisfied_requests_series needs an explicit node set "
                "when demand is a model"
            )
        rate_at = demand.demand
    node_ids = [int(n) for n in nodes]
    series = []
    for step in range(1, horizon + 1):
        total = 0.0
        for node in node_ids:
            at = times.get(node)
            if at is not None and at - t0 <= step:
                total += rate_at(node, t0 + step)
        series.append(total)
    return series


def cascade_hops(tracer) -> List[int]:
    """Push-cascade depths observed in a trace.

    One entry per fast-update delivery: how many push hops the updates
    had travelled when they arrived (1 = delivered by the write's own
    origin). Requires tracing to be enabled during the run; the §2
    "valley flooding" claim predicts depths well beyond 1 on demand
    slopes.
    """
    return [int(rec.get("hops", 0)) for rec in tracer.select("fast.deliver")]


def cascade_histogram(tracer) -> Dict[int, int]:
    """Histogram of :func:`cascade_hops` (depth -> deliveries)."""
    histogram: Dict[int, int] = {}
    for hops in cascade_hops(tracer):
        histogram[hops] = histogram.get(hops, 0) + 1
    return histogram


@dataclass(frozen=True)
class TrafficReport:
    """Measured traffic of one run, split by protocol part."""

    messages_total: int
    bytes_total: int
    messages_session: int
    messages_fast: int
    messages_other: int
    bytes_session: int
    bytes_fast: int
    bytes_other: int

    @property
    def fast_byte_overhead(self) -> float:
        """Fast-update bytes as a fraction of total bytes."""
        if self.bytes_total == 0:
            return 0.0
        return self.bytes_fast / self.bytes_total


class TrafficMeter:
    """Reads any transport's ``counters`` into a :class:`TrafficReport`."""

    def __init__(self, transport):
        self.transport = transport

    def report(self) -> TrafficReport:
        counters = self.transport.counters
        msg_groups = traffic_split(counters.by_kind)
        byte_groups = traffic_split(counters.bytes_by_kind)
        return TrafficReport(
            messages_total=counters.messages_sent,
            bytes_total=counters.bytes_sent,
            messages_session=msg_groups["session"],
            messages_fast=msg_groups["fast"],
            messages_other=msg_groups["other"],
            bytes_session=byte_groups["session"],
            bytes_fast=byte_groups["fast"],
            bytes_other=byte_groups["other"],
        )
