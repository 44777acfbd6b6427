"""Placement-aware evaluation metrics.

:func:`repro.core.metrics.satisfied_requests_series` counts a site's
whole demand as satisfied the moment the site is consistent — replicas
have unbounded capacity there, so adding copies can never help and an
autoscaler can never win. This module adds the capacity-aware variant:
each consistent replica serves at most ``capacity`` requests per step,
so a site's satisfied demand is ``min(demand, capacity * serving)``
where *serving* counts the site itself plus every live,
already-consistent extra copy the controller has spawned for it. Under
a flash crowd the static system saturates at ``capacity`` per site
while the autoscaled one grows ``serving`` — the satisfaction delta is
the controller's measured benefit, and the placement traffic helper
prices what it cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..errors import ExperimentError
from ..sim.network import Network
from .messages import DemandReport, PlacementAck, PlacementCommand

#: Event tuples as recorded by the controller: (time, kind, site, replica).
Event = Tuple[float, str, int, int]


def _replica_windows(
    events: Sequence[Event],
) -> Dict[int, List[Tuple[float, float, int]]]:
    """Per site: ``(start, end, replica)`` lifetimes of its extra copies.

    A copy not (yet) retired is open-ended (``end = inf``).
    """
    windows: Dict[int, List[Tuple[float, float, int]]] = {}
    open_spawns: Dict[int, Tuple[float, int]] = {}
    for time, kind, site, replica in events:
        if kind == "spawn":
            open_spawns[replica] = (float(time), int(site))
        elif kind == "retire":
            start, spawn_site = open_spawns.pop(replica)
            windows.setdefault(spawn_site, []).append(
                (start, float(time), int(replica))
            )
        else:
            raise ExperimentError(f"unknown placement event kind {kind!r}")
    for replica, (start, site) in open_spawns.items():
        windows.setdefault(site, []).append((start, math.inf, replica))
    return windows


def capacity_satisfied_series(
    times: Mapping[int, float],
    demand: "Mapping[int, float] | DemandModel",
    horizon: int,
    sites: Sequence[int],
    capacity: float,
    events: Sequence[Event] = (),
    t0: float = 0.0,
) -> List[float]:
    """Fig. 3's series under a finite per-replica serving capacity.

    Element ``k`` (k = 1..horizon) sums, over ``sites``,
    ``min(demand(site, t0 + k), capacity * serving)`` where *serving*
    counts the site itself (if consistent by step ``k``, same rule as
    :func:`~repro.core.metrics.satisfied_requests_series`) plus every
    controller-spawned copy that is alive at ``t0 + k`` and itself
    consistent by then. With ``events=()`` this is the static-placement
    baseline.
    """
    if horizon < 1:
        raise ExperimentError(f"horizon must be >= 1, got {horizon}")
    if capacity <= 0:
        raise ExperimentError(f"capacity must be > 0, got {capacity}")
    if not sites:
        raise ExperimentError("empty site set")
    if isinstance(demand, Mapping):
        rate_at = lambda node, time: demand.get(node, 0.0)  # noqa: E731
    else:
        rate_at = demand.demand
    windows = _replica_windows(events)
    site_ids = [int(s) for s in sites]
    series: List[float] = []
    for step in range(1, horizon + 1):
        at_time = t0 + step
        total = 0.0
        for site in site_ids:
            applied = times.get(site)
            serving = 1 if applied is not None and applied - t0 <= step else 0
            for start, end, replica in windows.get(site, ()):
                if not start <= at_time < end:
                    continue
                copy_applied = times.get(replica)
                if copy_applied is not None and copy_applied - t0 <= step:
                    serving += 1
            if serving:
                total += min(rate_at(site, at_time), capacity * serving)
        series.append(total)
    return series


def replica_count_series(
    events: Sequence[Event], horizon: int, t0: float = 0.0
) -> List[int]:
    """Extra copies alive at each step — the replica-count trajectory.

    Element ``k`` (k = 1..horizon) counts the controller-spawned copies
    whose lifetime covers ``t0 + k``; a scale-up then scale-down run
    shows as a rise and fall.
    """
    if horizon < 1:
        raise ExperimentError(f"horizon must be >= 1, got {horizon}")
    windows = _replica_windows(events)
    series: List[int] = []
    for step in range(1, horizon + 1):
        at_time = t0 + step
        count = sum(
            1
            for site_windows in windows.values()
            for start, end, _ in site_windows
            if start <= at_time < end
        )
        series.append(count)
    return series


@dataclass(frozen=True)
class PlacementTraffic:
    """Control-loop traffic: what closing the loop cost on the wire."""

    report_messages: int
    command_messages: int
    report_bytes: int
    command_bytes: int
    ack_messages: int = 0
    ack_bytes: int = 0

    @property
    def messages(self) -> int:
        return self.report_messages + self.command_messages + self.ack_messages

    @property
    def bytes(self) -> int:
        return self.report_bytes + self.command_bytes + self.ack_bytes


def placement_traffic(network: Network) -> PlacementTraffic:
    """Read the placement kinds out of a network's traffic counters."""
    counters = network.counters
    return PlacementTraffic(
        report_messages=counters.by_kind.get(DemandReport.kind, 0),
        command_messages=counters.by_kind.get(PlacementCommand.kind, 0),
        report_bytes=counters.bytes_by_kind.get(DemandReport.kind, 0),
        command_bytes=counters.bytes_by_kind.get(PlacementCommand.kind, 0),
        ack_messages=counters.by_kind.get(PlacementAck.kind, 0),
        ack_bytes=counters.bytes_by_kind.get(PlacementAck.kind, 0),
    )
