"""Replaying a fault schedule against any execution world.

The declarative events of a :class:`~repro.faults.schedule.FaultSchedule`
— crash/recover, link flaps, partitions, demand shocks, churn, packet
disturbances — are applied by
:meth:`ReplicaHost.fault <repro.core.host.ReplicaHost.fault>`, the one
fault path of every world, so the *same* schedule replays against the
discrete-event simulator, an in-process asyncio cluster, or a
multi-process TCP cluster.  :class:`FaultReplayer` decides *when*: it
schedules every event on a runtime's clock at ``anchor + event.time``,
with a priority that beats ordinary protocol events, so a fault takes
effect at its timestamp — before any message delivery or session timer
due at the same instant.  The simulator anchors it at protocol time 0
(:meth:`~repro.core.system.ReplicationSystem.inject_faults`: schedule
times are absolute, replays deterministic); a live cluster anchors it
at the moment the replay is armed, its runtime's ``time_scale``
mapping protocol units to wall-clock seconds.

Demand shocks need a mutable hook into the otherwise-static demand
model: :class:`ShockableDemand` wraps any
:class:`~repro.demand.base.DemandModel` with time-aware multipliers.
The wrapper must be in place *before* the system is built (demand views
capture the model reference at construction), which is what
:func:`prepare_demand` is for — the harness and ``build_system`` call it
when a schedule carries shocks.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..demand.base import DemandModel
from ..errors import FaultError
from .schedule import FaultEvent, FaultSchedule

#: Same-time ordering: faults apply before protocol events (lower wins).
FAULT_PRIORITY = -100


class ShockableDemand(DemandModel):
    """Wrap a demand model with time-aware multiplicative shocks.

    ``demand(node, time)`` is the inner model's value times the factors
    of every shock applied at or before ``time`` that covers ``node`` —
    so queries about the pre-shock past stay unshocked and replaying the
    same schedule always yields the same demand surface.
    """

    def __init__(self, inner: DemandModel):
        self.inner = inner
        self._shocks: List[Tuple[float, frozenset, float]] = []

    def apply_shock(self, nodes: Iterable[int], factor: float, at: float) -> None:
        """Multiply ``nodes``' demand by ``factor`` from time ``at`` on."""
        if factor < 0:
            raise FaultError(f"shock factor must be >= 0, got {factor}")
        self._shocks.append((float(at), frozenset(int(n) for n in nodes), factor))

    def demand(self, node: int, time: float) -> float:
        value = self.inner.demand(node, time)
        node = int(node)
        for at, nodes, factor in self._shocks:
            if at <= time and node in nodes:
                value *= factor
        return value


def prepare_demand(
    demand: DemandModel, schedule: Optional[FaultSchedule]
) -> DemandModel:
    """Wrap ``demand`` for shock injection when ``schedule`` needs it.

    Must run before the :class:`ReplicationSystem` is constructed:
    demand views and advertisers capture the model reference at build
    time, so a later swap would leave them reading the unwrapped model.
    """
    if schedule is not None and schedule.has_demand_shocks():
        return ShockableDemand(demand)
    return demand


class FaultReplayer:
    """Replays a schedule on a runtime's clock, in any world.

    Each event is scheduled at ``anchor + event.time`` protocol units
    (on a live runtime, its ``time_scale`` maps units to seconds), so
    the same :class:`FaultSchedule` that injures a simulation injures a
    live cluster at the same protocol times.

    Must be constructed on the runtime's event-loop thread (it calls
    ``runtime.schedule_at``); :meth:`ReplicaCluster.inject_faults`
    does that plumbing for cluster users, and
    :meth:`ReplicationSystem.inject_faults` arms one in the simulator.

    Args:
        runtime: The runtime (clock and tracer) the replay is scheduled on.
        apply: Applies one event where the faults land; returns False
            when it could not take effect (see
            :meth:`~repro.core.host.ReplicaHost.fault`).
        schedule: The (validated) schedule to replay.
        anchor: Protocol time that schedule time 0 maps to; defaults to
            ``runtime.now`` — i.e. the schedule starts *now*.

    Raises:
        FaultError: If an event would fire before ``runtime.now``.

    Attributes:
        stats: action name -> how many events of it were applied.
        skipped: events that could not be applied (e.g. a demand shock
            against a system built without :func:`prepare_demand`).
        applied: total events applied so far (skipped ones excluded).
    """

    def __init__(
        self,
        runtime,
        apply: Callable[[FaultEvent], bool],
        schedule: FaultSchedule,
        anchor: Optional[float] = None,
    ):
        schedule.validate()
        now = runtime.now
        self.runtime = runtime
        self.apply = apply
        self.schedule = schedule
        self.anchor = now if anchor is None else float(anchor)
        for event in schedule.events:
            if self.anchor + event.time < now:
                raise FaultError(
                    f"fault at t={event.time} is in the past (now={now})"
                )
        self.stats: Dict[str, int] = {}
        self.skipped: List[FaultEvent] = []
        self.applied = 0
        self._handles = [
            runtime.schedule_at(
                self.anchor + event.time,
                self._apply,
                event,
                priority=FAULT_PRIORITY,
                label=f"fault.{event.action}",
            )
            for event in schedule.events
        ]

    @property
    def total(self) -> int:
        """Number of events the replay will eventually attempt."""
        return len(self.schedule.events)

    @property
    def done(self) -> bool:
        """True once every event has been applied or skipped."""
        return self.applied + len(self.skipped) >= self.total

    def cancel(self) -> int:
        """Cancel all not-yet-fired events; returns how many were pending."""
        cancelled = 0
        for handle in self._handles:
            if self.runtime.cancel(handle):
                cancelled += 1
        return cancelled

    def _apply(self, event: FaultEvent) -> None:
        trace = self.runtime.trace
        if not self.apply(event):
            self.skipped.append(event)
            if trace.wants("fault.skipped"):
                trace.record(
                    self.runtime.now, "fault.skipped", action=event.action
                )
            return
        self.applied += 1
        self.stats[event.action] = self.stats.get(event.action, 0) + 1
        if trace.wants("fault.apply"):
            trace.record(
                self.runtime.now,
                "fault.apply",
                action=event.action,
                args=event.args,
            )
