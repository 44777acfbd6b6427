"""Replaying a fault schedule against any execution world.

The declarative events of a :class:`~repro.faults.schedule.FaultSchedule`
become calls on the :class:`~repro.runtime.base.FaultInjector` port —
crash/recover, link flaps, partitions, demand shocks, churn — so the
*same* schedule replays against the discrete-event simulator, an
in-process asyncio cluster, or a multi-process TCP cluster:

* :func:`apply_fault` maps one :class:`FaultEvent` to injector calls
  (the single dispatch every replayer shares);
* :class:`SystemFaultInjector` adapts a running system — a transport
  with its link model, a demand model, a clock, the hosted stacks — to
  the port; the simulator, the in-process cluster and every node
  process of the TCP cluster use this one class;
* :class:`FaultProcess` replays in *virtual* time: events are scheduled
  at construction with a priority that beats ordinary protocol events,
  so a fault takes effect at its timestamp — before any message
  delivery or session timer due at the same instant — keeping replays
  deterministic across execution backends;
* :class:`FaultReplayer` replays on *wall-clock* time against a live
  injector (the runtime's ``time_scale`` maps protocol units to
  seconds), anchored at the moment the replay is armed.

Demand shocks need a mutable hook into the otherwise-static demand
model: :class:`ShockableDemand` wraps any
:class:`~repro.demand.base.DemandModel` with time-aware multipliers.
The wrapper must be in place *before* the system is built (demand views
capture the model reference at construction), which is what
:func:`prepare_demand` is for — the harness and ``build_system`` call it
when a schedule carries shocks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..demand.base import DemandModel
from ..errors import FaultError
from ..runtime.base import FaultInjector
from .schedule import (
    ACTION_DEMAND_SHOCK,
    ACTION_HEAL,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_LINK_DOWN,
    ACTION_LINK_UP,
    ACTION_NODE_DOWN,
    ACTION_NODE_UP,
    ACTION_PARTITION,
    PACKET_ACTIONS,
    FaultEvent,
    FaultSchedule,
)

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


class SystemFaultInjector(FaultInjector):
    """The fault-injector adapter over a running system, in any world.

    A system is a transport, a demand model, a clock and the protocol
    stacks it hosts; that is all a fault needs.  Crash/link/partition
    and packet actions mutate the transport's
    :class:`~repro.runtime.linkstate.LinkModel`; shocks reach the demand
    model; churn parks and restores delivery handlers so a re-joined
    node receives messages exactly as before it left.  The simulator
    (:class:`FaultProcess`), the in-process cluster and each node
    process of the TCP cluster build one of these; only the hub of a TCP
    cluster differs, because it has no transport to mutate and
    serialises every action to its node processes instead.

    Args:
        transport: Whose link model and handler table the faults hit.
        demand: The demand model (shockable only when it has
            ``apply_shock``, see :func:`prepare_demand`).
        clock: Anything with ``now`` (stamps shocks and packet windows).
        stacks: ``node -> stack`` for the nodes hosted *here* (anything
            with ``on_message``): all of them in the simulator and the
            in-process cluster, the process's own node over TCP — churn
            of a node hosted elsewhere only changes the link model.
        on_heal: Called after every action that may restore
            reachability (recover, link up, heal).
    """

    def __init__(self, transport, demand, clock, stacks, on_heal=None):
        self.transport = transport
        self.demand = demand
        self.clock = clock
        self.stacks = stacks
        self.on_heal = on_heal
        self._parked_handlers: Dict[int, object] = {}

    def _healed(self) -> None:
        if self.on_heal is not None:
            self.on_heal()

    def crash_node(self, node: int) -> None:
        self.transport.links.set_node_down(node)

    def recover_node(self, node: int) -> None:
        """Bring a crashed node back, restoring any handler a leave parked.

        ``node_up`` after ``leave`` must re-attach too — the schedule
        data model pairs any down action with any up action
        (:meth:`FaultSchedule.down_intervals`), so recovery semantics
        cannot depend on which up action closed the interval. A node
        that was only ``node_down`` keeps whatever handler is attached.
        """
        handler = self._parked_handlers.pop(node, None)
        if handler is not None:
            self.transport.attach(node, handler)
        self.transport.links.set_node_up(node)
        self._healed()

    def set_link(self, a: int, b: int, up: bool) -> None:
        if up:
            self.transport.links.set_link_up(a, b)
            self._healed()
        else:
            self.transport.links.set_link_down(a, b)

    def partition(self, groups: Sequence[Sequence[int]]) -> None:
        self.transport.links.partition(groups)

    def heal(self) -> None:
        self.transport.links.heal_partition()
        self._healed()

    def shock_demand(self, nodes: Sequence[int], factor: float) -> bool:
        apply_shock = getattr(self.demand, "apply_shock", None)
        if apply_shock is None:
            return False
        apply_shock(nodes, factor, at=self.clock.now)
        return True

    def packet_fault(
        self, action: str, params: Sequence[float], duration: float
    ) -> bool:
        self.transport.links.apply_packet_fault(
            action, params, duration, self.clock.now
        )
        return True

    def leave_node(self, node: int) -> None:
        """Churn out: crash the node and park its delivery handler."""
        handler = self.transport.handler_for(node)
        if handler is not None:
            self._parked_handlers[node] = handler
        self.transport.detach(node)
        self.transport.links.set_node_down(node)

    def join_node(self, node: int) -> None:
        """Churn in: restore the handler (parked or the node's own) and recover."""
        if node not in self._parked_handlers:
            stack = self.stacks.get(node)
            if stack is not None and self.transport.handler_for(node) is None:
                self.transport.attach(node, stack.on_message)
        self.recover_node(node)


def apply_fault(injector: FaultInjector, event: FaultEvent) -> bool:
    """Apply one fault event through the injector port.

    Returns False when the event could not take effect (a demand shock
    against a non-shockable deployment, or a packet-level fault against
    an injector that cannot express packet faults); replayers record
    such events as skipped, mirroring the pre-port semantics.
    """
    action, args = event.action, event.args
    if action == ACTION_NODE_DOWN:
        injector.crash_node(args[0])
    elif action == ACTION_NODE_UP:
        injector.recover_node(args[0])
    elif action == ACTION_LINK_DOWN:
        injector.set_link(args[0], args[1], up=False)
    elif action == ACTION_LINK_UP:
        injector.set_link(args[0], args[1], up=True)
    elif action == ACTION_PARTITION:
        injector.partition(args[0])
    elif action == ACTION_HEAL:
        injector.heal()
    elif action == ACTION_LEAVE:
        injector.leave_node(args[0])
    elif action == ACTION_JOIN:
        injector.join_node(args[0])
    elif action == ACTION_DEMAND_SHOCK:
        return injector.shock_demand(args[0], args[1])
    elif action in PACKET_ACTIONS:
        # Duration rides last in every packet action's args.
        return injector.packet_fault(action, args[:-1], args[-1])
    return True


class FaultProcess:
    """Schedules and applies every event of a schedule in virtual time.

    Args:
        system: The live simulated system whose network/demand the
            faults hit (through a :class:`SystemFaultInjector`).
        schedule: The (validated) declarative schedule to replay.

    Attributes:
        stats: action name -> how many events of it were applied.
        skipped: events that could not be applied (e.g. a demand shock
            against a system built without :func:`prepare_demand`).
    """

    def __init__(self, system, schedule: FaultSchedule):
        schedule.validate()
        self.system = system
        self.schedule = schedule
        self.injector = SystemFaultInjector(
            system.network, system.demand, system.runtime, system.nodes
        )
        self.stats: Dict[str, int] = {}
        self.skipped: List[FaultEvent] = []
        runtime = system.runtime
        for event in schedule.events:
            if event.time < runtime.now:
                raise FaultError(
                    f"fault at t={event.time} is in the past (now={runtime.now})"
                )
            runtime.schedule_at(
                event.time,
                self._apply,
                event,
                priority=FAULT_PRIORITY,
                label=f"fault.{event.action}",
            )

    def _apply(self, event: FaultEvent) -> None:
        trace = self.system.runtime.trace
        if not apply_fault(self.injector, event):
            self.skipped.append(event)
            if trace.wants("fault.skipped"):
                trace.record(
                    self.system.runtime.now, "fault.skipped", action=event.action
                )
            return
        self.stats[event.action] = self.stats.get(event.action, 0) + 1
        if trace.wants("fault.apply"):
            trace.record(
                self.system.runtime.now,
                "fault.apply",
                action=event.action,
                args=event.args,
            )


class FaultReplayer:
    """Replays a schedule on wall-clock time against a live injector.

    Each event is scheduled on the runtime's clock at ``anchor +
    event.time`` protocol units (the runtime's ``time_scale`` maps
    units to seconds), so the same :class:`FaultSchedule` that injures
    a simulation injures a live cluster at the same protocol times.

    Must be constructed on the runtime's event-loop thread (it calls
    ``runtime.schedule_at``); :meth:`ReplicaCluster.inject_faults`
    does that plumbing for cluster users.

    Args:
        runtime: Clock (and tracer) the replay is scheduled on.
        injector: Where the fault actions land.
        schedule: The (validated) schedule to replay.
        anchor: Protocol time that schedule time 0 maps to; defaults to
            ``runtime.now`` — i.e. the schedule starts *now*.

    Attributes:
        stats: action name -> how many events of it were applied.
        skipped: events that could not be applied.
        applied: total events applied so far (skipped ones excluded).
    """

    def __init__(
        self,
        runtime,
        injector: FaultInjector,
        schedule: FaultSchedule,
        anchor: Optional[float] = None,
    ):
        schedule.validate()
        self.runtime = runtime
        self.injector = injector
        self.schedule = schedule
        self.anchor = runtime.now if anchor is None else float(anchor)
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
        if not apply_fault(self.injector, event):
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
