"""Declarative fault schedules.

A :class:`FaultSchedule` is a timed list of :class:`FaultEvent` records
— node crashes and recoveries, link flaps, network partitions and heals,
demand shocks, churn joins/leaves, and windowed packet-level faults
(latency shocks, reordering, duplication, frame corruption). Like the
rest of the experiment
pipeline it is **data, not behaviour**: every field is a plain number,
string or tuple, so schedules pickle across process boundaries, compare
by value, and can be rebuilt deterministically from registry names plus
seeds (see :mod:`repro.faults.generators` and the ``FAULTS`` registry in
:mod:`repro.experiments.scenarios`).

Replaying a schedule, in the simulator or on a live cluster, is the job
of :class:`repro.faults.process.FaultReplayer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import FaultError
from ..port.linkstate import (
    ACTION_CORRUPT_FRAME,
    ACTION_LATENCY_SHOCK,
    ACTION_PACKET_DUPLICATE,
    ACTION_PACKET_REORDER,
    PACKET_ACTIONS,
)

#: Actions a fault event may carry, with their argument arity contract.
ACTION_NODE_DOWN = "node_down"  # (node,)
ACTION_NODE_UP = "node_up"  # (node,)
ACTION_LINK_DOWN = "link_down"  # (a, b)
ACTION_LINK_UP = "link_up"  # (a, b)
ACTION_PARTITION = "partition"  # (groups,) — tuple of node tuples
ACTION_HEAL = "heal"  # ()
ACTION_DEMAND_SHOCK = "demand_shock"  # (nodes, factor)
ACTION_LEAVE = "leave"  # (node,) — churn: crash + detach handler
ACTION_JOIN = "join"  # (node,) — churn: re-attach + recover
# The four packet-level actions (PACKET_ACTIONS) are defined by the link
# model that implements them, in repro.port.linkstate.

#: All known actions, for validation.
ACTIONS = frozenset(
    {
        ACTION_NODE_DOWN,
        ACTION_NODE_UP,
        ACTION_LINK_DOWN,
        ACTION_LINK_UP,
        ACTION_PARTITION,
        ACTION_HEAL,
        ACTION_DEMAND_SHOCK,
        ACTION_LEAVE,
        ACTION_JOIN,
    }
    | PACKET_ACTIONS
)

#: Actions that make a node unreachable / reachable again.
_DOWN_ACTIONS = frozenset({ACTION_NODE_DOWN, ACTION_LEAVE})
_UP_ACTIONS = frozenset({ACTION_NODE_UP, ACTION_JOIN})

#: Actions that may restore reachability; a live cluster times its
#: post-heal convergence from the last of them.
HEAL_ACTIONS = _UP_ACTIONS | {ACTION_LINK_UP, ACTION_HEAL}


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault action.

    Attributes:
        time: Simulated time at which the action applies.
        action: One of the ``ACTION_*`` constants.
        args: Action-specific arguments (plain numbers / nested tuples
            only, so the event stays picklable and hashable).
    """

    time: float
    action: str
    args: Tuple = ()

    def validate(self) -> "FaultEvent":
        if self.time < 0:
            raise FaultError(f"fault event time {self.time} < 0")
        if self.action not in ACTIONS:
            raise FaultError(
                f"unknown fault action {self.action!r}; known: {sorted(ACTIONS)}"
            )
        arity = {
            ACTION_NODE_DOWN: 1,
            ACTION_NODE_UP: 1,
            ACTION_LEAVE: 1,
            ACTION_JOIN: 1,
            ACTION_LINK_DOWN: 2,
            ACTION_LINK_UP: 2,
            ACTION_PARTITION: 1,
            ACTION_HEAL: 0,
            ACTION_DEMAND_SHOCK: 2,
            ACTION_LATENCY_SHOCK: 2,
            ACTION_PACKET_REORDER: 3,
            ACTION_PACKET_DUPLICATE: 2,
            ACTION_CORRUPT_FRAME: 2,
        }[self.action]
        if len(self.args) != arity:
            raise FaultError(
                f"{self.action} takes {arity} argument(s), got {self.args!r}"
            )
        if self.action == ACTION_PARTITION:
            groups = self.args[0]
            if not groups or any(not group for group in groups):
                raise FaultError(f"partition groups must be non-empty: {groups!r}")
        if self.action == ACTION_DEMAND_SHOCK:
            nodes, factor = self.args
            if not nodes:
                raise FaultError("demand_shock needs at least one node")
            if factor < 0:
                raise FaultError(f"demand_shock factor must be >= 0, got {factor}")
        if self.action in PACKET_ACTIONS:
            duration = self.args[-1]
            if duration <= 0:
                raise FaultError(
                    f"{self.action} duration must be > 0, got {duration}"
                )
            if self.action == ACTION_LATENCY_SHOCK:
                factor = self.args[0]
                if factor <= 0:
                    raise FaultError(
                        f"latency_shock factor must be > 0, got {factor}"
                    )
            else:
                probability = self.args[0]
                if not 0.0 <= probability <= 1.0:
                    raise FaultError(
                        f"{self.action} probability must be in [0, 1], "
                        f"got {probability}"
                    )
            if self.action == ACTION_PACKET_REORDER and self.args[1] <= 0:
                raise FaultError(
                    f"packet_reorder window must be > 0, got {self.args[1]}"
                )
        return self


# -- event constructors (the readable way to hand-roll schedules) ---------


def node_down(time: float, node: int) -> FaultEvent:
    """Crash ``node`` at ``time``."""
    return FaultEvent(float(time), ACTION_NODE_DOWN, (int(node),))


def node_up(time: float, node: int) -> FaultEvent:
    """Recover a crashed ``node`` at ``time``."""
    return FaultEvent(float(time), ACTION_NODE_UP, (int(node),))


def link_down(time: float, a: int, b: int) -> FaultEvent:
    """Fail the ``a``-``b`` link (both directions) at ``time``."""
    return FaultEvent(float(time), ACTION_LINK_DOWN, (int(a), int(b)))


def link_up(time: float, a: int, b: int) -> FaultEvent:
    """Restore the ``a``-``b`` link at ``time``."""
    return FaultEvent(float(time), ACTION_LINK_UP, (int(a), int(b)))


def partition(time: float, groups: Iterable[Iterable[int]]) -> FaultEvent:
    """Split the network into ``groups`` at ``time``."""
    frozen = tuple(tuple(int(n) for n in group) for group in groups)
    return FaultEvent(float(time), ACTION_PARTITION, (frozen,))


def heal(time: float) -> FaultEvent:
    """Remove any active partition at ``time``."""
    return FaultEvent(float(time), ACTION_HEAL, ())


def demand_shock(time: float, nodes: Iterable[int], factor: float) -> FaultEvent:
    """Multiply the true demand of ``nodes`` by ``factor`` from ``time`` on."""
    return FaultEvent(
        float(time),
        ACTION_DEMAND_SHOCK,
        (tuple(sorted(int(n) for n in nodes)), float(factor)),
    )


def leave(time: float, node: int) -> FaultEvent:
    """Churn out: ``node`` crashes and detaches its handler at ``time``."""
    return FaultEvent(float(time), ACTION_LEAVE, (int(node),))


def join(time: float, node: int) -> FaultEvent:
    """Churn in: ``node`` re-attaches and recovers at ``time``."""
    return FaultEvent(float(time), ACTION_JOIN, (int(node),))


def latency_shock(time: float, factor: float, duration: float) -> FaultEvent:
    """Multiply every message delay by ``factor`` for ``duration`` units."""
    return FaultEvent(
        float(time), ACTION_LATENCY_SHOCK, (float(factor), float(duration))
    )


def packet_reorder(
    time: float, probability: float, window: float, duration: float
) -> FaultEvent:
    """Delay each message by up to ``window`` extra units with ``probability``.

    Delivery order within the window becomes arbitrary — the classic
    reordering regime the protocol must tolerate on WAN paths.
    """
    return FaultEvent(
        float(time),
        ACTION_PACKET_REORDER,
        (float(probability), float(window), float(duration)),
    )


def packet_duplicate(time: float, probability: float, duration: float) -> FaultEvent:
    """Duplicate each message with ``probability`` for ``duration`` units.

    Duplicates are suppressed (and metered) at the receiving transport,
    modelling at-least-once delivery over a deduplicating channel.
    """
    return FaultEvent(
        float(time),
        ACTION_PACKET_DUPLICATE,
        (float(probability), float(duration)),
    )


def corrupt_frame(time: float, probability: float, duration: float) -> FaultEvent:
    """Corrupt each message in flight with ``probability`` for ``duration``.

    A corrupted message is dropped (and metered) by the receiver — over
    TCP it arrives as a garbage frame the decoder must skip, never a
    crash of the receive pump.
    """
    return FaultEvent(
        float(time),
        ACTION_CORRUPT_FRAME,
        (float(probability), float(duration)),
    )


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted sequence of fault events.

    Attributes:
        events: The events; stored sorted by (time, insertion order) so
            two schedules built from the same events compare equal.
        name: Optional label (the registry key for generated schedules).
    """

    events: Tuple[FaultEvent, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: e.time)
        )  # stable: same-time events keep insertion order
        object.__setattr__(self, "events", ordered)

    def validate(self) -> "FaultSchedule":
        """Validate every event; raises :class:`FaultError` on the first bad one."""
        for event in self.events:
            event.validate()
        return self

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        """Merge two schedules (events re-sorted by time)."""
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        name = self.name if self.name == other.name else (
            "+".join(n for n in (self.name, other.name) if n)
        )
        return FaultSchedule(events=self.events + other.events, name=name)

    # -- structure queries (used by metrics and the replay process) -------

    @property
    def duration(self) -> float:
        """Time of the last event (0.0 for an empty schedule)."""
        return self.events[-1].time if self.events else 0.0

    def actions(self, *names: str) -> Tuple[FaultEvent, ...]:
        """All events whose action is one of ``names``, in time order."""
        wanted = set(names)
        return tuple(e for e in self.events if e.action in wanted)

    def has_demand_shocks(self) -> bool:
        return any(e.action == ACTION_DEMAND_SHOCK for e in self.events)

    def has_packet_faults(self) -> bool:
        return any(e.action in PACKET_ACTIONS for e in self.events)

    def last_packet_window_end(self) -> Optional[float]:
        """Latest ``time + duration`` over packet-fault events, if any.

        Benches use this to know when the channel is clean again —
        packet windows expire by time rather than via paired up events.
        """
        ends = [
            e.time + e.args[-1] for e in self.events if e.action in PACKET_ACTIONS
        ]
        return max(ends) if ends else None

    def partition_windows(self) -> List[Tuple[float, Optional[float]]]:
        """``(partition_time, heal_time)`` pairs, in order.

        A partition still active at the end of the schedule yields a
        ``None`` heal time. Re-partitioning while already split starts a
        new window (the network keeps only the latest assignment).
        """
        windows: List[Tuple[float, Optional[float]]] = []
        open_at: Optional[float] = None
        for event in self.events:
            if event.action == ACTION_PARTITION:
                if open_at is not None:
                    windows.append((open_at, event.time))
                open_at = event.time
            elif event.action == ACTION_HEAL and open_at is not None:
                windows.append((open_at, event.time))
                open_at = None
        if open_at is not None:
            windows.append((open_at, None))
        return windows

    def last_heal_time(self) -> Optional[float]:
        """Heal time of the last fully-healed partition window, if any."""
        healed = [end for _, end in self.partition_windows() if end is not None]
        return healed[-1] if healed else None

    def last_shock_time(self) -> Optional[float]:
        """Time of the last demand shock, if any.

        Metrics that want the fully-shocked demand surface (e.g. the
        post-shock hot-set ranking in ``run_trial``) evaluate demand at
        this instant.
        """
        shocks = self.actions(ACTION_DEMAND_SHOCK)
        return shocks[-1].time if shocks else None

    def down_intervals(self) -> Dict[int, List[Tuple[float, Optional[float]]]]:
        """Per node: ``(down_at, up_at)`` intervals from crash/leave events.

        An interval still open at the end of the schedule has a ``None``
        recovery time. Duplicate downs (already down) extend nothing.
        """
        intervals: Dict[int, List[Tuple[float, Optional[float]]]] = {}
        open_at: Dict[int, float] = {}
        for event in self.events:
            if event.action in _DOWN_ACTIONS:
                node = event.args[0]
                open_at.setdefault(node, event.time)
            elif event.action in _UP_ACTIONS:
                node = event.args[0]
                start = open_at.pop(node, None)
                if start is not None:
                    intervals.setdefault(node, []).append((start, event.time))
        for node, start in open_at.items():
            intervals.setdefault(node, []).append((start, None))
        return intervals

    def affected_nodes(self) -> Tuple[int, ...]:
        """Sorted node ids any crash/churn event touches."""
        nodes = set()
        for event in self.events:
            if event.action in _DOWN_ACTIONS | _UP_ACTIONS:
                nodes.add(event.args[0])
        return tuple(sorted(nodes))

    def always_recovers(self) -> bool:
        """True when every crash/leave and partition is eventually undone.

        Generators used in convergence experiments must satisfy this —
        a node that never comes back makes full replication impossible.
        """
        if any(end is None for _, end in self.partition_windows()):
            return False
        for intervals in self.down_intervals().values():
            if any(end is None for _, end in intervals):
                return False
        return True
