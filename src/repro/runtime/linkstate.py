"""The link model: the one place that decides whether and how a message
is carried.

Every transport — the simulator's :class:`~repro.sim.network.Network`,
the in-process :class:`~repro.runtime.live.AsyncioTransport` and the
socket-backed :class:`~repro.runtime.tcp.TcpTransport` — owns one
:class:`LinkModel` (its ``links`` attribute) and asks it, on every send,
the single question :meth:`LinkModel.decide` answers: is this message
refused, lost, corrupted or carried, after what delay, and did the
channel reorder or duplicate it?  The model holds everything that answer
depends on — crash / failed-link / partition state, the loss
probability, the latency model, the windowed packet-level faults and the
named RNG stream all of them draw from — and it is also the fault
surface: a fault injector mutates the model, never the transport.  So
one :class:`~repro.faults.schedule.FaultSchedule` means the same thing
in every execution world by construction, not by keeping copies in step.

The transports keep what differs between worlds: how a carried message
waits out its delay (a simulator event, a delivery heap, a socket) and
how a verdict is metered and traced.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from ..errors import FaultError, SimulationError
from ..faults.schedule import (
    ACTION_CORRUPT_FRAME,
    ACTION_LATENCY_SHOCK,
    ACTION_PACKET_DUPLICATE,
    ACTION_PACKET_REORDER,
    PACKET_ACTIONS,
)

#: Negative verdicts of :meth:`LinkModel.decide` (a carried message's
#: verdict is its delay, which is never negative).  ``REFUSED``: the
#: channel does not exist right now (crashed endpoint, failed link,
#: partition boundary) and the send reports False.  ``LOST``: the message
#: entered the channel and the channel dropped it.
REFUSED = -1.0
LOST = -2.0

#: Bits of :attr:`LinkModel.flags`: what an open packet-fault window did
#: to the message just carried.  ``CORRUPT``: it arrives garbled and the
#: receiver drops it.  ``REORDERED``: its delay was stretched so later
#: sends may overtake it.  ``DUPLICATED``: a second copy rides along
#: with the same delay, for the receiver to suppress.
CORRUPT, REORDERED, DUPLICATED = 1, 2, 4


class LinkModel:
    """Fault state, loss, latency and packet faults of one transport.

    Args:
        latency: The transport's latency model (``delay(src, dst,
            distance)``, optionally ``delay_with_size(..., size)``);
            fixed for the model's lifetime, so the size-aware variant
            is bound once here instead of per send.
        loss: Probability that a message is dropped in flight.
        rng: The named RNG stream every draw comes from, in a fixed
            order per send: loss, (the latency model's own jitter),
            corrupt, reorder probability, reorder offset, duplicate.
            A closed window draws nothing.
    """

    __slots__ = (
        "loss",
        "flags",
        "down_nodes",
        "_down_links",
        "_partition",
        "_windows",
        "_rng",
        "_delay_with_size",
        "_delay_plain",
    )

    def __init__(self, latency, loss: float, rng) -> None:
        if not 0.0 <= loss < 1.0:
            raise SimulationError(f"loss probability {loss} outside [0, 1)")
        self.loss = loss
        #: Packet-fault outcome of the last carried message (``CORRUPT``
        #: / ``REORDERED`` / ``DUPLICATED`` bits).  Written only while a
        #: window is open, and a send that finds every window expired
        #: writes 0, so it reads 0 whenever no window is open.
        self.flags = 0
        #: The currently crashed nodes (read-only for callers; delivery
        #: paths test it for emptiness before asking :meth:`endpoints_up`).
        self.down_nodes: Set[int] = set()
        self._down_links: Set[Tuple[int, int]] = set()
        self._partition: Optional[Dict[int, int]] = None
        #: action -> (params-without-duration, window end time).  One
        #: window per packet action (re-application replaces it),
        #: expiring passively: a window whose end has passed evaporates
        #: the first time a send looks at it.
        self._windows: Dict[str, Tuple[Tuple[float, ...], float]] = {}
        self._rng = rng
        self._delay_with_size = getattr(latency, "delay_with_size", None)
        self._delay_plain = latency.delay

    # -- the fault surface ------------------------------------------------

    def set_node_down(self, node: int) -> None:
        """Crash a node: it neither sends nor receives until restored."""
        self.down_nodes.add(int(node))

    def set_node_up(self, node: int) -> None:
        """Restore a crashed node."""
        self.down_nodes.discard(int(node))

    @staticmethod
    def _link_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def set_link_down(self, a: int, b: int) -> None:
        """Fail the link between ``a`` and ``b`` (both directions)."""
        self._down_links.add(self._link_key(int(a), int(b)))

    def set_link_up(self, a: int, b: int) -> None:
        """Restore a failed link."""
        self._down_links.discard(self._link_key(int(a), int(b)))

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Split the network: messages may only cross within a group."""
        assignment: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                assignment[int(node)] = index
        self._partition = assignment

    def heal_partition(self) -> None:
        """Remove any active partition."""
        self._partition = None

    def apply_packet_fault(
        self, action: str, params: Sequence[float], duration: float, now: float
    ) -> None:
        """Open (or replace) the ``action`` window on every channel for
        ``duration`` time units from ``now``."""
        if action not in PACKET_ACTIONS:
            raise FaultError(
                f"unknown packet fault {action!r}; known: {sorted(PACKET_ACTIONS)}"
            )
        if duration <= 0:
            raise FaultError(f"packet fault duration must be > 0, got {duration}")
        self._windows[action] = (
            tuple(float(p) for p in params),
            float(now) + float(duration),
        )

    # -- queries ----------------------------------------------------------

    def node_is_up(self, node: int) -> bool:
        return node not in self.down_nodes

    def link_is_up(self, a: int, b: int) -> bool:
        return self._link_key(a, b) not in self._down_links

    def endpoints_up(self, src: int, dst: int) -> bool:
        """The delivery-time check: a crash while the message was in
        flight still prevents delivery (the channel is not clairvoyant)."""
        down = self.down_nodes
        return src not in down and dst not in down

    def can_carry(self, src: int, dst: int, overlay: bool = False) -> bool:
        """Whether the ``src``->``dst`` channel exists right now.

        Both endpoints up, the link not failed, and no partition
        boundary between them.  An ``overlay`` hop (a virtual tunnel,
        not a topology edge) is unaffected by physical-link failures but
        respects crashes and partitions.
        """
        down = self.down_nodes
        if src in down or dst in down:
            return False
        if not overlay and self._link_key(src, dst) in self._down_links:
            return False
        partition = self._partition
        if partition is not None and partition.get(src) != partition.get(dst):
            return False
        return True

    def _window(self, action: str, now: float) -> Optional[Tuple[float, ...]]:
        """The open window's params for ``action``, or None (expired/absent)."""
        entry = self._windows.get(action)
        if entry is None:
            return None
        if now >= entry[1]:
            del self._windows[action]
            return None
        return entry[0]

    # -- the decision -----------------------------------------------------

    def decide(
        self,
        src: int,
        dst: int,
        size: int,
        distance: float,
        now: float,
        overlay_delay: Optional[float] = None,
    ) -> float:
        """Whether and how one message travels ``src``->``dst`` at ``now``.

        ``distance`` is the topology's edge weight; ``overlay_delay`` is
        the fixed one-way delay when the hop is an overlay link (then
        ``distance`` is ignored).

        Returns:
            ``REFUSED`` or ``LOST``, or the non-negative delay after
            which the message arrives — with :attr:`flags` saying
            whether it arrives ``CORRUPT``, was ``REORDERED`` or is
            ``DUPLICATED``.  The fault-free, loss-free path allocates
            nothing and writes nothing.
        """
        if (
            self.down_nodes or self._down_links or self._partition is not None
        ) and not self.can_carry(src, dst, overlay_delay is not None):
            return REFUSED
        if self.loss and self._rng.random() < self.loss:
            return LOST
        if overlay_delay is not None:
            delay = overlay_delay
        elif self._delay_with_size is not None:
            delay = self._delay_with_size(src, dst, distance, size)
        else:
            delay = self._delay_plain(src, dst, distance)
        if self._windows:
            rng = self._rng
            window = self._window
            params = window(ACTION_CORRUPT_FRAME, now)
            corrupt_probability = params[0] if params else 0.0
            if corrupt_probability and rng.random() < corrupt_probability:
                self.flags = CORRUPT
                return delay
            flags = 0
            params = window(ACTION_LATENCY_SHOCK, now)
            if params:
                delay *= params[0]
            params = window(ACTION_PACKET_REORDER, now)
            if params is not None and rng.random() < params[0]:
                delay += rng.uniform(0.0, params[1])
                flags = REORDERED
            params = window(ACTION_PACKET_DUPLICATE, now)
            duplicate_probability = params[0] if params else 0.0
            if duplicate_probability and rng.random() < duplicate_probability:
                flags |= DUPLICATED
            self.flags = flags
        return delay
