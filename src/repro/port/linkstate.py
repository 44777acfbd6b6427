"""The channel: the one place that decides whether and how a message is
carried, and the one send path that acts on the answer.

Every transport — the simulator's :class:`~repro.sim.network.Network`,
the in-process :class:`~repro.runtime.live.AsyncioTransport` and the
socket-backed :class:`~repro.runtime.tcp.TcpTransport` — is a
:class:`Channel`, which owns one :class:`LinkModel` (its ``links``
attribute) and asks it, on every send, the single question
:meth:`LinkModel.decide` answers: is this message refused, lost,
corrupted or carried, after what delay, and did the channel reorder or
duplicate it?  The model holds everything that answer depends on —
crash / failed-link / partition state, the loss probability, the latency
model, the windowed packet-level faults and the named RNG stream all of
them draw from — and it is also the fault surface: a host's fault path
(:meth:`~repro.core.host.ReplicaHost.fault`) mutates the model, never
the send path.  So one
:class:`~repro.faults.schedule.FaultSchedule` means the same thing in
every execution world by construction, not by keeping copies in step.

The worlds now differ only in how a carried message waits out its
delay: the ``schedule(delay, callback, *args)`` port each binds once —
a simulator event or the live delivery heap, and on TCP a socket after.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import FaultError, SimulationError
from .base import MessageHandler

#: The packet-level fault actions: windowed (self-expiring) channel
#: faults, which the link model alone implements.  A
#: :class:`~repro.faults.schedule.FaultEvent` carries them with their
#: parameters and the window's duration last.
ACTION_LATENCY_SHOCK = "latency_shock"  # (factor, duration)
ACTION_PACKET_REORDER = "packet_reorder"  # (probability, window, duration)
ACTION_PACKET_DUPLICATE = "packet_duplicate"  # (probability, duration)
ACTION_CORRUPT_FRAME = "corrupt_frame"  # (probability, duration)
PACKET_ACTIONS = frozenset(
    {
        ACTION_LATENCY_SHOCK,
        ACTION_PACKET_REORDER,
        ACTION_PACKET_DUPLICATE,
        ACTION_CORRUPT_FRAME,
    }
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


@dataclass
class TrafficCounters:
    """Aggregate counters of everything a channel carried."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    corrupt_frames_dropped: int = 0
    duplicates_suppressed: int = 0
    reorders_applied: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)

    def note_send(self, kind: str, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view (copies) for result persistence."""
        return asdict(self)


def message_kind(message: object) -> str:
    """Best-effort short name describing a message's type."""
    kind = getattr(message, "kind", None)
    if isinstance(kind, str):
        return kind
    return type(message).__name__


def message_size(message: object) -> int:
    """Size in bytes, via the message's ``size_bytes()`` if provided."""
    size_fn = getattr(message, "size_bytes", None)
    if callable(size_fn):
        return int(size_fn())
    return 0


# ---------------------------------------------------------------------------
# The channel
# ---------------------------------------------------------------------------


class Channel:
    """Topology-constrained, lossy, latency-modelled one-hop messaging.

    Nodes are integers; each attaches a ``handler(src, message)``.  A
    carried message (and the channel's duplicate copy) waits out its
    delay in the ``schedule`` port, then reaches :meth:`_deliver` (or
    :meth:`_suppress_duplicate`).  Subclasses bind the port and
    override only what their world adds.

    Args:
        clock: Anything with ``now`` and ``trace``.
        schedule: ``schedule(delay, callback, *args)``, fire-and-forget.
        topology: ``neighbors(node)``, ``edge_weight(a, b)`` (raising
            for a non-edge) and ``in`` — a
            :class:`repro.topology.graph.Topology`.
        latency: Latency model for ordinary links.
        loss: Probability that any message is dropped in flight.
        rng: The RNG stream the link model draws from.
    """

    def __init__(self, clock, schedule, topology, latency, loss: float, rng) -> None:
        self.topology = topology
        self.latency = latency
        #: The link model: fault state and fault-injection surface, and
        #: the one routine :meth:`send` asks for its verdict.
        self.links = LinkModel(latency, loss, rng)
        self.counters = TrafficCounters()
        self._clock = clock
        self._schedule = schedule
        self._handlers: Dict[int, MessageHandler] = {}
        self._overlay: Dict[int, Dict[int, float]] = {}
        #: message type -> (kind, has_size) — caches the per-message
        #: kind string and size resolution of the send hot path (message
        #: classes are few, messages are millions). Attribute lookup on
        #: the instance still runs for sizes, so instance-level
        #: overrides keep their normal precedence.
        self._type_info: Dict[type, Tuple[str, bool]] = {}

    # -- attachment -----------------------------------------------------

    def attach(self, node: int, handler: MessageHandler) -> None:
        """Register the delivery callback for ``node``."""
        if node not in self.topology:
            raise SimulationError(f"node {node} not in topology")
        self._handlers[node] = handler

    def detach(self, node: int) -> None:
        """Remove a node's handler; in-flight messages to it are dropped."""
        self._handlers.pop(node, None)

    def handler_for(self, node: int) -> Optional[MessageHandler]:
        """The currently attached handler of ``node`` (None if detached).

        A host's fault path uses this to park a churned-out node's
        handler so a later re-join can restore delivery exactly as it was.
        """
        return self._handlers.get(node)

    # -- overlay links (island bridges, §6) -------------------------------

    def add_overlay_link(self, a: int, b: int, delay: float) -> None:
        """Add a virtual bidirectional link with a fixed one-way delay.

        Overlay links model multi-hop tunnels (e.g. between island
        leaders); they are not part of the topology and are unaffected
        by physical-link failures, but do respect node crashes and
        partitions.
        """
        self._overlay.setdefault(a, {})[b] = delay
        self._overlay.setdefault(b, {})[a] = delay

    def remove_overlay_link(self, a: int, b: int) -> None:
        self._overlay.get(a, {}).pop(b, None)
        self._overlay.get(b, {}).pop(a, None)

    def overlay_neighbors(self, node: int) -> Tuple[int, ...]:
        """Virtual neighbours of ``node`` (overlay links only)."""
        return tuple(self._overlay.get(node, {}))

    # -- topology passthrough ---------------------------------------------

    def neighbors(self, node: int) -> List[int]:
        """Physical plus overlay neighbours of ``node``."""
        physical = list(self.topology.neighbors(node))
        extra = [n for n in self._overlay.get(node, {}) if n not in physical]
        return physical + extra

    def physical_neighbors(self, node: int) -> Sequence[int]:
        """Topology neighbours only (the partner-selection candidate set)."""
        return self.topology.neighbors(node)

    # -- sending ----------------------------------------------------------

    def send(self, src: int, dst: int, message: object) -> bool:
        """Send ``message`` from ``src`` to ``dst`` over one hop.

        Returns:
            True if the message entered the channel (it may still be
            lost); False if it was refused outright (a crashed endpoint,
            a failed link, or a partition boundary).
        """
        if src == dst:
            raise SimulationError(f"node {src} sending to itself")
        message_type = message.__class__
        info = self._type_info.get(message_type)
        if info is None:
            info = (
                message_kind(message),
                callable(getattr(message_type, "size_bytes", None)),
            )
            self._type_info[message_type] = info
        kind, has_size = info
        size = int(message.size_bytes()) if has_size else message_size(message)
        overlay = self._overlay.get(src)
        overlay_delay = overlay.get(dst) if overlay else None
        if overlay_delay is None:
            try:
                distance = self.topology.edge_weight(src, dst)
            except Exception:
                raise SimulationError(
                    f"no link {src}->{dst} (and no overlay)"
                ) from None
        else:
            distance = 0.0
        self.counters.note_send(kind, size)
        clock = self._clock
        now = clock.now
        trace = clock.trace
        if trace.wants("net.send"):
            trace.record(now, "net.send", src=src, dst=dst, kind=kind, size=size)
        links = self.links
        delay = links.decide(src, dst, size, distance, now, overlay_delay)
        if delay < 0.0:
            refused = delay == REFUSED
            self._drop(src, dst, kind, "link-down" if refused else "loss")
            return not refused
        flags = links.flags
        if flags:
            if flags & CORRUPT:
                self._corrupt(src, dst, message, delay)
                return True
            if flags & REORDERED:
                self.counters.reorders_applied += 1
            if flags & DUPLICATED:
                self._schedule(delay, self._suppress_duplicate, src, dst, message)
        # Delivery callbacks are never cancelled and ``delay`` is
        # non-negative by construction (latency models validate their
        # parameters), which is what a fire-and-forget port requires.
        self._schedule(delay, self._deliver, src, dst, message)
        return True

    def _drop(self, src: int, dst: int, kind: str, reason: str) -> None:
        self.counters.messages_dropped += 1
        clock = self._clock
        trace = clock.trace
        if trace.wants("net.drop"):
            trace.record(
                clock.now, "net.drop", src=src, dst=dst, kind=kind, reason=reason
            )

    def _corrupt(self, src: int, dst: int, message: object, delay: float) -> None:
        """A frame the link garbled: with no wire in between, the
        receiving side drops it the moment it is sent."""
        self.counters.corrupt_frames_dropped += 1
        self._drop(src, dst, message_kind(message), "corrupt-frame")

    def _suppress_duplicate(self, src: int, dst: int, message: object) -> None:
        # The channel duplicated the frame in flight; the receiving
        # transport's dedup layer drops the copy, so the protocol never
        # sees it — only the meter moves.
        self.counters.duplicates_suppressed += 1
        clock = self._clock
        trace = clock.trace
        if trace.wants("net.drop"):
            trace.record(
                clock.now,
                "net.drop",
                src=src,
                dst=dst,
                kind=message_kind(message),
                reason="duplicate-suppressed",
            )

    def _deliver(self, src: int, dst: int, message: object) -> None:
        links = self.links
        if links.down_nodes and not links.endpoints_up(src, dst):
            self._drop(src, dst, message_kind(message), "crashed-in-flight")
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self._drop(src, dst, message_kind(message), "no-handler")
            return
        self.counters.messages_delivered += 1
        # No ``try``: in the simulator a raising handler is a protocol
        # bug and stops the run; the live transports catch it themselves.
        handler(src, message)
