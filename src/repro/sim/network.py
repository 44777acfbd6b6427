"""Message-passing network on top of the event engine.

:class:`Network` delivers messages between nodes along the edges of a
:class:`repro.topology.graph.Topology` with configurable latency models,
optional jitter, probabilistic loss, link/node failures and partitions.
It is the NS-2 stand-in: the paper only needs per-link propagation
delays and lossy channels, not TCP dynamics (see DESIGN.md §2).

Nodes are integers. Each node attaches a ``handler(src, message)``
callback; :meth:`Network.send` schedules the delivery event after the
link's latency. Whether and how a message is carried — crashes, failed
links, partitions, loss, latency, packet-level faults — is decided by
the network's :class:`~repro.runtime.linkstate.LinkModel`
(:attr:`Network.links`), the same model the live transports ask; it is
also where faults are injected. All traffic is metered (messages and
bytes, per message kind) via :class:`TrafficCounters` so
protocol-overhead experiments read measured values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..runtime.linkstate import CORRUPT, DUPLICATED, REFUSED, REORDERED, LinkModel
from .engine import Simulator

Handler = Callable[[int, object], None]


# ---------------------------------------------------------------------------
# Latency models
# ---------------------------------------------------------------------------


class LatencyModel:
    """Strategy interface giving the one-way delay of an edge."""

    def delay(self, src: int, dst: int, distance: float) -> float:
        """One-way latency for a message from ``src`` to ``dst``.

        Args:
            distance: The topology's edge weight (Euclidean distance for
                BRITE-style graphs, 1.0 when unweighted).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Every edge has the same one-way delay."""

    value: float = 0.02

    def delay(self, src: int, dst: int, distance: float) -> float:
        return self.value


@dataclass(frozen=True)
class DistanceLatency(LatencyModel):
    """Delay proportional to edge weight: ``base + scale * distance``.

    With BRITE-generated topologies the edge weight is the Euclidean
    distance in the plane, so this mirrors BRITE's propagation-delay
    assignment.
    """

    scale: float = 0.001
    base: float = 0.005

    def delay(self, src: int, dst: int, distance: float) -> float:
        return self.base + self.scale * distance


class JitteredLatency(LatencyModel):
    """Wraps another model adding uniform jitter in ``[0, jitter]``."""

    def __init__(self, inner: LatencyModel, jitter: float, rng):
        self.inner = inner
        self.jitter = jitter
        self._rng = rng

    def delay(self, src: int, dst: int, distance: float) -> float:
        return self.inner.delay(src, dst, distance) + self._rng.uniform(0, self.jitter)


class BandwidthLatency(LatencyModel):
    """Propagation plus transmission delay: ``inner + size / bandwidth``.

    Large update batches take measurably longer than the tiny
    fast-update offers — the physical reason the paper's push can beat
    a full summary exchange on the wire. The network feeds the message
    size through :meth:`delay_with_size`; plain :meth:`delay` assumes an
    empty message.
    """

    def __init__(self, inner: LatencyModel, bytes_per_time_unit: float):
        if bytes_per_time_unit <= 0:
            raise SimulationError(
                f"bandwidth must be positive, got {bytes_per_time_unit}"
            )
        self.inner = inner
        self.bytes_per_time_unit = float(bytes_per_time_unit)

    def delay(self, src: int, dst: int, distance: float) -> float:
        return self.inner.delay(src, dst, distance)

    def delay_with_size(
        self, src: int, dst: int, distance: float, size_bytes: int
    ) -> float:
        return (
            self.inner.delay(src, dst, distance)
            + size_bytes / self.bytes_per_time_unit
        )


# ---------------------------------------------------------------------------
# Traffic accounting
# ---------------------------------------------------------------------------


@dataclass
class TrafficCounters:
    """Aggregate counters of everything a network carried."""

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
        """Plain-dict view for result persistence."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "corrupt_frames_dropped": self.corrupt_frames_dropped,
            "duplicates_suppressed": self.duplicates_suppressed,
            "reorders_applied": self.reorders_applied,
            "by_kind": dict(self.by_kind),
            "bytes_by_kind": dict(self.bytes_by_kind),
        }


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
# Network
# ---------------------------------------------------------------------------


class Network:
    """Topology-constrained, lossy, latency-modelled message transport.

    Args:
        sim: The owning simulator.
        topology: Object exposing ``nodes`` (iterable of int),
            ``neighbors(node)``, ``has_edge(a, b)`` and
            ``edge_weight(a, b)`` — satisfied by
            :class:`repro.topology.graph.Topology`.
        latency: Latency model for ordinary links.
        loss: Probability that any message is dropped in flight.
        seed_stream: Name of the RNG stream used for loss and jitter.
    """

    def __init__(
        self,
        sim: Simulator,
        topology,
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
        seed_stream: str = "network",
    ):
        self.sim = sim
        self.topology = topology
        self.latency = latency if latency is not None else FixedLatency()
        #: The link model: fault state and fault-injection surface, and
        #: the one routine :meth:`send` asks for its verdict.
        self.links = LinkModel(self.latency, loss, sim.rng.stream(seed_stream))
        self._handlers: Dict[int, Handler] = {}
        self._overlay: Dict[int, Dict[int, float]] = {}
        self.counters = TrafficCounters()
        #: message type -> (kind, has_size) — caches the per-message
        #: kind string and size resolution of the send hot path (message
        #: classes are few, messages are millions). Attribute lookup on
        #: the instance still runs for sizes, so instance-level
        #: overrides keep their normal precedence.
        self._type_info: Dict[type, Tuple[str, bool]] = {}

    # -- attachment -----------------------------------------------------

    def attach(self, node: int, handler: Handler) -> None:
        """Register the delivery callback for ``node``."""
        if node not in self.topology:
            raise SimulationError(f"node {node} not in topology")
        self._handlers[node] = handler

    def detach(self, node: int) -> None:
        """Remove a node's handler; in-flight messages to it are dropped."""
        self._handlers.pop(node, None)

    def handler_for(self, node: int) -> Optional[Handler]:
        """The currently attached handler of ``node`` (None if detached).

        Fault injectors use this to park a churned-out node's handler so
        a later re-join can restore delivery exactly as it was.
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

    def physical_neighbors(self, node: int) -> Tuple[int, ...]:
        """Topology neighbours only (the partner-selection candidate set)."""
        return self.topology.neighbors(node)

    # -- sending ----------------------------------------------------------

    def send(self, src: int, dst: int, message: object) -> bool:
        """Send ``message`` from ``src`` to ``dst`` over one hop.

        Returns:
            True if the message entered the channel (it may still be
            lost); False if it was refused outright (no such link, a
            crashed endpoint, a failed link, or a partition boundary).
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
        sim = self.sim
        trace = sim.trace
        if trace.wants("net.send"):
            trace.record(sim.now, "net.send", src=src, dst=dst, kind=kind, size=size)
        links = self.links
        delay = links.decide(src, dst, size, distance, sim.now, overlay_delay)
        if delay < 0.0:
            refused = delay == REFUSED
            self._drop(src, dst, kind, "link-down" if refused else "loss")
            return not refused
        flags = links.flags
        if flags:
            if flags & CORRUPT:
                self.counters.corrupt_frames_dropped += 1
                self._drop(src, dst, kind, "corrupt-frame")
                return True
            if flags & REORDERED:
                self.counters.reorders_applied += 1
            if flags & DUPLICATED:
                sim.schedule_fast(delay, self._suppress_duplicate, src, dst, message)
        # Trusted fast path: delivery events are kernel-originated,
        # never cancelled, and their delay is non-negative by
        # construction (latency models validate their parameters).
        sim.schedule_fast(delay, self._deliver, src, dst, message)
        return True

    def broadcast(self, src: int, message: object) -> int:
        """Send to every physical neighbour; returns sends accepted."""
        sent = 0
        for neighbor in self.topology.neighbors(src):
            if self.send(src, neighbor, message):
                sent += 1
        return sent

    def _drop(self, src: int, dst: int, kind: str, reason: str) -> None:
        self.counters.messages_dropped += 1
        trace = self.sim.trace
        if trace.wants("net.drop"):
            trace.record(
                self.sim.now, "net.drop", src=src, dst=dst, kind=kind, reason=reason
            )

    def _suppress_duplicate(self, src: int, dst: int, message: object) -> None:
        # The channel duplicated the frame in flight; the receiving
        # transport's dedup layer drops the copy, so the protocol never
        # sees it — only the meter moves.
        self.counters.duplicates_suppressed += 1
        trace = self.sim.trace
        if trace.wants("net.drop"):
            trace.record(
                self.sim.now,
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
        handler(src, message)
