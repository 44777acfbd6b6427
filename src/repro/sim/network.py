"""Message-passing network on top of the event engine.

:class:`Network` delivers messages between nodes along the edges of a
:class:`repro.topology.graph.Topology` with configurable latency models,
optional jitter, probabilistic loss, link/node failures and partitions.
It is the NS-2 stand-in: the paper only needs per-link propagation
delays and lossy channels, not TCP dynamics (see DESIGN.md §2).

Nodes are integers. Each node attaches a ``handler(src, message)``
callback; :meth:`Network.send` schedules the delivery event after the
link's latency. All traffic is metered (messages and bytes, per message
kind) via :class:`TrafficCounters` so protocol-overhead experiments read
measured values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import SimulationError
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


def resolve_delay(
    latency: LatencyModel, src: int, dst: int, distance: float, size: int
) -> float:
    """One-way delay of a message, honouring size-aware models.

    Shared by every transport (simulated and live) so the
    ``delay_with_size`` fallback semantics cannot silently diverge
    between execution worlds.
    """
    delay_with_size = getattr(latency, "delay_with_size", None)
    if delay_with_size is not None:
        return delay_with_size(src, dst, distance, size)
    return latency.delay(src, dst, distance)


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
        if not 0.0 <= loss < 1.0:
            raise SimulationError(f"loss probability {loss} outside [0, 1)")
        self.sim = sim
        self.topology = topology
        self.latency = latency if latency is not None else FixedLatency()
        self.loss = loss
        self._rng = sim.rng.stream(seed_stream)
        self._handlers: Dict[int, Handler] = {}
        self._down_nodes: Set[int] = set()
        self._down_links: Set[Tuple[int, int]] = set()
        self._overlay: Dict[int, Dict[int, float]] = {}
        self._partition: Optional[Dict[int, int]] = None
        # Windowed packet-level faults; None until one is first applied,
        # so fault-free runs pay a single attribute check per send.
        self._packet_faults = None
        self.counters = TrafficCounters()
        #: message type -> (kind, has_size) — caches the per-message
        #: kind string and size resolution of the send hot path (message
        #: classes are few, messages are millions). Attribute lookup on
        #: the instance still runs for sizes, so instance-level
        #: overrides keep their normal precedence.
        self._type_info: Dict[type, Tuple[str, bool]] = {}
        # The latency model is fixed for the network's lifetime, so the
        # delay_with_size/delay resolution of resolve_delay() is bound
        # once here instead of via getattr per send.
        self._delay_with_size = getattr(self.latency, "delay_with_size", None)
        self._delay_plain = self.latency.delay

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

    # -- fault injection --------------------------------------------------

    def set_node_down(self, node: int) -> None:
        """Crash a node: it neither sends nor receives until restored."""
        self._down_nodes.add(node)

    def set_node_up(self, node: int) -> None:
        """Restore a crashed node."""
        self._down_nodes.discard(node)

    def node_is_up(self, node: int) -> bool:
        return node not in self._down_nodes

    @staticmethod
    def _link_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def set_link_down(self, a: int, b: int) -> None:
        """Fail the link between ``a`` and ``b`` (both directions)."""
        self._down_links.add(self._link_key(a, b))

    def set_link_up(self, a: int, b: int) -> None:
        """Restore a failed link."""
        self._down_links.discard(self._link_key(a, b))

    def link_is_up(self, a: int, b: int) -> bool:
        return self._link_key(a, b) not in self._down_links

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

    def apply_packet_fault(self, action: str, params, duration: float) -> None:
        """Open a windowed packet-level fault on every channel.

        The :class:`~repro.runtime.linkstate.PacketFaultState` is
        created lazily (and imported lazily, keeping this module free of
        runtime-package imports) so fault-free simulations never touch
        it — the send fast path stays golden-trace-identical.
        """
        if self._packet_faults is None:
            from ..runtime.linkstate import PacketFaultState

            self._packet_faults = PacketFaultState()
        self._packet_faults.apply(action, params, duration, self.sim.now)

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
        self.counters.note_send(kind, size)
        trace = self.sim.trace
        if trace.wants("net.send"):
            trace.record(
                self.sim.now, "net.send", src=src, dst=dst, kind=kind, size=size
            )
        if not self._can_carry(src, dst):
            self._drop(src, dst, kind, "link-down")
            return False
        if self.loss and self._rng.random() < self.loss:
            self._drop(src, dst, kind, "loss")
            return True
        if overlay_delay is not None:
            delay = overlay_delay
        elif self._delay_with_size is not None:
            delay = self._delay_with_size(src, dst, distance, size)
        else:
            delay = self._delay_plain(src, dst, distance)
        packet = self._packet_faults
        if packet is not None and packet.possible:
            # Fixed draw order (corrupt, latency, reorder, duplicate) so
            # replaying the same schedule stays deterministic; a closed
            # window draws nothing.
            now = self.sim.now
            corrupt_p = packet.corrupt_probability(now)
            if corrupt_p and self._rng.random() < corrupt_p:
                self.counters.corrupt_frames_dropped += 1
                self._drop(src, dst, kind, "corrupt-frame")
                return True
            factor = packet.latency_factor(now)
            if factor != 1.0:
                delay *= factor
            reorder = packet.reorder(now)
            if reorder is not None and self._rng.random() < reorder[0]:
                delay += self._rng.uniform(0.0, reorder[1])
                self.counters.reorders_applied += 1
            dup_p = packet.duplicate_probability(now)
            if dup_p and self._rng.random() < dup_p:
                self.sim.schedule_fast(
                    delay, self._suppress_duplicate, src, dst, message
                )
        # Trusted fast path: delivery events are kernel-originated,
        # never cancelled, and their delay is non-negative by
        # construction (latency models validate their parameters).
        self.sim.schedule_fast(delay, self._deliver, src, dst, message)
        return True

    def broadcast(self, src: int, message: object) -> int:
        """Send to every physical neighbour; returns sends accepted."""
        sent = 0
        for neighbor in self.topology.neighbors(src):
            if self.send(src, neighbor, message):
                sent += 1
        return sent

    def _can_carry(self, src: int, dst: int) -> bool:
        # Fault-free fast path: nothing is down and nothing is split,
        # so the channel always carries (the overwhelmingly common case).
        if not self._down_nodes and not self._down_links and self._partition is None:
            return True
        if src in self._down_nodes or dst in self._down_nodes:
            return False
        overlay = self._overlay.get(src)
        if overlay is None or overlay.get(dst) is None:
            if not self.link_is_up(src, dst):
                return False
        if self._partition is not None:
            if self._partition.get(src) != self._partition.get(dst):
                return False
        return True

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
        # Failures that occurred while the message was in flight still
        # prevent delivery (the channel is not clairvoyant).
        if dst in self._down_nodes or src in self._down_nodes:
            self._drop(src, dst, message_kind(message), "crashed-in-flight")
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self._drop(src, dst, message_kind(message), "no-handler")
            return
        self.counters.messages_delivered += 1
        handler(src, message)
