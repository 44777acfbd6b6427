"""AsyncioRuntime: the wall-clock adapter of the runtime port.

The same protocol code that runs inside the discrete-event simulator
runs here against real time.  Cancellable callbacks (session timers,
fault replays) are scheduled with ``loop.call_later``; messages in
flight are fire-and-forget, so they wait in one :class:`DeliveryQueue`
per transport — a heap behind a single loop timer — whose drain calls
the destination node's handler directly: one hop per message.

Time is still measured in protocol units (the paper's session times);
``time_scale`` maps one unit to wall-clock seconds, so a cluster can be
run at full protocol fidelity but compressed into milliseconds per
session interval.

This module is imported lazily by :mod:`repro.runtime` so that
``import repro`` never pays for (or requires) :mod:`asyncio`.
"""

from __future__ import annotations

import asyncio
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..sim.network import (
    FixedLatency,
    LatencyModel,
    TrafficCounters,
    message_kind,
    message_size,
)
from ..sim.rng import RngRegistry
from ..sim.trace import Tracer
from .base import MessageHandler, Runtime, TopicBus
from .linkstate import CORRUPT, DUPLICATED, REFUSED, REORDERED, LinkModel


class _LiveHandle:
    """Cancellation token for a wall-clock scheduled callback."""

    __slots__ = ("_timer", "fired", "cancelled", "label")

    def __init__(self, label: str = ""):
        self._timer: Optional[asyncio.TimerHandle] = None
        self.fired = False
        self.cancelled = False
        self.label = label

    def __repr__(self) -> str:
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"_LiveHandle(label={self.label!r}, {state})"


class AsyncioRuntime(Runtime):
    """Runtime adapter over a running :mod:`asyncio` event loop.

    Args:
        seed: Master seed for the deterministic RNG streams (protocol
            decisions stay reproducible even though timing is not).
        time_scale: Wall-clock seconds per protocol time unit.  The
            default ``1.0`` runs sessions in real time; live clusters
            typically compress (e.g. ``0.05`` = 50 ms per session time).
        trace: Optional tracer; defaults to a *disabled* one, since a
            live system should not buffer trace rows indefinitely.

    Call :meth:`start` from inside the event loop before scheduling.
    """

    def __init__(
        self,
        seed: int = 0,
        time_scale: float = 1.0,
        trace: Optional[Tracer] = None,
    ):
        if time_scale <= 0:
            raise SimulationError(f"time_scale must be positive, got {time_scale}")
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Tracer(enabled=False)
        self.time_scale = float(time_scale)
        self.transport = None  # type: ignore[assignment]
        self._bus = TopicBus()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Bind to the running event loop; time zero is now."""
        if self._loop is not None:
            raise SimulationError("AsyncioRuntime already started")
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise SimulationError("AsyncioRuntime not started (call start())")
        return self._loop

    async def sleep(self, units: float) -> None:
        """Sleep for ``units`` protocol time units of wall-clock time."""
        await asyncio.sleep(units * self.time_scale)

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        return (self.loop.time() - self._t0) / self.time_scale

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> _LiveHandle:
        handle = _LiveHandle(label=label)

        def _fire() -> None:
            handle.fired = True
            callback(*args)

        handle._timer = self.loop.call_later(
            max(0.0, delay) * self.time_scale, _fire
        )
        return handle

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> _LiveHandle:
        return self.schedule(
            time - self.now, callback, *args, priority=priority, label=label
        )

    def cancel(self, handle: object) -> bool:
        if not isinstance(handle, _LiveHandle):
            return False
        if handle.fired or handle.cancelled or handle._timer is None:
            return False
        handle._timer.cancel()
        handle.cancelled = True
        return True

    # -- pub/sub --------------------------------------------------------

    def publish(self, topic: str, **payload: Any) -> int:
        return self._bus.publish(topic, **payload)

    def subscribe(self, topic: str, handler: Callable[..., None]) -> None:
        self._bus.subscribe(topic, handler)

    def unsubscribe(self, topic: str, handler: Callable[..., None]) -> None:
        self._bus.unsubscribe(topic, handler)


class DeliveryQueue:
    """Messages in flight: ``(due, seq, item)`` in one heap, one loop timer.

    The live transports never cancel a delivery, so a message needs no
    timer handle of its own.  :meth:`push` files it under its wall-clock
    due time; one ``loop.call_at`` timer stays armed for the head of the
    heap, and when it fires every due entry is handed to ``sink`` as one
    list in ``(due, seq)`` order: equal due times keep send order, a
    smaller one overtakes (distance/jitter latency, packet reorder).
    ``sink(items)`` runs on the loop and must not raise.
    """

    __slots__ = ("_runtime", "_sink", "_heap", "_seq", "_timer", "_armed",
                 "_closed", "peak")

    def __init__(self, runtime: "AsyncioRuntime", sink: Callable[[List[Any]], None]):
        self._runtime = runtime
        self._sink = sink
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Due time the timer is armed for: inf while disarmed, -inf
        #: while a drain runs (no push can undercut that).
        self._armed = inf
        self._closed = False
        #: Most entries ever in flight at once.
        self.peak = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, delay: float, item: Any) -> bool:
        """File ``item`` for delivery ``delay`` protocol units from now;
        False, filing nothing, once the queue is closed."""
        if self._closed:
            return False
        runtime = self._runtime
        loop = runtime.loop
        due = loop.time() + (delay * runtime.time_scale if delay > 0.0 else 0.0)
        self._seq += 1
        heap = self._heap
        heappush(heap, (due, self._seq, item))
        if len(heap) > self.peak:
            self.peak = len(heap)
        if due < self._armed:
            self._arm(loop, due)
        return True

    def _arm(self, loop: asyncio.AbstractEventLoop, due: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._armed = due
        self._timer = loop.call_at(due, self._drain)

    def _drain(self) -> None:
        loop = self._runtime.loop
        heap = self._heap
        # The loop fires a timer up to one clock resolution early; the
        # entry it was armed for is due by definition.
        horizon = max(loop.time(), self._armed)
        self._timer = None
        # A push made by a handler inside the drain must not arm the
        # timer for its own due time ahead of an earlier entry still in
        # the heap: re-arm once, for the head, when the drain is done.
        self._armed = -inf
        due = []
        while heap and heap[0][0] <= horizon:
            due.append(heappop(heap)[2])
        try:
            self._sink(due)
        finally:
            self._armed = inf
            if heap:
                self._arm(loop, heap[0][0])

    def close(self) -> List[Any]:
        """Disarm for good; returns what was still in flight, in order,
        for the owner to meter as dropped."""
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        left = [entry[2] for entry in sorted(self._heap)]
        self._heap.clear()
        return left


class AsyncioTransport:
    """Transport between in-process replicas on one event loop.

    A send files the message in the transport's :class:`DeliveryQueue`
    under its link latency; the queue's drain calls the destination
    node's handler directly.  Handlers are synchronous on the one loop
    thread and a send never delivers inline, so per-replica delivery is
    serialized exactly like a one-thread server with no mailbox or task
    in between.  Whether and how a message is carried (faults, loss,
    latency in protocol units, packet-level faults) is decided by the
    transport's :class:`~repro.runtime.linkstate.LinkModel` — the model
    the simulator's :class:`~repro.sim.network.Network` asks too — and
    all traffic is metered via
    :class:`~repro.sim.network.TrafficCounters`.

    Args:
        runtime: Owning :class:`AsyncioRuntime` (clock + RNG).
        topology: Link graph (``nodes`` / ``neighbors`` / ``has_edge`` /
            ``edge_weight``).
        latency: Per-link latency model (default: fixed 0.02 units).
        loss: Probability a message is dropped in flight.
        seed_stream: RNG stream name used for loss draws.
    """

    def __init__(
        self,
        runtime: AsyncioRuntime,
        topology,
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
        seed_stream: str = "network",
    ):
        self.runtime = runtime
        self.topology = topology
        self.latency = latency if latency is not None else FixedLatency()
        self.counters = TrafficCounters()
        #: The link model: fault state and fault-injection surface, and
        #: the one routine :meth:`send` asks for its verdict.
        self.links = LinkModel(self.latency, loss, runtime.rng.stream(seed_stream))
        self._handlers: Dict[int, MessageHandler] = {}
        #: ``(src, dst, message, flag)`` items awaiting their latency;
        #: ``flag`` is 0, or the link model's ``DUPLICATED`` for the
        #: channel's second copy (``CORRUPT`` for a frame the TCP
        #: transport garbles on the wire).
        self._in_flight = DeliveryQueue(runtime, self._deliver_due)
        self._pumping = False
        #: (node, exception) pairs from handlers that raised; a bad
        #: message must not kill the replica's delivery loop.
        self.handler_errors: List[Tuple[int, BaseException]] = []

    # -- attachment -----------------------------------------------------

    def attach(self, node: int, handler: MessageHandler) -> None:
        """Register the delivery callback for ``node`` (a node joining a
        running cluster receives from its next due message on)."""
        if node not in self.topology:
            raise SimulationError(f"node {node} not in topology")
        self._handlers[node] = handler

    def detach(self, node: int) -> None:
        """Remove a node's handler; in-flight messages to it are dropped."""
        self._handlers.pop(node, None)

    def handler_for(self, node: int) -> Optional[MessageHandler]:
        """The currently attached handler of ``node`` (None if detached)."""
        return self._handlers.get(node)

    # -- delivery lifecycle ----------------------------------------------

    def start_pumps(self) -> None:
        """Start delivering: until now every due message is dropped."""
        self._pumping = True

    async def stop_pumps(self) -> None:
        """Stop delivering for good; what is in flight is metered as dropped."""
        self._pumping = False
        for src, dst, message, flag in self._in_flight.close():
            if flag != DUPLICATED:
                self._drop(src, dst, message_kind(message), "shutdown")

    def delivery_stats(self) -> Dict[str, int]:
        """What replaced the mailboxes: in-flight depth now and at peak
        (the socket fields are the TCP transport's; zero here)."""
        return {
            "in_flight": len(self._in_flight),
            "in_flight_peak": self._in_flight.peak,
            "socket_writes": 0,
            "frames_coalesced": 0,
        }

    # -- neighbours ------------------------------------------------------

    def neighbors(self, node: int) -> List[int]:
        """One-hop peers (no overlay links in the live transport)."""
        return list(self.topology.neighbors(node))

    def physical_neighbors(self, node: int) -> Sequence[int]:
        """Topology neighbours (partner-selection candidate set)."""
        return self.topology.neighbors(node)

    # -- sending ---------------------------------------------------------

    def send(self, src: int, dst: int, message: object) -> bool:
        """One-hop send; True if the message entered the channel.

        Returns False when an injected fault (crashed endpoint, failed
        link, partition boundary) refuses the message — the same
        refusal contract as the simulator's Network.
        """
        if src == dst:
            raise SimulationError(f"node {src} sending to itself")
        kind = message_kind(message)
        size = message_size(message)
        if not self.topology.has_edge(src, dst):
            raise SimulationError(f"no link {src}->{dst}")
        self.counters.note_send(kind, size)
        links = self.links
        delay = links.decide(
            src, dst, size, self.topology.edge_weight(src, dst), self.runtime.now
        )
        if delay < 0.0:
            refused = delay == REFUSED
            self._drop(src, dst, kind, "link-down" if refused else "loss")
            return not refused
        flag = 0
        flags = links.flags
        if flags:
            if flags & CORRUPT:
                if self._drops_corrupt_at_send(dst):
                    self.counters.corrupt_frames_dropped += 1
                    self._drop(src, dst, kind, "corrupt-frame")
                    return True
                flag = CORRUPT
            if flags & REORDERED:
                self.counters.reorders_applied += 1
            if flags & DUPLICATED:
                self._in_flight.push(delay, (src, dst, message, DUPLICATED))
        if not self._in_flight.push(delay, (src, dst, message, flag)):
            self._drop(src, dst, kind, "shutdown")
        return True

    def _drops_corrupt_at_send(self, dst: int) -> bool:
        """No wire to garble between in-process nodes: the receive side
        drops a corrupted message the moment it is sent."""
        return True

    def broadcast(self, src: int, message: object) -> int:
        """Send to every physical neighbour; returns sends accepted."""
        sent = 0
        for neighbor in self.physical_neighbors(src):
            if self.send(src, neighbor, message):
                sent += 1
        return sent

    def _suppress_duplicate(self, src: int, dst: int, message: object) -> None:
        # The channel duplicated the frame; the dedup layer drops the
        # copy at arrival time — metered, never delivered twice.
        self.counters.duplicates_suppressed += 1
        trace = self.runtime.trace
        if trace.wants("net.drop"):
            trace.record(
                self.runtime.now,
                "net.drop",
                src=src,
                dst=dst,
                kind=message_kind(message),
                reason="duplicate-suppressed",
            )

    def _deliver_due(self, items: List[Tuple[int, int, object, int]]) -> None:
        for src, dst, message, flag in items:
            self._arrive(src, dst, message, flag)

    def _arrive(self, src: int, dst: int, message: object, flag: int) -> None:
        """One due item reaches its (in-process) destination."""
        if flag == DUPLICATED:
            self._suppress_duplicate(src, dst, message)
        else:
            self._deliver(src, dst, message)

    def _deliver(self, src: int, dst: int, message: object) -> None:
        links = self.links
        if links.down_nodes and not links.endpoints_up(src, dst):
            self._drop(src, dst, message_kind(message), "crashed-in-flight")
            return
        handler = self._handlers.get(dst) if self._pumping else None
        if handler is None:
            self._drop(src, dst, message_kind(message), "no-handler")
            return
        self.counters.messages_delivered += 1
        try:
            handler(src, message)
        except Exception as exc:  # noqa: BLE001 - replica must survive
            self.handler_errors.append((dst, exc))

    def _drop(self, src: int, dst: int, kind: str, reason: str) -> None:
        self.counters.messages_dropped += 1
        trace = self.runtime.trace
        if trace.wants("net.drop"):
            trace.record(
                self.runtime.now, "net.drop", src=src, dst=dst, kind=kind, reason=reason
            )
