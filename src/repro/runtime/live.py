"""AsyncioRuntime: the wall-clock adapter of the runtime port.

The same protocol code that runs inside the discrete-event simulator
runs here against real time.  Cancellable callbacks (session timers,
fault replays) are scheduled with ``loop.call_later``; messages in
flight are fire-and-forget, so they wait in one :class:`DeliveryQueue`
per transport — a heap behind a single loop timer — whose drain calls
the destination node's handler directly: one hop per message.  The
queue's ``push`` is the one port :class:`AsyncioTransport` binds into
the :class:`~repro.runtime.linkstate.Channel` it is; the send path
itself is the simulator's.

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
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..sim.network import FixedLatency, LatencyModel
from ..sim.rng import RngRegistry
from ..sim.trace import Tracer
from .base import Runtime, TopicBus
from .linkstate import Channel, message_kind


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
    """Messages in flight: ``(due, seq, callback, args)`` in one heap,
    one loop timer.

    :meth:`push` is a live transport's scheduling port, shaped like the
    simulator's ``schedule_fast``: nothing is ever cancelled, so a
    message needs no timer handle of its own.  One ``loop.call_at``
    timer stays armed for the head of the heap; when it fires, every
    due entry runs in ``(due, seq)`` order — equal due times keep send
    order, a smaller one overtakes (distance/jitter latency, packet
    reorder) — and then ``drained()`` once.  Neither may raise.
    """

    __slots__ = ("_runtime", "_drained", "_heap", "_seq", "_timer", "_armed",
                 "peak")

    def __init__(self, runtime: "AsyncioRuntime", drained: Callable[[], None]):
        self._runtime = runtime
        self._drained = drained
        self._heap: List[Tuple[float, int, Callable[..., None], Tuple]] = []
        self._seq = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Due time the timer is armed for: inf while disarmed, -inf
        #: while a drain runs (no push can undercut that).
        self._armed = inf
        #: Most entries ever in flight at once.
        self.peak = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` protocol units from now."""
        runtime = self._runtime
        loop = runtime.loop
        due = loop.time() + (delay * runtime.time_scale if delay > 0.0 else 0.0)
        self._seq += 1
        heap = self._heap
        heappush(heap, (due, self._seq, callback, args))
        if len(heap) > self.peak:
            self.peak = len(heap)
        if due < self._armed:
            self._arm(loop, due)

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
        # A push made by a callback inside the drain must not arm the
        # timer for its own due time ahead of an earlier entry still in
        # the heap: re-arm once, for the head, when the drain is done.
        self._armed = -inf
        due = []
        while heap and heap[0][0] <= horizon:
            due.append(heappop(heap))
        try:
            for entry in due:
                entry[2](*entry[3])
            self._drained()
        finally:
            self._armed = inf
            if heap:
                self._arm(loop, heap[0][0])

    def close(self) -> List[Tuple[Callable[..., None], Tuple]]:
        """Disarm for good; returns the ``(callback, args)`` still in
        flight, in order, for the owner to meter as dropped."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        left = [(entry[2], entry[3]) for entry in sorted(self._heap)]
        self._heap.clear()
        return left


class AsyncioTransport(Channel):
    """Transport between in-process replicas on one event loop.

    The :class:`~repro.runtime.linkstate.Channel` on wall-clock time: a
    carried message waits in a :class:`DeliveryQueue` whose drain calls
    the destination's handler directly.  Handlers are synchronous on the
    one loop thread and a send never delivers inline, so per-replica
    delivery is serialized like a one-thread server.  This class adds
    only the live concerns: delivery starts and stops, and a raising
    handler is recorded instead of killing the drain.

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
        self._in_flight = queue = DeliveryQueue(runtime, self._drained)
        latency = latency if latency is not None else FixedLatency()
        rng = runtime.rng.stream(seed_stream)
        super().__init__(runtime, queue.push, topology, latency, loss, rng)
        self._pumping = False
        #: (node, exception) pairs from handlers that raised; a bad
        #: message must not kill the replica's delivery loop.
        self.handler_errors: List[Tuple[int, BaseException]] = []

    # -- delivery lifecycle ----------------------------------------------

    def start_pumps(self) -> None:
        """Start delivering: until now every due message is dropped."""
        self._pumping = True

    async def stop_pumps(self) -> None:
        """Stop delivering for good; what is in flight, or sent from now
        on, is metered as dropped."""
        self._pumping = False
        self._schedule = self._refuse
        for callback, args in self._in_flight.close():
            self._refuse(0.0, callback, *args)

    def _refuse(self, delay, callback, src, dst, message, *flag) -> None:
        """The scheduling port once stopped: nothing is carried any more,
        and a message (not the channel's duplicate copy) is a drop."""
        if callback != self._suppress_duplicate:
            self._drop(src, dst, message_kind(message), "shutdown")

    def _drained(self) -> None:
        """End of one drain: in-process nodes have nothing to flush."""

    def delivery_stats(self) -> Dict[str, int]:
        """What replaced the mailboxes: in-flight depth now and at peak
        (the socket fields are the TCP transport's; zero here)."""
        return {
            "in_flight": len(self._in_flight),
            "in_flight_peak": self._in_flight.peak,
            "socket_writes": 0,
            "frames_coalesced": 0,
        }

    def _deliver(self, src: int, dst: int, message: object) -> None:
        # Not started (or stopped) reads as no handler; a crash in flight
        # is still reported as one first, as in the simulator.
        if not self._pumping and self.links.endpoints_up(src, dst):
            self._drop(src, dst, message_kind(message), "no-handler")
            return
        try:
            super()._deliver(src, dst, message)
        except Exception as exc:  # noqa: BLE001 - replica must survive
            self.handler_errors.append((dst, exc))
