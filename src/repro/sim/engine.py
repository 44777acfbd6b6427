"""The discrete-event simulation engine.

:class:`Simulator` is a classic event-queue kernel: callbacks are
scheduled at future simulated times and executed in (time, priority,
insertion) order. It also hosts the cross-cutting services every
simulation needs — deterministic RNG streams (:mod:`repro.sim.rng`),
structured tracing (:mod:`repro.sim.trace`) and a tiny topic-based
pub/sub bus that metrics collectors subscribe to.

Pending events are plain ``(time, priority, seq, handle, callback,
args)`` tuples: ordering is decided by the first three scalar elements,
so every comparison runs in C instead of ``Event.__lt__`` — the hottest
call site by count in profile runs.  They live in two structures that
one loop, :meth:`Simulator._drain`, merges by that key:

* the **heap** takes everything scheduled through the trusted
  :meth:`Simulator.schedule_fast` path (``handle`` is ``None``:
  kernel-originated, fire-and-forget deliveries that are never
  cancelled, no argument validation, no handle allocation) and every
  cancellable event that does not sort last among the cancellable ones;
* the **lane**, a deque kept sorted by construction, takes a
  cancellable event whose key is greater than the lane's tail.  A
  constant timeout set from a monotone clock always qualifies, which
  is the anti-entropy session timeout: set at both endpoints of every
  session and cancelled about one round trip later.  ``cancel`` trims
  dead entries off the lane head, so such timers leave in O(1) and
  never pass through the heap; an entry cancelled behind a live head
  waits there until the head fires or is cancelled.

Because keys are unique, taking the smaller of the two heads yields the
same total order a single heap would.  :meth:`Simulator.run` and
:meth:`Simulator.step` both go through ``_drain``; nothing else pops.

The engine replaces the NS-2 kernel the paper's authors built on; the
paper measures everything in "average session times", so no packet-level
fidelity is needed — only ordered delivery of timestamped callbacks.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .events import DEFAULT_PRIORITY, EventHandle, _sequence
from .rng import RngRegistry
from .trace import Tracer

#: Result strings returned by :meth:`Simulator.run`.
RUN_EXHAUSTED = "exhausted"  # no events left
RUN_UNTIL = "until"  # reached the time horizon
RUN_MAX_EVENTS = "max-events"  # executed the event budget
RUN_STOPPED = "stopped"  # stop() called from inside a callback

#: One pending event: ``(time, priority, seq, handle_or_None, callback, args)``.
HeapEntry = Tuple[float, int, int, Optional[EventHandle], Callable[..., Any], tuple]

#: Compaction only kicks in past this many dead heap entries, so small
#: simulations never pay for a rebuild.
_COMPACT_MIN_CANCELLED = 64

_heappush = heapq.heappush
_heappop = heapq.heappop


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        seed: Master seed for :attr:`rng`; every stochastic component of
            a simulation must draw from a named stream of this registry.
        trace: Optional pre-configured tracer (a fresh enabled one is
            created by default).

    Example:
        >>> sim = Simulator(seed=1)
        >>> fired = []
        >>> _ = sim.schedule(2.0, fired.append, "late")
        >>> _ = sim.schedule(1.0, fired.append, "early")
        >>> sim.run()
        'exhausted'
        >>> fired
        ['early', 'late']
    """

    def __init__(self, seed: int = 0, trace: Optional[Tracer] = None):
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Tracer()
        self._heap: List[HeapEntry] = []
        # Sorted side lane of cancellable timers; its head is never a
        # cancelled entry (cancel() and the drain loop both trim it).
        self._lane: Deque[HeapEntry] = deque()
        self._pending = 0
        self._cancelled_in_heap = 0
        self._stopping = False
        self._running = False
        self.events_executed = 0
        self._subscribers: Dict[str, List[Callable[..., None]]] = {}

    # -- scheduling -----------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        time = self.now + delay
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        if not callable(callback):
            raise SimulationError(f"callback {callback!r} is not callable")
        return self._enqueue(time, priority, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        if not callable(callback):
            raise SimulationError(f"callback {callback!r} is not callable")
        return self._enqueue(time, priority, callback, args)

    def _enqueue(
        self, time: float, priority: int, callback: Callable[..., Any], args: tuple
    ) -> EventHandle:
        """Queue one validated cancellable event; lane if it sorts last there."""
        seq = next(_sequence)
        handle = EventHandle(time=float(time), priority=priority, seq=seq)
        handle.sim = self
        entry = (handle.time, priority, seq, handle, callback, args)
        lane = self._lane
        # seq is unique, so the comparison never reaches the handles.
        if not lane or entry > lane[-1]:
            handle.in_lane = True
            lane.append(entry)
        else:
            _heappush(self._heap, entry)
        self._pending += 1
        return handle

    def schedule_fast(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Trusted internal fast path: fire-and-forget in ``delay``.

        Skips the past-time and callability validation of
        :meth:`schedule_at` and allocates no :class:`EventHandle`, so the
        scheduled event **cannot be cancelled**.  Only kernel-originated
        call sites whose arguments are correct by construction (message
        delivery in :class:`~repro.sim.network.Network`) may use it;
        everything user-facing goes through :meth:`schedule`.
        """
        _heappush(
            self._heap,
            (self.now + delay, DEFAULT_PRIORITY, next(_sequence), None, callback, args),
        )
        self._pending += 1

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event.

        Returns:
            True if the event was pending and is now cancelled; False if
            it had already fired, was already cancelled, or belongs to a
            different simulator.
        """
        if (
            getattr(handle, "sim", None) is not self
            or handle.fired
            or handle.cancelled
        ):
            return False
        handle.cancelled = True
        self._pending -= 1
        if handle.in_lane:
            # Keep the lane head live: session timeouts are cancelled
            # roughly in the order they were set, so dead entries leave
            # here instead of waiting to be popped at their time.
            lane = self._lane
            while lane and lane[0][3].cancelled:
                lane.popleft()
            return True
        self._cancelled_in_heap += 1
        # Cancelled events otherwise sit in the heap until their time
        # comes, inflating every push/pop by log(dead + live). Compact
        # once the dead majority passes the threshold; heapify keeps
        # the pop order bit-identical because sort keys are unique.
        if (
            self._cancelled_in_heap > _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact_heap()
        return True

    def _compact_heap(self) -> None:
        """Drop cancelled events from the heap and restore the invariant."""
        # In place: a running _drain holds a reference to the list.
        self._heap[:] = [
            entry for entry in self._heap if entry[3] is None or not entry[3].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    def pending_count(self) -> int:
        """Number of events scheduled and not yet fired or cancelled."""
        return self._pending

    # -- pub/sub ----------------------------------------------------------

    def subscribe(self, topic: str, handler: Callable[..., None]) -> None:
        """Register ``handler(**payload)`` for :meth:`publish` on ``topic``."""
        self._subscribers.setdefault(topic, []).append(handler)

    def unsubscribe(self, topic: str, handler: Callable[..., None]) -> None:
        """Remove a previously registered handler (no-op if absent)."""
        handlers = self._subscribers.get(topic, [])
        if handler in handlers:
            handlers.remove(handler)

    def publish(self, topic: str, **payload: Any) -> int:
        """Synchronously deliver ``payload`` to every subscriber of ``topic``.

        Returns:
            The number of handlers invoked.
        """
        handlers = self._subscribers.get(topic)
        if not handlers:
            return 0
        for handler in tuple(handlers):
            handler(**payload)
        return len(handlers)

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next event.

        Returns:
            True if an event was executed, False if none is pending.
        """
        return self._drain(math.inf, 1)[0] != RUN_EXHAUSTED

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> str:
        """Run events until a stopping condition is met.

        Args:
            until: Stop once the next event would fire after this time;
                ``now`` is advanced to ``until`` in that case.
            max_events: Stop after executing this many events (guards
                against runaway simulations in tests).

        Returns:
            One of the ``RUN_*`` constants describing why the run ended.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from a callback")
        self._running = True
        self._stopping = False
        try:
            reason, _ = self._drain(math.inf if until is None else until, max_events)
        finally:
            self._running = False
        if reason == RUN_UNTIL or (
            reason == RUN_EXHAUSTED and until is not None and until > self.now
        ):
            self.now = until
        return reason

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopping = True

    def _drain(
        self, until: float, max_events: Optional[int]
    ) -> Tuple[str, Optional[HeapEntry]]:
        """The kernel's one pop loop: run live events with ``time <= until``.

        Every way of consuming events (:meth:`run`, :meth:`step`) goes
        through here, so the lane and the heap are merged in exactly
        one place.  Each turn
        takes the smaller of the two heads by ``(time, priority, seq)``;
        the lane head is live by invariant, dead heap heads are
        discarded on the way.

        Returns:
            ``(reason, head)`` where ``reason`` is a ``RUN_*`` constant
            and ``head`` is the live entry that lies beyond ``until``
            when the reason is ``RUN_UNTIL`` (else None).  With
            ``until=-inf`` nothing runs and ``head`` is the next event.
        """
        lane = self._lane
        heap = self._heap
        executed = 0
        while max_events is None or executed < max_events:
            if lane and (not heap or lane[0] < heap[0]):
                entry = lane[0]
                if entry[0] > until:
                    return RUN_UNTIL, entry
                lane.popleft()
                while lane and lane[0][3].cancelled:
                    lane.popleft()
                # A late cancel() through the handle then reports False.
                entry[3].fired = True
            elif heap:
                entry = heap[0]
                handle = entry[3]
                if handle is not None and handle.cancelled:
                    _heappop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                if entry[0] > until:
                    return RUN_UNTIL, entry
                _heappop(heap)
                if handle is not None:
                    handle.fired = True
            else:
                return RUN_EXHAUSTED, None
            self._pending -= 1
            self.now = entry[0]
            self.events_executed += 1
            entry[4](*entry[5])
            executed += 1
            if self._stopping:
                return RUN_STOPPED, None
        return RUN_MAX_EVENTS, None
