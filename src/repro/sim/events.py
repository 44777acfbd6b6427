"""Event primitives for the discrete-event engine.

Users never build these directly;
:meth:`repro.sim.engine.Simulator.schedule` returns an
:class:`EventHandle` that can be used to cancel the event before it
fires.

Events at the same timestamp are ordered by ``priority`` (lower fires
first) and then by insertion order, which makes simulations fully
deterministic for a fixed seed.

The engine queues plain ``(time, priority, seq, handle, callback,
args)`` tuples, in its heap and its timer lane, rather than objects:
tuple comparison runs entirely in C and, because ``seq`` is unique,
never reaches the non-comparable tail elements.  ``EventHandle``
therefore carries only scalars plus three state flags — it holds no
reference to the callback or its arguments, so a retained handle can
never keep a fired event's payload alive.

:class:`Event` remains as the object view of one scheduled entry (the
pre-tuple heap element).  It is still part of the public
:mod:`repro.sim` API for code that builds or inspects events standalone,
but the engine no longer allocates it on the scheduling hot path.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Tuple

#: Priority used when the caller does not specify one.
DEFAULT_PRIORITY = 0

#: Priority for engine-internal bookkeeping that must run after user events.
LATE_PRIORITY = 1_000_000

#: Process-wide insertion counter shared by every simulator, so relative
#: event order is well defined even when simulations are interleaved in
#: one process.  The engine advances it directly with ``next()``.
_sequence = itertools.count()


def next_sequence() -> int:
    """Return a process-wide monotonically increasing tie-break counter."""
    return next(_sequence)


class EventHandle:
    """Opaque handle identifying a scheduled event.

    Attributes:
        time: Simulated time at which the event fires.
        priority: Same-time ordering key; lower fires first.
        seq: Insertion-order tie break.
        sim: The owning simulator (cancellation rejects foreign handles).
        cancelled: Set by :meth:`Simulator.cancel`.
        fired: Set by the engine when the event executes; a fired handle
            can no longer cancel anything.
        in_lane: Set by the engine when the entry sits in its sorted
            timer lane rather than the heap (tells ``cancel`` which
            structure to tidy).
    """

    __slots__ = ("time", "priority", "seq", "sim", "cancelled", "fired", "in_lane")

    def __init__(self, time: float, priority: int, seq: int):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.sim = None
        self.cancelled = False
        self.fired = False
        self.in_lane = False

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventHandle):
            return NotImplemented
        return (self.time, self.priority, self.seq) == (
            other.time,
            other.priority,
            other.seq,
        )

    def __hash__(self) -> int:
        return hash((self.time, self.priority, self.seq))

    def __repr__(self) -> str:
        return (
            f"EventHandle(time={self.time!r}, priority={self.priority!r}, "
            f"seq={self.seq!r})"
        )


class Event:
    """Object view of one scheduled callback.

    Attributes:
        handle: Sort key / cancellation token for this event.
        callback: Zero-argument-compatible callable invoked at
            ``handle.time`` with ``args``.
        args: Positional arguments passed to ``callback``.
        cancelled: Cancelled events are skipped when popped.
        sort_key: The ``(time, priority, seq)`` ordering key.
    """

    __slots__ = ("handle", "callback", "args", "cancelled", "label", "sort_key", "sim")

    def __init__(
        self,
        handle: EventHandle,
        callback: Callable[..., Any],
        args: tuple,
        cancelled: bool = False,
        label: str = "",
    ):
        self.handle = handle
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self.label = label
        self.sort_key: Tuple[float, int, int] = (handle.time, handle.priority, handle.seq)
        self.sim = None

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:
        return (
            f"Event(handle={self.handle!r}, label={self.label!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def fire(self) -> None:
        """Invoke the callback (the engine checks ``cancelled`` first)."""
        self.callback(*self.args)
