"""The runtime port: the narrow world-interface the protocol needs.

The replication protocol (anti-entropy sessions, fast-update pushes,
demand advertisements) is pure message-driven logic.  Everything it
needs from the outside world is one facade:

* :class:`Runtime` — what the protocol stack is actually handed: a
  clock (read the time, schedule and cancel callbacks), the
  :class:`~repro.port.linkstate.Channel` its one-hop messages travel
  on, and the cross-cutting services every deployment needs (named RNG
  streams, structured tracing, a :class:`TopicBus`).

Two adapters implement it:

* :class:`repro.sim.runtime.SimRuntime` binds the protocol to
  the discrete-event simulator — virtual time, bit-reproducible traces;
* :class:`repro.runtime.live.AsyncioRuntime` binds the same protocol
  code to real wall-clock time on one in-process event loop, which is
  what :class:`repro.runtime.cluster.ReplicaCluster` serves live client
  traffic on; over a :class:`repro.runtime.tcp.TcpTransport` it is one
  replica process of a TCP cluster.

Faults are not a port: every world applies them through its
:meth:`ReplicaHost.fault <repro.core.host.ReplicaHost.fault>`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from .rng import RngRegistry
from .trace import Tracer

if TYPE_CHECKING:  # linkstate imports this module
    from .linkstate import Channel

#: Per-node delivery callback: ``handler(src, message)``.
MessageHandler = Callable[[int, object], None]


class TopicBus:
    """Minimal synchronous pub/sub: the simulator's and the live runtime's."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[Callable[..., None]]] = {}

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

        Handlers subscribed when the call starts are the ones invoked,
        whatever they subscribe or unsubscribe meanwhile.

        Returns:
            The number of handlers invoked.
        """
        handlers = self._subscribers.get(topic)
        if not handlers:
            return 0
        handlers = tuple(handlers)
        for handler in handlers:
            handler(**payload)
        return len(handlers)


class Runtime(ABC):
    """Facade handed to every protocol component: clock + transport +
    cross-cutting services.

    Attributes:
        transport: The :class:`~repro.port.linkstate.Channel` messages
            travel on.
        rng: Named deterministic RNG streams
            (:class:`~repro.port.rng.RngRegistry`).
        trace: Structured tracer (:class:`~repro.port.trace.Tracer`).
        demand_view: The deployment's one
            :class:`~repro.demand.views.DemandView` under oracle or
            snapshot knowledge, where every node believes the same; None
            until :func:`~repro.core.host.build_node_stack` sets it.
        histories: The deployment's one history per origin (a node id
            is built once, so ``(origin, seq)`` names one write), which
            every :class:`~repro.replica.log.WriteLog` reads up to its
            own tip; None until ``build_node_stack`` creates it.
    """

    transport: Channel
    rng: RngRegistry
    trace: Tracer
    demand_view: Any = None
    histories: Optional[Dict[int, List[Any]]] = None

    # -- clock ----------------------------------------------------------

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in protocol units."""

    @abstractmethod
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> object:
        """Run ``callback(*args)`` after ``delay``; returns a cancel handle."""

    @abstractmethod
    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> object:
        """Run ``callback(*args)`` at absolute ``time``."""

    @abstractmethod
    def cancel(self, handle: object) -> bool:
        """Cancel a scheduled callback; True if it was still pending."""

    def schedule_fast(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget ``callback(*args)`` after ``delay``.

        For periodic protocol activity that is never cancelled (session
        initiation timers, advertisement ticks): no cancel handle is
        returned, letting runtimes skip handle allocation. The default
        delegates to :meth:`schedule` and drops the handle; the
        simulation runtime overrides it with the kernel's trusted path.
        """
        self.schedule(delay, callback, *args)

    # -- pub/sub --------------------------------------------------------

    @abstractmethod
    def publish(self, topic: str, **payload: Any) -> int:
        """Synchronously deliver ``payload`` to subscribers of ``topic``."""

    @abstractmethod
    def subscribe(self, topic: str, handler: Callable[..., None]) -> None:
        """Register ``handler(**payload)`` for ``topic``."""

    @abstractmethod
    def unsubscribe(self, topic: str, handler: Callable[..., None]) -> None:
        """Remove a previously registered handler."""
