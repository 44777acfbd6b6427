"""The runtime port: the narrow world-interface the protocol needs.

The replication protocol (anti-entropy sessions, fast-update pushes,
demand advertisements) is pure message-driven logic.  Everything it
needs from the outside world fits three small contracts:

* :class:`Clock` — read the current time, schedule/cancel callbacks;
* :class:`Transport` — send one-hop messages between nodes, register
  per-node delivery handlers, enumerate neighbours (links carry latency
  and may lose messages);
* :class:`Runtime` — the facade the protocol stack is actually handed:
  it *is* a clock, owns a transport, and hosts the cross-cutting
  services every deployment needs (named RNG streams, structured
  tracing, a topic bus);
* :class:`FaultInjector` — the actions a fault schedule can take
  against a running deployment (crash/recover a node, fail links,
  partition/heal, shock demand, churn).  One declarative
  :class:`~repro.faults.schedule.FaultSchedule` replays through any
  injector, which is what turns the fault subsystem into a chaos
  harness for the live runtimes.

Two adapters implement the port:

* :class:`repro.runtime.simulation.SimRuntime` binds the protocol to
  the discrete-event simulator — virtual time, bit-reproducible traces;
* :class:`repro.runtime.live.AsyncioRuntime` binds the same protocol
  code to real wall-clock time on one in-process event loop, which is
  what :class:`repro.runtime.cluster.ReplicaCluster` serves live client
  traffic on.

Both :class:`Clock` and :class:`Transport` are structural
(:mod:`typing` protocols): the existing
:class:`~repro.sim.engine.Simulator` and
:class:`~repro.sim.network.Network` satisfy them as-is, so simulation
code pays nothing for the boundary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # annotations only: the port imports no adapter's world
    from ..sim.rng import RngRegistry
    from ..sim.trace import Tracer

#: Per-node delivery callback: ``handler(src, message)``.
MessageHandler = Callable[[int, object], None]


@runtime_checkable
class Clock(Protocol):
    """Time source, one-shot scheduling, and seeded randomness.

    Times and delays are in protocol units (the paper's "session
    times"); an adapter maps them to virtual or wall-clock seconds.
    ``rng`` rides along because every scheduler client (session timers,
    workload arrivals, advert jitter) draws its gaps from named
    deterministic streams — a clock without it cannot host the
    protocol's periodic activity.
    """

    #: Named deterministic RNG streams (protocol components draw
    #: choices via ``rng.stream(name, *key)``, intervals via ``rng.draws``).
    rng: RngRegistry

    @property
    def now(self) -> float:
        """Current time in protocol units."""
        ...

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> object:
        """Run ``callback(*args)`` after ``delay``; returns a cancel handle."""
        ...

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> object:
        """Run ``callback(*args)`` at absolute ``time``; returns a handle."""
        ...

    def cancel(self, handle: object) -> bool:
        """Cancel a scheduled callback; True if it was still pending."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Node-to-node messaging along topology links.

    Links have per-hop latency (a :class:`~repro.sim.network.LatencyModel`)
    and may drop messages; every send is metered through ``counters``.
    Every transport in the tree is a
    :class:`~repro.runtime.linkstate.Channel`: one send path, whatever
    the world.
    """

    #: The link graph (``nodes`` / ``neighbors`` / ``has_edge`` /
    #: ``edge_weight``) the transport routes over.
    topology: Any

    #: Traffic meters (a :class:`~repro.runtime.linkstate.TrafficCounters`).
    counters: Any

    def send(self, src: int, dst: int, message: object) -> bool:
        """One-hop send; True if the message entered the channel."""
        ...

    def attach(self, node: int, handler: MessageHandler) -> None:
        """Register ``node``'s delivery callback (its ``on_message``)."""
        ...

    def detach(self, node: int) -> None:
        """Remove a node's handler; in-flight messages to it are dropped."""
        ...

    def handler_for(self, node: int) -> Optional[MessageHandler]:
        """The currently attached handler of ``node`` (None if detached)."""
        ...

    def neighbors(self, node: int) -> List[int]:
        """Peers reachable in one hop (physical plus overlay links)."""
        ...

    def physical_neighbors(self, node: int) -> Sequence[int]:
        """Topology neighbours only (partner-selection candidate set)."""
        ...


class TopicBus:
    """Minimal synchronous pub/sub, shared by non-simulator runtimes."""

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
        """Deliver ``payload`` to every subscriber; returns handler count."""
        handlers = self._subscribers.get(topic)
        if not handlers:
            return 0
        for handler in tuple(handlers):
            handler(**payload)
        return len(handlers)


class FaultInjector(ABC):
    """The fault-action port: what a schedule can do to a deployment.

    Each method applies one :class:`~repro.faults.schedule.FaultEvent`
    action.  Two adapters exist:

    * :class:`repro.faults.process.SystemFaultInjector` — mutates the
      :class:`~repro.runtime.linkstate.LinkModel` (and handler table)
      of a transport, whichever world it belongs to: the simulator, the
      in-process asyncio cluster, one node process of a TCP cluster;
    * :class:`repro.runtime.cluster.TcpBroadcastInjector` — the hub of a
      TCP cluster, which has no transport of its own and serialises
      each action to its node processes.

    Replay (deciding *when* each action fires) is separate: see
    :class:`repro.faults.process.FaultProcess` (virtual time) and
    :class:`repro.faults.process.FaultReplayer` (wall clock); both
    dispatch through :func:`repro.faults.process.apply_fault`.
    """

    @abstractmethod
    def crash_node(self, node: int) -> None:
        """Crash ``node``: it neither sends nor receives until recovered."""

    @abstractmethod
    def recover_node(self, node: int) -> None:
        """Bring a crashed ``node`` back."""

    @abstractmethod
    def set_link(self, a: int, b: int, up: bool) -> None:
        """Fail (``up=False``) or restore (``up=True``) the a-b link."""

    @abstractmethod
    def partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Split the network; messages only flow within a group."""

    @abstractmethod
    def heal(self) -> None:
        """Remove any active partition."""

    @abstractmethod
    def shock_demand(self, nodes: Sequence[int], factor: float) -> bool:
        """Multiply ``nodes``' demand by ``factor`` from now on.

        Returns False when the deployment cannot absorb shocks (demand
        model not shockable); the replay records the event as skipped.
        """

    def leave_node(self, node: int) -> None:
        """Churn out: crash ``node`` and park its delivery handler.

        Default: plain crash.  Injectors whose transport keeps per-node
        handlers override this to detach and park the handler so a later
        join restores delivery exactly as it was.
        """
        self.crash_node(node)

    def join_node(self, node: int) -> None:
        """Churn in: restore the handler (if parked) and recover."""
        self.recover_node(node)

    def packet_fault(
        self, action: str, params: Sequence[float], duration: float
    ) -> bool:
        """Open a windowed packet-level disturbance on the channel.

        ``action`` is one of the packet actions in
        :data:`repro.faults.schedule.PACKET_ACTIONS` (latency shock,
        reorder, duplicate, corrupt-frame); ``params`` are the event
        args without the trailing duration.  The window expires on its
        own after ``duration`` protocol units — there is no paired
        "undo" action.

        Returns False when the deployment cannot express packet faults
        (the default); the replay records the event as skipped, which
        is what the sim≡live parity assertions compare.
        """
        return False


class Runtime(ABC):
    """Facade handed to every protocol component: clock + transport +
    cross-cutting services.

    Attributes:
        transport: The :class:`Transport` messages travel on.
        rng: Named deterministic RNG streams
            (:class:`~repro.sim.rng.RngRegistry`).
        trace: Structured tracer (:class:`~repro.sim.trace.Tracer`).
        demand_view: The deployment's one
            :class:`~repro.demand.views.DemandView` under oracle or
            snapshot knowledge, where every node believes the same; None
            until :func:`~repro.core.system.build_node_stack` sets it.
        histories: The deployment's one history per origin (a node id
            is built once, so ``(origin, seq)`` names one write), which
            every :class:`~repro.replica.log.WriteLog` reads up to its
            own tip; None until ``build_node_stack`` creates it.
    """

    transport: Transport
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
