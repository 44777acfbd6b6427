"""Per-node protocol stack composition.

A :class:`ReplicationNode` owns one replica's server and agents and
routes incoming network messages to the right agent. Which agents exist
depends on the :class:`~repro.core.config.ProtocolConfig`:

* always: an :class:`~repro.core.antientropy.AntiEntropyAgent`
  (the weak-consistency part every variant keeps);
* with ``config.fast_update``: a
  :class:`~repro.core.fastupdate.FastUpdateAgent`;
* with ``config.demand_knowledge == "advertised"``: a
  :class:`~repro.demand.advertisement.DemandAdvertiser`.

System-level wiring (building every node, attaching network handlers,
injecting writes) lives in :mod:`repro.core.system`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..demand.advertisement import DemandAdvert, DemandAdvertiser
from ..demand.views import DemandView, NeighborRanking
from ..errors import ReplicationError
from ..port.base import MessageHandler, Runtime
from ..replica.messages import (
    FastUpdateOffer,
    FastUpdatePayload,
    FastUpdateReply,
    SessionAbort,
    SessionBusy,
    SessionRequest,
    SummaryMessage,
    UpdateBatch,
)
from ..replica.server import ReplicaServer
from .antientropy import AntiEntropyAgent
from .config import ProtocolConfig
from .fastupdate import FastUpdateAgent
from .policies import PartnerSelectionPolicy

#: ``route(node, src, message)``: carries a delivered message to its handler.
Route = Callable[["ReplicationNode", int, object], None]


def _ignore_fast(node: "ReplicationNode", src: int, message: object) -> None:
    # A fast-capable peer pushed at us even though we run the plain
    # protocol; ignore rather than crash (mirrors a deployment
    # mixing versions).
    trace = node.runtime.trace
    if trace.wants("node.ignored-fast"):
        trace.record(node.runtime.now, "node.ignored-fast", node=node.node, src=src)


def _advert(node: "ReplicationNode", src: int, message: object) -> None:
    """Adverts at a node without an advertiser are silently dropped."""
    if node.advertiser is not None:
        node.advertiser.on_message(src, message)


# Message type -> route. A route is the same for every node, so nodes
# share these two tables instead of each holding a dict of its own bound
# methods. It reaches the handler through the node's agent as the
# message arrives, and so runs whatever the agent class defines at that
# moment (the benchmark's span tracer wraps the ``_handle_*`` methods on
# the classes before it builds a system).
_ROUTES: Dict[type, Route] = {
    SessionRequest: lambda n, src, m: n.anti_entropy._handle_request(src, m),
    SessionBusy: lambda n, src, m: n.anti_entropy._handle_busy(src, m),
    SummaryMessage: lambda n, src, m: n.anti_entropy._handle_summary(src, m),
    UpdateBatch: lambda n, src, m: n.anti_entropy._handle_batch(src, m),
    SessionAbort: lambda n, src, m: n.anti_entropy._handle_abort(src, m),
    FastUpdateOffer: lambda n, src, m: n.fast._handle_offer(src, m),
    FastUpdateReply: lambda n, src, m: n.fast._handle_reply(src, m),
    FastUpdatePayload: lambda n, src, m: n.fast._handle_payload(src, m),
    DemandAdvert: _advert,
}
_ROUTES_WITHOUT_FAST: Dict[type, Route] = {
    **_ROUTES,
    FastUpdateOffer: _ignore_fast,
    FastUpdateReply: _ignore_fast,
    FastUpdatePayload: _ignore_fast,
}


class ReplicationNode:
    """One node's complete protocol stack.

    Args:
        runtime: Owning runtime; the node attaches its dispatcher to
            ``runtime.transport``.
        server: The replica state machine.
        config: Protocol variant switches.
        policy: Partner-selection policy instance (node-local state),
            reading ``view`` where it reads demand.
        view: Believed demand of other nodes.
        own_demand: Callable returning this node's current true demand.
        advertiser: Optional demand advertiser (advertised knowledge).
    """

    __slots__ = ("runtime", "transport", "server", "config", "view", "node",
                 "ack_manager", "anti_entropy", "fast", "advertiser", "_routes",
                 "_started")

    def __init__(
        self,
        runtime: Runtime,
        server: ReplicaServer,
        config: ProtocolConfig,
        policy: PartnerSelectionPolicy,
        view: DemandView,
        own_demand: Callable[[], float],
        advertiser: Optional[DemandAdvertiser] = None,
        ack_manager=None,
    ):
        self.runtime = runtime
        self.transport = runtime.transport
        self.server = server
        self.config = config
        self.view = view
        self.node = server.node
        self.ack_manager = ack_manager
        self.anti_entropy = AntiEntropyAgent(
            runtime, server, config, policy, ack_manager=ack_manager
        )
        self.fast: Optional[FastUpdateAgent] = None
        if config.fast_update:
            # One ranking per node: a demand-ordered policy is one, so the
            # push reads the order partner selection keeps.
            ranking = (
                policy if isinstance(policy, NeighborRanking) else NeighborRanking(view)
            )
            self.fast = FastUpdateAgent(
                runtime, server, config, ranking, own_demand
            )
        self.advertiser = advertiser
        #: A shared table until something adds a route at this node,
        #: which then gets a copy of its own (:meth:`_add_route`).
        self._routes = _ROUTES if self.fast is not None else _ROUTES_WITHOUT_FAST
        self.transport.attach(self.node, self.on_message)
        self._started = False

    def start(self) -> None:
        """Start all periodic activity (sessions, advertisements)."""
        if self._started:
            raise ReplicationError(f"node {self.node} already started")
        self._started = True
        self.anti_entropy.start()
        if self.advertiser is not None:
            self.advertiser.start()

    def stop(self) -> None:
        """Stop all periodic activity (replica retirement).

        Idempotent; safe on a node that was never started. In-flight
        sessions are left to drain through their ordinary timeouts.
        """
        self.anti_entropy.stop()
        if self.advertiser is not None:
            self.advertiser.stop()

    def on_message(self, src: int, message: object) -> None:
        """Route a delivered message to the owning agent."""
        route = self._routes.get(message.__class__)
        if route is None:
            route = self._resolve_route(src, message)
        route(self, src, message)

    def route(self, message_type: type, handler: MessageHandler) -> None:
        """Deliver ``message_type`` at this node to ``handler(src, message)``.

        For components riding on the replication transport (the
        placement controller's three message types).
        """
        self._add_route(message_type, lambda _node, src, m: handler(src, m))

    def _add_route(self, message_type: type, route: Route) -> None:
        if self._routes is _ROUTES or self._routes is _ROUTES_WITHOUT_FAST:
            self._routes = dict(self._routes)
        self._routes[message_type] = route

    def _resolve_route(self, src: int, message: object) -> Route:
        """Slow path: a subclassed message type takes its base's route.

        The resolution is cached under the concrete type in this node's
        own table, so a subclass pays the walk once.
        """
        for base in message.__class__.__mro__[1:]:
            route = self._routes.get(base)
            if route is not None:
                self._add_route(message.__class__, route)
                return route
        raise ReplicationError(
            f"node {self.node}: unroutable message {message!r} from {src}"
        )

    def add_bridge_targets(self, peers) -> None:
        """Register overlay peers that always receive fast offers (§6)."""
        if self.fast is None:
            raise ReplicationError(
                "island bridges require fast_update to be enabled"
            )
        self.fast.extra_targets |= frozenset(int(p) for p in peers)
