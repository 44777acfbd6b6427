"""The replica host: the protocol stacks of some nodes on one runtime.

Every world runs the protocol through one :class:`ReplicaHost`.  The
simulator's :class:`~repro.core.system.ReplicationSystem` is a host on a
:class:`~repro.sim.runtime.SimRuntime`; the queue cluster runs one
hosting every node, and each TCP node process one hosting its own node.
The host builds the stacks (:func:`build_node_stack`), gives each node
one slotted apply listener, applies every fault event itself
(:meth:`ReplicaHost.fault`) and sums the session counters; pumps, hub
links and simulator drive controls stay with the world that owns them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..demand.advertisement import DemandAdvertiser, bootstrap_tables
from ..demand.base import DemandModel
from ..demand.views import (
    DemandTable,
    DemandView,
    OracleDemandView,
    SnapshotDemandView,
    TableDemandView,
)
from ..errors import ConfigurationError, FaultError, ReplicationError
from ..port.base import MessageHandler, Runtime
from ..port.linkstate import PACKET_ACTIONS
from ..replica.log import MaxEntries, Update
from ..replica.server import NewUpdatesListener, ReplicaServer
from ..topology.graph import Topology
from .acking import AckManager
from .antientropy import SessionStats
from .config import (
    KNOWLEDGE_ADVERTISED,
    KNOWLEDGE_ORACLE,
    KNOWLEDGE_SNAPSHOT,
    ProtocolConfig,
)
from .policies import STOCHASTIC_POLICIES, make_policy
from .protocol import ReplicationNode

#: Topic published whenever any replica first absorbs updates.
TOPIC_UPDATE_APPLIED = "update.applied"

#: ``on_applied(node, updates, source)``: a hosted node applied ``updates``.
AppliedListener = Callable[[int, List[Update], str], None]

#: Packet-fault effect counters a host reports (see :meth:`ReplicaHost.packet_counts`).
PACKET_COUNTERS = ("corrupt_frames_dropped", "duplicates_suppressed", "reorders_applied")


def build_node_stack(
    runtime: Runtime,
    topology: Topology,
    demand: DemandModel,
    config: ProtocolConfig,
    node: int,
    tables: Optional[Dict[int, DemandTable]] = None,
    on_new_updates: Optional[NewUpdatesListener] = None,
) -> ReplicationNode:
    """Assemble one node's complete protocol stack on any runtime.

    Creates the replica server, demand view, partner-selection policy,
    optional advertiser / ack manager, and the
    :class:`~repro.core.protocol.ReplicationNode` that routes messages
    between them.  Everything is wired against the
    :class:`~repro.port.base.Runtime` port, so the identical stack
    runs inside the simulator and on a live asyncio deployment.

    Args:
        runtime: Execution world (clock, transport, RNG, trace).
        topology: The replica interconnection graph.
        demand: Demand model (nodes read their own true demand from it).
        config: Protocol variant switches.
        node: The node to build.
        tables: Shared per-node demand tables; required for
            ``"advertised"`` knowledge (missing entries are filled from
            current neighbour demand).
        on_new_updates: Optional listener registered on the server
            *before* the agents, so convergence trackers observe
            arrivals ahead of the fast-update re-push.
    """
    advertised = config.demand_knowledge == KNOWLEDGE_ADVERTISED
    truncation = None
    if config.log_truncation == "max-entries":
        truncation = MaxEntries(limit=config.max_log_entries)
    if runtime.histories is None:
        runtime.histories = {}
    server = ReplicaServer(
        node,
        truncation=truncation,
        default_payload_bytes=config.update_payload_bytes,
        history=runtime.histories,
    )
    if on_new_updates is not None:
        server.on_new_updates(on_new_updates)
    ack_manager = None
    if config.log_truncation == "acked":
        ack_manager = AckManager(runtime, server, topology.nodes)
    if advertised:
        if tables is None:
            raise ConfigurationError(
                "advertised demand knowledge needs a shared tables dict"
            )
        if node not in tables:
            # Late joiner (replica creation): seed its table from the
            # neighbours' current demand, as bootstrap_tables does at t=0.
            table = DemandTable()
            for neighbor in topology.neighbors(node):
                table.update(
                    neighbor,
                    demand.demand(neighbor, runtime.now),
                    runtime.now,
                )
            tables[node] = table
    view = _make_view(runtime, topology, demand, config, node, tables)
    policy_rng = None
    if config.partner_policy in STOCHASTIC_POLICIES:
        policy_rng = runtime.rng.stream("policy", node)
    policy = make_policy(config, view, policy_rng)
    advertiser = None
    if advertised:
        advertiser = DemandAdvertiser(
            runtime,
            runtime.transport,
            node,
            demand,
            tables[node],
            period=config.advert_period,
        )
    return ReplicationNode(
        runtime=runtime,
        server=server,
        config=config,
        policy=policy,
        view=view,
        own_demand=_OwnDemand(demand, node, runtime),
        advertiser=advertiser,
        ack_manager=ack_manager,
    )


class _OwnDemand:
    """``own_demand()`` of one node: its true demand right now.

    Two per-node callbacks are slotted objects like this one, not
    closures: a closure costs each node a function object, its defaults
    and its cells, which at 10^4 nodes is megabytes.
    """

    __slots__ = ("demand", "node", "runtime")

    def __init__(self, demand: DemandModel, node: int, runtime: Runtime):
        self.demand = demand
        self.node = node
        self.runtime = runtime

    def __call__(self) -> float:
        return self.demand.demand(self.node, self.runtime.now)


def _make_view(
    runtime: Runtime,
    topology: Topology,
    demand: DemandModel,
    config: ProtocolConfig,
    node: int,
    tables: Optional[Dict[int, DemandTable]],
) -> DemandView:
    """The demand view matching ``config.demand_knowledge``.

    Advertised beliefs are each node's own. Oracle and snapshot beliefs
    are the same at every node, so a deployment has one view of them: the
    first node builds it and leaves it on the runtime for the others.
    """
    knowledge = config.demand_knowledge
    if knowledge == KNOWLEDGE_ADVERTISED:
        return TableDemandView(tables[node])
    if runtime.demand_view is None:
        if knowledge == KNOWLEDGE_ORACLE:
            runtime.demand_view = OracleDemandView(demand, lambda: runtime.now)
        elif knowledge == KNOWLEDGE_SNAPSHOT:
            runtime.demand_view = SnapshotDemandView(
                demand, topology.nodes, at_time=0.0
            )
        else:
            raise ConfigurationError(f"unknown demand knowledge {knowledge!r}")
    return runtime.demand_view


class _AppliedAt:
    """One node's new-updates listener: tells its host's ``on_applied``
    which node applied."""

    __slots__ = ("on_applied", "node")

    def __init__(self, on_applied: AppliedListener, node: int):
        self.on_applied = on_applied
        self.node = node

    def __call__(self, updates: List[Update], source: str, sender) -> None:
        self.on_applied(self.node, updates, source)


class ReplicaHost:
    """The protocol stacks of the nodes hosted on one runtime.

    The simulator calls :meth:`build` then :meth:`start`; a live world
    boots it with :func:`~repro.runtime.nodeproc.boot_live`, which
    starts the transport's pumps in between.

    Args:
        runtime: The runtime the stacks run on; ``transport`` becomes
            its transport.
        transport: Carries the hosted nodes' messages; its link model and
            handler table are what faults mutate.
        topology: The replica interconnection graph.
        demand: The demand model (already wrapped by
            :func:`~repro.faults.process.prepare_demand` when shocks
            must land).
        config: Protocol variant switches.
        hosted: The node ids hosted here.
        on_applied: Called as ``on_applied(node, updates, source)`` for
            every batch of updates new to a hosted node; the
            simulator fills its apply-time matrix, a live world stamps
            and reports them
            (:func:`~repro.runtime.nodeproc.stamp_applies`).
    """

    def __init__(
        self,
        runtime: Runtime,
        transport,
        topology: Topology,
        demand: DemandModel,
        config: ProtocolConfig,
        hosted: Iterable[int],
        on_applied: AppliedListener,
    ):
        runtime.transport = transport
        self.runtime = runtime
        self.transport = transport
        self.topology = topology
        self.demand = demand
        self.config = config
        self.hosted = list(hosted)
        self.on_applied = on_applied
        self.nodes: Dict[int, ReplicationNode] = {}
        self.servers: Dict[int, ReplicaServer] = {}
        self.tables: Dict[int, DemandTable] = {}  # "advertised" knowledge only
        self.started = False
        #: Delivery handlers ``leave`` detached, until the node comes back.
        self.parked: Dict[int, MessageHandler] = {}

    def build(self) -> None:
        """Build the stack of every hosted node."""
        if self.config.demand_knowledge == KNOWLEDGE_ADVERTISED:
            # Warm start: §4 assumes nodes already know neighbour demand.
            self.tables = bootstrap_tables(self.transport, self.demand, at_time=0.0)
        for node in self.hosted:
            self.build_stack(node)

    def build_stack(self, node: int) -> ReplicationNode:
        """Build ``node``'s stack and register it here."""
        stack = build_node_stack(
            self.runtime,
            self.topology,
            self.demand,
            self.config,
            node,
            tables=self.tables,
            on_new_updates=_AppliedAt(self.on_applied, node),
        )
        self.nodes[node] = stack
        self.servers[node] = stack.server
        return stack

    def start(self) -> None:
        """Start every stack's periodic activity."""
        self.started = True
        for stack in self.nodes.values():
            stack.start()

    def fault(self, event: "FaultEvent") -> bool:
        """Apply one fault event here; False when it cannot take effect.

        Node, link, partition and packet actions mutate the transport's
        :class:`~repro.port.linkstate.LinkModel`; a shock multiplies the
        demand, when the model is shockable
        (:func:`~repro.faults.process.prepare_demand`).  ``leave``
        detaches the node's delivery handler and parks it here; the
        node's next ``node_up`` or ``join`` attaches it again, and a
        ``join`` of a hosted node with no handler attaches its stack's.
        Churn of a node hosted elsewhere only changes the link model.

        Raises:
            FaultError: If the action is not one of
                :data:`~repro.faults.schedule.ACTIONS`.
        """
        # Imported here, so a simulation without faults never loads
        # repro.faults.
        from ..faults import schedule

        action, args = event.action, event.args
        links = self.transport.links
        if action == schedule.ACTION_NODE_DOWN:
            links.set_node_down(args[0])
        elif action == schedule.ACTION_LEAVE:
            node = args[0]
            handler = self.transport.handler_for(node)
            if handler is not None:
                self.parked[node] = handler
            self.transport.detach(node)
            links.set_node_down(node)
        elif action in (schedule.ACTION_NODE_UP, schedule.ACTION_JOIN):
            node = args[0]
            handler = self.parked.pop(node, None)
            if handler is None and action == schedule.ACTION_JOIN and node in self.nodes:
                handler = self.transport.handler_for(node) or self.nodes[node].on_message
            if handler is not None:
                self.transport.attach(node, handler)
            links.set_node_up(node)
        elif action == schedule.ACTION_LINK_DOWN:
            links.set_link_down(args[0], args[1])
        elif action == schedule.ACTION_LINK_UP:
            links.set_link_up(args[0], args[1])
        elif action == schedule.ACTION_PARTITION:
            links.partition(args[0])
        elif action == schedule.ACTION_HEAL:
            links.heal_partition()
        elif action == schedule.ACTION_DEMAND_SHOCK:
            apply_shock = getattr(self.demand, "apply_shock", None)
            if apply_shock is None:
                return False
            apply_shock(args[0], args[1], at=self.runtime.now)
        elif action in PACKET_ACTIONS:
            # Duration rides last in every packet action's args.
            links.apply_packet_fault(action, args[:-1], args[-1], self.runtime.now)
        else:
            raise FaultError(f"unknown fault action {action!r}")
        return True

    def session_stats_total(self) -> Dict[str, int]:
        """Every anti-entropy session counter, summed over the stacks."""
        names = SessionStats.__slots__
        total = dict.fromkeys(names, 0)
        for stack in self.nodes.values():
            stats = stack.anti_entropy.stats
            for name in names:
                total[name] += getattr(stats, name)
        return total

    def packet_counts(self) -> Dict[str, int]:
        """The transport's packet-fault effect counters, by name."""
        counters = self.transport.counters
        return {name: getattr(counters, name) for name in PACKET_COUNTERS}

    def call(self, node: int, method: str, args: Sequence) -> object:
        """Serve one client call of a live world at hosted ``node``.

        ``put`` (args ``key, value``) returns ``(update, stamp)``, the
        stamp a ``time.monotonic()`` reading taken just before the
        write; ``read`` (args ``key``) returns the store entry;
        ``stats`` returns the sessions summed over the stacks and the
        live transport's traffic, handler errors and delivery counters.
        A put or read at a node an injected fault crashed raises
        :class:`ReplicationError`.
        """
        if method == "stats":
            return {
                "sessions": self.session_stats_total(),
                "traffic": self.transport.counters.snapshot(),
                "handler_errors": len(self.transport.handler_errors),
                "delivery": self.transport.delivery_stats(),
            }
        stack = self.nodes.get(node)
        if stack is None:
            raise ReplicationError(f"node {node} not started yet")
        if not self.transport.links.node_is_up(node):
            raise ReplicationError(f"node {node} is down (injected fault)")
        if method == "put":
            stamp = time.monotonic()
            return stack.server.local_write(*args), stamp
        if method == "read":
            return stack.server.read(*args)
        raise ReplicationError(f"unknown cluster call {method!r}")
