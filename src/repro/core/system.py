"""System builder: a whole replicated system in one object.

:class:`ReplicationSystem` wires the full stack for every node of a
topology — transport, replica servers, demand views, policies, agents —
from one :class:`~repro.core.config.ProtocolConfig`, and exposes the
operations experiments need: inject a write, run until it is everywhere,
read convergence times.

The per-node assembly lives in :func:`build_node_stack`, which depends
only on the :class:`~repro.runtime.base.Runtime` port — the same
function wires nodes inside the discrete-event simulator (this class,
on :class:`~repro.runtime.simulation.SimRuntime`) and inside a live
wall-clock deployment
(:class:`~repro.runtime.cluster.ReplicaCluster`, on
:class:`~repro.runtime.live.AsyncioRuntime`).

``ReplicationSystem`` is the simulation entry point of the public API::

    from repro import ReplicationSystem, fast_consistency
    from repro.topology import internet_like
    from repro.demand import UniformRandomDemand

    topo = internet_like(50, seed=1)
    system = ReplicationSystem(
        topology=topo,
        demand=UniformRandomDemand(seed=1),
        config=fast_consistency(),
        seed=1,
    )
    system.start()
    update = system.inject_write(node=0)
    done_at = system.run_until_replicated(update.uid, max_time=50)

For serving live traffic on the same protocol code, see
:class:`repro.runtime.cluster.ReplicaCluster`.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..demand.advertisement import DemandAdvertiser, bootstrap_tables
from ..demand.base import DemandModel
from ..demand.views import (
    DemandTable,
    DemandView,
    OracleDemandView,
    SnapshotDemandView,
    TableDemandView,
)
from ..errors import ConfigurationError, SimulationError
from ..replica.log import MaxEntries, Update, UpdateId
from ..replica.server import NewUpdatesListener, ReplicaServer
from .acking import AckManager
from ..runtime.base import Runtime
from ..runtime.simulation import SimRuntime
from ..sim.engine import Simulator
from ..sim.network import FixedLatency, LatencyModel, Network
from ..topology.graph import Topology
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

#: One apply-time cell of a node that has not applied the write.
_NOT_YET = array("d", [float("nan")])


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
    :class:`~repro.runtime.base.Runtime` port, so the identical stack
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
    """One node's new-updates listener: tells the system who applied."""

    __slots__ = ("system", "node")

    def __init__(self, system: "ReplicationSystem", node: int):
        self.system = system
        self.node = node

    def __call__(self, updates: List[Update], source: str, sender) -> None:
        self.system._record_applied(self.node, updates, source)


class ReplicationSystem:
    """A complete simulated replicated system.

    Args:
        topology: The replica interconnection graph (must be connected).
        demand: Demand model (requests per session-time unit per node).
        config: Protocol variant; see :mod:`repro.core.variants`.
        seed: Master seed — two systems with equal arguments produce
            identical traces.
        latency: Optional latency model (default: fixed
            ``config.link_delay``).
        loss: Message loss probability.
        sim: Optionally reuse an existing simulator (advanced; e.g. to
            co-simulate other agents).
    """

    def __init__(
        self,
        topology: Topology,
        demand: DemandModel,
        config: ProtocolConfig,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
        sim: Optional[Simulator] = None,
    ):
        config.validate()
        if topology.num_nodes == 0:
            raise ConfigurationError("topology has no nodes")
        if not topology.is_connected():
            raise ConfigurationError(
                "topology must be connected (weak consistency can only "
                "converge within a component)"
            )
        self.topology = topology
        self.demand = demand
        self.config = config
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.network = Network(
            self.sim,
            topology,
            latency=latency if latency is not None else FixedLatency(config.link_delay),
            loss=loss,
        )
        #: The runtime port adapter every protocol component talks to.
        self.runtime = SimRuntime(self.sim, self.network)
        self.servers: Dict[int, ReplicaServer] = {}
        self.nodes: Dict[int, ReplicationNode] = {}
        self.tables: Dict[int, DemandTable] = {}
        #: Nodes decommissioned by :meth:`retire_replica`. They stay in
        #: the topology (ids are never reused) but no longer count
        #: toward convergence and generate no traffic.
        self.retired: Set[int] = set()
        #: First application of each write per node: row ``_apply_rows[uid]``
        #: (``len(_last_applied)`` cells), cell ``_columns[node]`` (from 1 in
        #: build order), NaN until then; cell 0 counts the filled cells.
        self._apply_times = array("d")
        self._apply_rows: Dict[UpdateId, int] = {}
        self._columns: Dict[int, int] = {}
        #: When each node last applied anything, by column (cell 0 unused).
        self._last_applied = array("d", [0.0])
        self._watch: Dict[UpdateId, Tuple[Set[int], float]] = {}
        #: Set by fault-aware assemblers (build_system, run_trial) to the
        #: installed :class:`~repro.faults.process.FaultProcess`.
        self.fault_process = None
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        advertised = self.config.demand_knowledge == KNOWLEDGE_ADVERTISED
        if advertised:
            # Warm start: §4 assumes nodes already know neighbour demand.
            self.tables = bootstrap_tables(self.network, self.demand, at_time=0.0)
        for node in self.topology.nodes:
            self._build_node(node)

    def _build_node(self, node: int) -> ReplicationNode:
        """Create the full stack for one node and register it."""
        replication_node = build_node_stack(
            self.runtime,
            self.topology,
            self.demand,
            self.config,
            node,
            tables=(
                self.tables
                if self.config.demand_knowledge == KNOWLEDGE_ADVERTISED
                else None
            ),
            on_new_updates=_AppliedAt(self, node),
        )
        self.servers[node] = replication_node.server
        self.nodes[node] = replication_node
        self._columns[node] = width = len(self._last_applied)
        self._last_applied.append(0.0)
        if self._apply_rows:  # a late joiner's column: re-stride once
            old, self._apply_times = self._apply_times, array("d")
            for start in range(0, len(old), width):
                self._apply_times += old[start:start + width] + _NOT_YET
        return replication_node

    def start(self) -> None:
        """Start every node's periodic activity."""
        self._started = True
        for node in self.nodes.values():
            node.start()

    # -- membership (replica creation, §7's Bayou policy family) -----------

    def add_replica(
        self,
        new_node: int,
        attach_to: Iterable[int],
        donor_policy: Optional["DonorSelectionPolicy"] = None,
        position: Optional[Tuple[float, float]] = None,
    ) -> int:
        """Create a new replica at runtime and bootstrap it from a donor.

        The new node is linked to ``attach_to``, a donor among them is
        chosen by ``donor_policy`` (default:
        :class:`repro.replica.creation.MostCompleteLog`), and the new
        node immediately runs a real anti-entropy session against the
        donor — the bootstrap flows through the ordinary protocol with
        full message/byte accounting.

        Returns the chosen donor's id.

        Raises:
            ConfigurationError: Under ``"acked"`` log truncation —
                ack-vector populations are fixed at construction time;
                changing membership safely needs Golding's group
                membership protocol, which is out of scope (DESIGN.md).
        """
        from ..replica.creation import DonorInfo, MostCompleteLog
        from ..topology.analysis import bfs_distances

        if self.config.log_truncation == "acked":
            raise ConfigurationError(
                "add_replica is not supported with acked truncation "
                "(fixed ack-vector population)"
            )
        attach = [int(n) for n in attach_to]
        if not attach:
            raise ConfigurationError("attach_to must name at least one node")
        for peer in attach:
            if peer not in self.servers:
                raise ConfigurationError(f"attach point {peer} does not exist")
            if peer in self.retired:
                raise ConfigurationError(f"attach point {peer} is retired")
        if new_node in self.servers:
            raise ConfigurationError(f"node {new_node} already exists")
        self.topology.add_node(new_node, position)
        for peer in attach:
            self.topology.add_edge(new_node, peer)
        replication_node = self._build_node(new_node)
        if getattr(self, "_started", False):
            replication_node.start()

        candidates: Dict[int, DonorInfo] = {}
        distances = bfs_distances(self.topology, new_node)
        for peer in attach:
            server = self.servers[peer]
            last_applied = self._last_applied[self._columns[peer]]
            candidates[peer] = DonorInfo(
                node=peer,
                total_writes=server.summary().total_writes(),
                log_length=len(server.log),
                hops=distances.get(peer, 1),
                staleness=self.runtime.now - last_applied,
                demand=self.demand.demand(peer, self.runtime.now),
            )
        policy = donor_policy if donor_policy is not None else MostCompleteLog()
        donor = policy.choose(candidates)
        replication_node.anti_entropy.initiate_with(donor)
        self.runtime.trace.record(
            self.runtime.now, "replica.created", node=new_node, donor=donor
        )
        return donor

    @property
    def active_nodes(self) -> Tuple[int, ...]:
        """Topology nodes minus retired replicas (insertion order)."""
        if not self.retired:
            return tuple(self.topology.nodes)
        return tuple(n for n in self.topology.nodes if n not in self.retired)

    def retire_replica(self, node: int, grace: Optional[float] = None) -> None:
        """Decommission a replica created with :meth:`add_replica`.

        The node's periodic activity stops, its network handler is
        detached (in-flight messages to it are dropped), and after a
        ``grace`` period — long enough for peers' in-flight sessions
        with it to time out — its links leave the topology so partner
        selection stops targeting it. The node id stays reserved; ids
        are never reused, which keeps event ordering deterministic.

        Raises:
            ConfigurationError: If the node is unknown, already
                retired, the last active replica, or if removing it
                would disconnect the remaining active replicas.
        """
        node = int(node)
        if node not in self.servers:
            raise ConfigurationError(f"unknown node {node}")
        if node in self.retired:
            raise ConfigurationError(f"node {node} already retired")
        remaining = [n for n in self.active_nodes if n != node]
        if not remaining:
            raise ConfigurationError("cannot retire the last active replica")
        if not self._connected_without(node, remaining):
            raise ConfigurationError(
                f"retiring node {node} would disconnect the active replicas"
            )
        self.retired.add(node)
        self.nodes[node].stop()
        self.network.links.set_node_down(node)
        self.network.detach(node)
        # The retired node no longer gates convergence watches.
        for uid in list(self._watch):
            remaining_watch, _ = self._watch[uid]
            remaining_watch.discard(node)
            if not remaining_watch:
                self._watch.pop(uid, None)
                self.runtime.stop()
        if grace is None:
            grace = self.config.session_timeout + 1.0
        self.runtime.schedule(grace, self._unlink_retired, node)
        self.runtime.trace.record(self.runtime.now, "replica.retired", node=node)

    def _connected_without(self, node: int, remaining: List[int]) -> bool:
        """Are the active nodes still one component if ``node`` leaves?"""
        active = set(remaining)
        seen = {remaining[0]}
        frontier = [remaining[0]]
        while frontier:
            current = frontier.pop()
            for neighbor in self.topology.neighbors(current):
                if neighbor in active and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(active)

    def _unlink_retired(self, node: int) -> None:
        """Remove a retired node's links once its sessions have drained."""
        for neighbor in list(self.topology.neighbors(node)):
            self.topology.remove_edge(node, neighbor)

    # -- write injection and convergence tracking ----------------------------

    def _record_applied(self, node: int, updates: List[Update], source: str) -> None:
        now = self.runtime.now
        times, rows = self._apply_times, self._apply_rows
        width = len(self._last_applied)
        column = self._columns[node]
        self._last_applied[column] = now
        watching = self._watch  # empty unless run_until_replicated is waiting
        for update in updates:
            uid = update.uid
            row = rows.get(uid)
            if row is None:
                row = rows[uid] = len(rows)
                times.extend(_NOT_YET * width)
                times[row * width] = 0.0
            cell = row * width + column
            if times[cell] != times[cell]:  # NaN: first application here
                times[cell] = now
                times[row * width] += 1.0
            if watching and uid in watching:
                remaining, _ = watching[uid]
                remaining.discard(node)
                if not remaining:
                    del watching[uid]
                    self.runtime.stop()
        self.runtime.publish(
            TOPIC_UPDATE_APPLIED,
            node=node,
            updates=updates,
            source=source,
            time=now,
        )

    def inject_write(
        self, node: int, key: str = "content", value: object = "v1"
    ) -> Update:
        """Perform a client write at ``node`` right now."""
        if node not in self.servers:
            raise SimulationError(f"unknown node {node}")
        return self.servers[node].local_write(key, value)

    def _row(self, uid: UpdateId) -> array:
        """A copy of the write's apply-time row (``_NOT_YET`` if untracked)."""
        row, width = self._apply_rows.get(uid), len(self._last_applied)
        if row is None:
            return _NOT_YET
        return self._apply_times[row * width:(row + 1) * width]

    def apply_times(self, uid: UpdateId) -> Dict[int, float]:
        """First-application time per node for a tracked update."""
        row = self._row(uid)
        return {node: at for node, at in zip(self._columns, row[1:]) if at == at}

    def nodes_with(self, uid: UpdateId) -> Set[int]:
        """Nodes that have absorbed ``uid`` so far."""
        return set(self.apply_times(uid))

    def all_have(self, uid: UpdateId) -> bool:
        if not self.retired:
            return self._row(uid)[0] == self.topology.num_nodes
        times = self.apply_times(uid)
        return all(n in times for n in self.active_nodes)

    # -- running ----------------------------------------------------------------

    def run_until(self, time: float) -> None:
        """Advance the simulation to ``time``."""
        self.runtime.run(until=time)

    def run_until_replicated(
        self, uid: UpdateId, max_time: float = 100.0
    ) -> Optional[float]:
        """Run until ``uid`` reached every node; return that time.

        Returns None if the horizon ``max_time`` expires first (the
        update may still be missing somewhere, e.g. under heavy loss).
        """
        missing = set(self.active_nodes) - self.nodes_with(uid)
        if not missing:
            times = self.apply_times(uid)
            return max(times.values()) if times else None
        self._watch[uid] = (missing, max_time)
        self.runtime.run(until=max_time)
        self._watch.pop(uid, None)
        if self.all_have(uid):
            return max(self.apply_times(uid).values())
        return None

    # -- reporting helpers ----------------------------------------------------------

    def demand_snapshot(self, time: Optional[float] = None) -> Dict[int, float]:
        """True demand of every node at ``time`` (default: now)."""
        at = self.runtime.now if time is None else time
        return self.demand.snapshot(self.topology.nodes, at)

    def traffic(self) -> Dict[str, object]:
        """Measured traffic counters (messages/bytes, per kind)."""
        return self.network.counters.snapshot()

    def session_stats_total(self) -> Dict[str, int]:
        """Aggregate anti-entropy counters over all nodes."""
        total: Dict[str, int] = {}
        for node in self.nodes.values():
            stats = node.anti_entropy.stats
            for field_name in (
                "initiated",
                "completed_initiator",
                "completed_responder",
                "refused_received",
                "refused_sent",
                "timeouts",
                "updates_sent",
                "updates_received",
            ):
                total[field_name] = total.get(field_name, 0) + getattr(
                    stats, field_name
                )
        return total
