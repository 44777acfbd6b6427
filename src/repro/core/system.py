"""System builder: a whole simulated replicated system in one object.

:class:`ReplicationSystem` is the :class:`~repro.core.host.ReplicaHost`
of the discrete-event simulator: it builds a
:class:`~repro.sim.engine.Simulator`, a
:class:`~repro.sim.network.Network` and their
:class:`~repro.sim.runtime.SimRuntime`, hosts every node of a topology
there, and adds what only a simulation needs: the apply-time matrix,
:meth:`~ReplicationSystem.run_until_replicated`, replica creation and
retirement, write injection, and fault replay in virtual time
(:meth:`~ReplicationSystem.inject_faults`).  The live worlds run the
same host (:class:`repro.runtime.cluster.ReplicaCluster`).

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

from ..demand.base import DemandModel
from ..errors import ConfigurationError, SimulationError
from ..replica.log import Update, UpdateId
from ..sim.engine import Simulator
from ..sim.network import FixedLatency, LatencyModel, Network
from ..sim.runtime import SimRuntime
from ..topology.graph import Topology
from .config import ProtocolConfig
from .host import TOPIC_UPDATE_APPLIED, ReplicaHost
from .protocol import ReplicationNode

#: One apply-time cell of a node that has not applied the write.
_NOT_YET = array("d", [float("nan")])


class ReplicationSystem(ReplicaHost):
    """A complete simulated replicated system: every node hosted on one
    simulator.

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
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.network = Network(
            self.sim,
            topology,
            latency=latency if latency is not None else FixedLatency(config.link_delay),
            loss=loss,
        )
        super().__init__(
            SimRuntime(self.sim, self.network),
            self.network,
            topology,
            demand,
            config,
            topology.nodes,
            self._record_applied,
        )
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
        #: :class:`~repro.faults.process.FaultReplayer` that
        #: :meth:`inject_faults` armed.
        self.fault_process = None
        self.build()

    # -- construction ------------------------------------------------------

    def build_stack(self, node: int) -> ReplicationNode:
        """Build ``node``'s stack and give it an apply-time column."""
        replication_node = super().build_stack(node)
        self._columns[node] = width = len(self._last_applied)
        self._last_applied.append(0.0)
        if self._apply_rows:  # a late joiner's column: re-stride once
            old, self._apply_times = self._apply_times, array("d")
            for start in range(0, len(old), width):
                self._apply_times += old[start:start + width] + _NOT_YET
        return replication_node

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
                membership protocol, which is out of scope.
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
        replication_node = self.build_stack(new_node)
        if self.started:
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

    def inject_faults(self, schedule: "FaultSchedule") -> "FaultReplayer":
        """Replay ``schedule`` against this system in virtual time.

        Schedule times are absolute protocol times (the replay is
        anchored at time 0), so every event must still lie ahead.  Each
        fires with a priority that beats ordinary protocol events: a
        fault takes effect at its timestamp, before any message delivery
        or session timer due at the same instant.

        Raises:
            FaultError: If an event's time has already passed.
        """
        from ..faults.process import FaultReplayer

        return FaultReplayer(self.runtime, self.fault, schedule, anchor=0.0)

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
