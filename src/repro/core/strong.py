"""Synchronous (strong-consistency) replication baseline.

The paper's introduction motivates weak consistency by the cost of
strong consistency: "costly, non-scalable on networks, not very
reliable, generate considerable latency and a great deal of traffic"
(§1). This module implements a minimal synchronous primary-copy scheme
so the `strongcost` benchmark can *measure* those claims instead of
quoting them:

* a client write at the origin floods a *prepare* wave down a BFS
  spanning tree, acks aggregate back up, and the write **commits only
  when every replica acked** — then a commit wave applies the value;
* write latency is therefore ~2 tree depths of link delay before the
  origin can even answer its client, versus zero for weak consistency;
* every write costs exactly ``3 * (N - 1)`` messages, versus the
  constant per-session cost of anti-entropy;
* any lost message stalls the whole write (a timeout marks it failed),
  which is the non-reliability claim.

The spanning tree is computed by the coordinator from global membership
(standard for 2PC-style systems); only data-plane messages are counted
as traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..errors import ConfigurationError, SimulationError
from ..replica.log import Update
from ..replica.server import ReplicaServer
from ..replica.timestamps import Timestamp
from ..sim.engine import Simulator
from ..sim.network import FixedLatency, LatencyModel, Network
from ..sim.runtime import SimRuntime
from ..topology.analysis import bfs_distances
from ..topology.graph import Topology

HEADER_BYTES = 20


class StrongPrepare(NamedTuple):
    """Prepare wave carrying the update body down the tree."""

    write_id: int
    update: Update

    kind = "strong-prepare"

    def size_bytes(self) -> int:
        return HEADER_BYTES + self.update.size_bytes()


class StrongAck(NamedTuple):
    """Aggregated acknowledgement travelling up the tree."""

    write_id: int
    sender: int

    kind = "strong-ack"

    def size_bytes(self) -> int:
        return HEADER_BYTES


class StrongCommit(NamedTuple):
    """Commit wave making the value visible everywhere."""

    write_id: int

    kind = "strong-commit"

    def size_bytes(self) -> int:
        return HEADER_BYTES


@dataclass
class _WriteState:
    """Coordinator-side state for one in-flight write."""

    write_id: int
    origin: int
    update: Update
    children: Dict[int, List[int]]
    parents: Dict[int, int]
    started_at: float
    pending: Dict[int, int] = field(default_factory=dict)
    committed_at: Optional[float] = None
    failed: bool = False


class StrongConsistencySystem:
    """A synchronous replication deployment over a topology.

    Use :meth:`write` to start a write; run the simulator; inspect
    :attr:`latencies`, :attr:`failed_writes` and the network counters.
    """

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        link_delay: float = 0.02,
        write_timeout: float = 10.0,
        loss: float = 0.0,
        sim: Optional[Simulator] = None,
    ):
        if not topology.is_connected():
            raise ConfigurationError("strong consistency needs a connected topology")
        if write_timeout <= 0:
            raise ConfigurationError("write_timeout must be positive")
        self.topology = topology
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.network = Network(
            self.sim,
            topology,
            latency=latency if latency is not None else FixedLatency(link_delay),
            loss=loss,
        )
        #: Runtime port adapter (clock + transport) used for all
        #: scheduling and sends, mirroring the weak-consistency stack.
        self.runtime = SimRuntime(self.sim, self.network)
        self.servers: Dict[int, ReplicaServer] = {}
        self.write_timeout = write_timeout
        self._writes: Dict[int, _WriteState] = {}
        self._next_write_id = 1
        self._next_seq: Dict[int, int] = {}
        self.latencies: List[float] = []
        self.failed_writes = 0
        for node in topology.nodes:
            self.servers[node] = ReplicaServer(node)
            self.runtime.transport.attach(node, self._make_handler(node))

    # -- write path -------------------------------------------------------

    def write(self, origin: int, key: str = "content", value: object = "v1") -> int:
        """Start a synchronous write at ``origin``; returns the write id."""
        if origin not in self.servers:
            raise SimulationError(f"unknown node {origin}")
        tree = self._spanning_tree(origin)
        children, parents = tree
        seq = self._next_seq.get(origin, 0) + 1
        self._next_seq[origin] = seq
        update = Update(
            origin=origin,
            seq=seq,
            timestamp=Timestamp(counter=seq, node=origin),
            key=key,
            value=value,
        )
        state = _WriteState(
            write_id=self._next_write_id,
            origin=origin,
            update=update,
            children=children,
            parents=parents,
            started_at=self.runtime.now,
        )
        self._next_write_id += 1
        self._writes[state.write_id] = state
        state.pending = {node: len(kids) for node, kids in children.items()}
        self.runtime.schedule(self.write_timeout, self._timeout, state.write_id)
        kids = children.get(origin, [])
        if not kids:
            self._commit(state)
            return state.write_id
        message = StrongPrepare(state.write_id, update)
        for child in kids:
            self.runtime.transport.send(origin, child, message)
        return state.write_id

    def _spanning_tree(
        self, root: int
    ) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
        """BFS children/parents maps rooted at ``root``."""
        distances = bfs_distances(self.topology, root)
        parents: Dict[int, int] = {}
        children: Dict[int, List[int]] = {node: [] for node in self.topology.nodes}
        for node in sorted(distances, key=lambda n: (distances[n], n)):
            if node == root:
                continue
            # Parent: any neighbour one hop closer (lowest id for determinism).
            candidates = [
                nbr
                for nbr in self.topology.neighbors(node)
                if distances.get(nbr, 1 << 30) == distances[node] - 1
            ]
            parent = min(candidates)
            parents[node] = parent
            children[parent].append(node)
        return children, parents

    # -- message handling --------------------------------------------------

    def _make_handler(self, node: int):
        def handler(src: int, message: object) -> None:
            if isinstance(message, StrongPrepare):
                self._on_prepare(node, message)
            elif isinstance(message, StrongAck):
                self._on_ack(node, message)
            elif isinstance(message, StrongCommit):
                self._on_commit(node, message)
            else:
                raise SimulationError(f"unexpected strong message {message!r}")

        return handler

    def _on_prepare(self, node: int, message: StrongPrepare) -> None:
        state = self._writes.get(message.write_id)
        if state is None or state.failed:
            return
        kids = state.children.get(node, [])
        if not kids:
            self.runtime.transport.send(node, state.parents[node], StrongAck(state.write_id, node))
            return
        for child in kids:
            self.runtime.transport.send(node, child, message)

    def _on_ack(self, node: int, message: StrongAck) -> None:
        state = self._writes.get(message.write_id)
        if state is None or state.failed:
            return
        state.pending[node] -= 1
        if state.pending[node] > 0:
            return
        if node == state.origin:
            self._commit(state)
        else:
            self.runtime.transport.send(node, state.parents[node], StrongAck(state.write_id, node))

    def _commit(self, state: _WriteState) -> None:
        state.committed_at = self.runtime.now
        self.latencies.append(state.committed_at - state.started_at)
        self.servers[state.origin].integrate([state.update], "session")
        for child in state.children.get(state.origin, []):
            self.runtime.transport.send(state.origin, child, StrongCommit(state.write_id))

    def _on_commit(self, node: int, message: StrongCommit) -> None:
        state = self._writes.get(message.write_id)
        if state is None or state.failed:
            return
        self.servers[node].integrate([state.update], "session")
        for child in state.children.get(node, []):
            self.runtime.transport.send(node, child, message)

    def _timeout(self, write_id: int) -> None:
        state = self._writes.get(write_id)
        if state is None or state.committed_at is not None:
            return
        state.failed = True
        self.failed_writes += 1

    # -- queries ------------------------------------------------------------

    def committed(self, write_id: int) -> bool:
        state = self._writes.get(write_id)
        return state is not None and state.committed_at is not None

    def expected_messages_per_write(self) -> int:
        """The analytic 3(N-1) cost: prepare + ack + commit per edge."""
        return 3 * (self.topology.num_nodes - 1)
