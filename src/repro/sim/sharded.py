"""Sharded simulation kernel: space-parallel conservative PDES.

A single event-heap kernel tops out near 10³-node topologies; this
module partitions the :class:`~repro.topology.graph.Topology` across
``k`` shard kernels and runs them in lock-stepped windows, the classic
conservative parallel-discrete-event-simulation recipe:

* **Partition** — nodes are split into contiguous BFS chunks
  (:func:`partition_topology`), keeping neighbourhoods together so most
  traffic stays shard-local.
* **Lookahead** — a message crossing shards takes at least ``L``, the
  minimum latency over cross-shard links (:func:`compute_lookahead`).
  Every shard can therefore safely execute all events in the half-open
  window ``[W, W+L)`` without hearing from the others: anything a peer
  sends during the window arrives at ``W+L`` or later.
* **Barrier exchange** — at each window boundary the coordinator
  collects every shard's outbox of cross-shard messages and injects
  them into the destination shards, sorted deterministically.

Determinism carries over because every stochastic protocol component
draws from per-node named RNG streams (:mod:`repro.sim.rng`) — a node's
stream is identical no matter which kernel hosts it. The two *shared*
stochastic mechanisms are therefore rejected up front: message loss and
jittered latency both consume a network-wide stream whose draw order
depends on global event interleaving.

Result identity with the single-process kernel is at the *metrics*
level — apply times, aggregated traffic counters and summed event
counts — asserted empirically by the test suite on deterministic
seeds. (Same-timestamp events on different shards may execute in a
different relative order than a single kernel's sequence numbers would
impose; on this protocol those collisions are metric-neutral.)

Shards run either in-process (``workers=None``, useful for testing and
small topologies) or on persistent worker processes via
:class:`repro.experiments.backends.ShardHostPool` (``workers="process"``),
where workers exchange cross-shard messages over a direct queue mesh
and the coordinator round carries only control data. The wall-clock
win at 10⁴ nodes needs >= ``shards`` physical cores; on fewer cores the
workers time-slice and the barrier overhead is pure loss. Each shard
tracks :attr:`ShardEngine.busy_seconds` — the max over shards is the
parallel critical path, what a sufficiently parallel machine would pay
per run — so benchmarks can report the headroom honestly either way.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from time import process_time

from ..errors import SimulationError
from .engine import Simulator
from .network import FixedLatency, LatencyModel, Network

#: One cross-shard message in flight: ``(arrival_time, src, dst, message)``.
Crossing = Tuple[float, int, int, object]

#: An update id as carried in watch bookkeeping.
Uid = Tuple[int, int]


# ---------------------------------------------------------------------------
# Partitioning and lookahead
# ---------------------------------------------------------------------------


def partition_topology(topology, shards: int) -> List[List[int]]:
    """Split nodes into ``shards`` contiguous BFS chunks, deterministically.

    BFS order from the smallest node id keeps neighbourhoods together,
    which minimises cross-shard edges (and with them barrier traffic);
    chunk sizes differ by at most one node.
    """
    if shards < 1:
        raise SimulationError(f"shard count must be >= 1, got {shards}")
    nodes = list(topology.nodes)
    if shards > len(nodes):
        raise SimulationError(
            f"cannot split {len(nodes)} nodes across {shards} shards"
        )
    order: List[int] = []
    seen: Set[int] = set()
    for root in sorted(nodes):
        if root in seen:
            continue
        seen.add(root)
        queue = deque((root,))
        while queue:
            node = queue.popleft()
            order.append(node)
            for neighbor in sorted(topology.neighbors(node)):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
    base, rem = divmod(len(order), shards)
    chunks: List[List[int]] = []
    at = 0
    for index in range(shards):
        size = base + (1 if index < rem else 0)
        chunks.append(order[at : at + size])
        at += size
    return chunks


def compute_lookahead(
    topology, owner: Dict[int, int], latency: LatencyModel
) -> Optional[float]:
    """Minimum one-way delay over cross-shard links, or None if none exist.

    ``None`` means the shards never talk (single shard, or a partition
    that happens to cut no edges) and windows may span the whole run.
    """
    lookahead = math.inf
    for a, b, weight in topology.edges():
        if owner[a] != owner[b]:
            delay = min(
                latency.delay(a, b, weight), latency.delay(b, a, weight)
            )
            if delay < lookahead:
                lookahead = delay
    if lookahead is math.inf:
        return None
    if lookahead <= 0.0:
        raise SimulationError(
            "sharded simulation needs positive cross-shard latency for "
            f"lookahead, got {lookahead}"
        )
    return lookahead


# ---------------------------------------------------------------------------
# Shard-local network
# ---------------------------------------------------------------------------


class ShardNetwork(Network):
    """One shard's view of the global network.

    Sends whose destination is shard-local ride the ordinary in-kernel
    delivery path; sends to a remote node are accounted identically
    (counters, traces, fault checks) but buffered in :attr:`outbox` for
    the coordinator to hand to the destination shard at the next window
    barrier. The destination shard delivers through its own
    :meth:`Network._deliver`, so per-shard traffic counters sum to
    exactly the single-kernel totals.
    """

    def __init__(
        self,
        sim: Simulator,
        topology,
        local_nodes: Sequence[int],
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
    ):
        super().__init__(sim, topology, latency=latency, loss=loss)
        self.local_nodes = frozenset(local_nodes)
        self.outbox: List[Crossing] = []

    def attach(self, node: int, handler) -> None:
        if node not in self.local_nodes:
            raise SimulationError(f"node {node} is not hosted on this shard")
        super().attach(node, handler)

    def send(self, src: int, dst: int, message: object) -> bool:
        if dst in self.local_nodes:
            return super().send(src, dst, message)
        # Mirror of Network.send up to delivery scheduling (keep the two
        # in sync): the remote leg must meter and validate exactly like
        # a local one so sharded counters stay bit-identical.
        if src == dst:
            raise SimulationError(f"node {src} sending to itself")
        message_type = message.__class__
        info = self._type_info.get(message_type)
        if info is None:
            from .network import message_kind

            info = (
                message_kind(message),
                callable(getattr(message_type, "size_bytes", None)),
            )
            self._type_info[message_type] = info
        kind, has_size = info
        from .network import message_size

        size = int(message.size_bytes()) if has_size else message_size(message)
        overlay = self._overlay.get(src)
        overlay_delay = overlay.get(dst) if overlay else None
        if overlay_delay is None:
            try:
                distance = self.topology.edge_weight(src, dst)
            except Exception:
                raise SimulationError(
                    f"no link {src}->{dst} (and no overlay)"
                ) from None
        self.counters.note_send(kind, size)
        trace = self.sim.trace
        if trace.wants("net.send"):
            trace.record(
                self.sim.now, "net.send", src=src, dst=dst, kind=kind, size=size
            )
        if not self._can_carry(src, dst):
            self._drop(src, dst, kind, "link-down")
            return False
        if self.loss and self._rng.random() < self.loss:
            self._drop(src, dst, kind, "loss")
            return True
        if overlay_delay is not None:
            delay = overlay_delay
        elif self._delay_with_size is not None:
            delay = self._delay_with_size(src, dst, distance, size)
        else:
            delay = self._delay_plain(src, dst, distance)
        self.outbox.append((self.sim.now + delay, src, dst, message))
        return True


# ---------------------------------------------------------------------------
# Shard engine (one shard's world; also the process-worker payload)
# ---------------------------------------------------------------------------


class ShardEngine:
    """One shard's complete world: kernel, network and local node stacks.

    Every constructor argument is picklable, so an engine can be built
    either in-process or inside a
    :class:`~repro.experiments.backends.ShardHostPool` worker from the
    same spec dict.
    """

    def __init__(
        self,
        topology,
        demand,
        config,
        seed: int,
        local_nodes: Sequence[int],
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
        index: int = 0,
    ):
        # Lazy imports: repro.core.system imports repro.sim.engine, so a
        # module-level import here would cycle through package init.
        from ..core.config import KNOWLEDGE_ADVERTISED
        from ..core.system import build_node_stack
        from ..demand.views import DemandTable
        from ..runtime.simulation import SimRuntime

        config.validate()
        self.index = index
        self.local_nodes = [int(n) for n in local_nodes]
        self.sim = Simulator(seed=seed)
        # Tracing in sharded mode would yield k partial traces with
        # kernel-local orderings; metrics are the supported output.
        self.sim.trace.disable()
        self.network = ShardNetwork(
            self.sim,
            topology,
            self.local_nodes,
            latency=latency,
            loss=loss,
        )
        self.runtime = SimRuntime(self.sim, self.network)
        self.servers: Dict[int, object] = {}
        self.nodes: Dict[int, object] = {}
        self._apply_times: Dict[Uid, Dict[int, float]] = {}
        self._watched: Set[Uid] = set()
        self._watch_hits: List[Tuple[Uid, int, float]] = []
        #: CPU seconds spent executing events (the shard's share of the
        #: parallel critical path; max over shards bounds the ideal
        #: multi-core runtime, independent of how many cores this run
        #: actually got).
        self.busy_seconds = 0.0
        tables = None
        if config.demand_knowledge == KNOWLEDGE_ADVERTISED:
            # Warm start for the local nodes only; each table depends
            # solely on the true neighbour demand at t=0, exactly as
            # bootstrap_tables computes it in the single kernel.
            tables = {}
            for node in self.local_nodes:
                table = DemandTable()
                for neighbor in topology.neighbors(node):
                    table.update(neighbor, demand.demand(neighbor, 0.0), 0.0)
                tables[node] = table
        for node in self.local_nodes:
            stack = build_node_stack(
                self.runtime,
                topology,
                demand,
                config,
                node,
                tables=tables,
                on_new_updates=lambda updates, source, sender, _node=node: (
                    self._record_applied(_node, updates)
                ),
            )
            self.servers[node] = stack.server
            self.nodes[node] = stack

    # -- convergence bookkeeping ---------------------------------------

    def _record_applied(self, node: int, updates) -> None:
        now = self.sim.now
        apply_times = self._apply_times
        watched = self._watched  # empty unless a convergence wait is armed
        for update in updates:
            uid = update.uid
            times = apply_times.get(uid)
            if times is None:
                times = apply_times[uid] = {}
            if node not in times:
                times[node] = now
                if watched and uid in watched:
                    self._watch_hits.append((uid, node, now))

    def watch(self, uid: Uid) -> List[Tuple[int, float]]:
        """Start reporting applications of ``uid``; returns prior ones."""
        uid = (int(uid[0]), int(uid[1]))
        self._watched.add(uid)
        return sorted(self._apply_times.get(uid, {}).items())

    def unwatch(self, uid: Uid) -> None:
        self._watched.discard((int(uid[0]), int(uid[1])))

    # -- driving --------------------------------------------------------

    def start(self) -> None:
        for stack in self.nodes.values():
            stack.start()

    def local_write(self, node: int, key: str = "content", value: object = "v1"):
        """Client write at a hosted node; returns the Update."""
        if node not in self.servers:
            raise SimulationError(f"node {node} is not hosted on this shard")
        return self.servers[node].local_write(key, value)

    def step_window(
        self, inbox: Sequence[Crossing], end: float, inclusive: bool = False
    ) -> Tuple[List[Crossing], Optional[float], List[Tuple[Uid, int, float]]]:
        """Inject ``inbox``, run events strictly below ``end``, report.

        With ``inclusive`` events at exactly ``end`` run too (the final
        pass at a horizon, mirroring the single kernel's inclusive
        ``run(until=...)``). Returns ``(outbox, next_event_time,
        watch_hits)``.
        """
        sim = self.sim
        deliver = self.network._deliver
        for arrival, src, dst, message in inbox:
            sim.schedule_at(arrival, deliver, src, dst, message)
        # One kernel drain per window, not per event: the shard pays
        # exactly the single kernel's per-event cost.  run() is
        # inclusive, so a half-open window stops one ulp short of end.
        started = process_time()
        sim.run(until=end if inclusive else math.nextafter(end, -math.inf))
        self.busy_seconds += process_time() - started
        if sim.now < end:
            sim.now = end
        outbox = self.network.outbox
        self.network.outbox = []
        hits = self._watch_hits
        self._watch_hits = []
        return outbox, self.next_time(), hits

    def next_time(self) -> Optional[float]:
        entry = self.sim._peek_live()
        return None if entry is None else entry[0]

    # -- results --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Everything the coordinator aggregates at collection time."""
        return {
            "apply_times": {
                uid: dict(times) for uid, times in self._apply_times.items()
            },
            "traffic": self.network.counters.snapshot(),
            "events_executed": self.sim.events_executed,
            "busy_seconds": self.busy_seconds,
            "now": self.sim.now,
        }


class ShardHost:
    """Worker-side wrapper: one engine plus the peer message mesh.

    Inside a :class:`~repro.experiments.backends.ShardHostPool` worker,
    cross-shard messages do not detour through the coordinator: each
    host puts its outbound batches straight onto the destination
    shards' inbound queues and drains exactly one batch per peer per
    window. Queue feeder threads make the puts non-blocking (no
    deadlock, and sender-side pickling overlaps the peers' compute);
    the coordinator only carries tiny control messages.

    Unknown method calls fall through to the engine, so the pool can
    drive ``start``/``watch``/``local_write``/``snapshot`` unchanged.
    """

    def __init__(self, engine: ShardEngine, owner: Dict[int, int], inbound, peers):
        self.engine = engine
        self.owner = owner
        self.inbound = inbound
        self.peers = peers  # shard index -> that shard's inbound queue
        self._pending: List[Crossing] = []
        self._window_id = 0

    def window(
        self, end: float, inclusive: bool = False
    ) -> Tuple[Optional[float], List[Tuple[Uid, int, float]]]:
        """Run one window; exchange crossings with peers directly.

        Returns ``(next_event_time, watch_hits)`` where the next time
        accounts for pending cross-shard arrivals.
        """
        self._window_id += 1
        error = None
        try:
            outbox, _, hits = self.engine.step_window(
                self._pending, end, inclusive
            )
        except BaseException as exc:  # still owe peers their batches
            outbox, hits = [], []
            error = exc
        self._pending = []
        batches: Dict[int, List[Crossing]] = {peer: [] for peer in self.peers}
        owner = self.owner
        for crossing in outbox:
            batches[owner[crossing[2]]].append(crossing)
        for peer, queue in self.peers.items():
            queue.put((self._window_id, batches[peer]))
        incoming: List[Crossing] = []
        for _ in range(len(self.peers)):
            window_id, batch = self.inbound.get(timeout=120)
            if window_id != self._window_id:
                raise SimulationError(
                    f"shard mesh desync: got window {window_id}, "
                    f"expected {self._window_id}"
                )
            incoming.extend(batch)
        if error is not None:
            raise error
        # Same sort as the serial coordinator: (arrival, src, dst) with
        # stable ties — equal keys can only come from one sender (the
        # src node pins the shard), whose batch order is preserved.
        incoming.sort(key=lambda crossing: crossing[:3])
        self._pending = incoming
        return self.next_time(), hits

    def next_time(self) -> Optional[float]:
        engine_next = self.engine.next_time()
        if self._pending:
            pending_next = self._pending[0][0]
            if engine_next is None or pending_next < engine_next:
                return pending_next
        return engine_next

    def __getattr__(self, name: str):
        return getattr(self.engine, name)


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


def _merge_traffic(snapshots: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Sum per-shard traffic counter snapshots."""
    total: Dict[str, object] = {
        "messages_sent": 0,
        "messages_delivered": 0,
        "messages_dropped": 0,
        "bytes_sent": 0,
        "corrupt_frames_dropped": 0,
        "duplicates_suppressed": 0,
        "reorders_applied": 0,
        "by_kind": {},
        "bytes_by_kind": {},
    }
    for snap in snapshots:
        for key in (
            "messages_sent",
            "messages_delivered",
            "messages_dropped",
            "bytes_sent",
            "corrupt_frames_dropped",
            "duplicates_suppressed",
            "reorders_applied",
        ):
            total[key] += snap[key]
        for key in ("by_kind", "bytes_by_kind"):
            merged = total[key]
            for kind, count in snap[key].items():
                merged[kind] = merged.get(kind, 0) + count
    return total


class ShardedSimulator:
    """Run one replicated system partitioned across ``k`` shard kernels.

    The constructor arguments mirror
    :class:`~repro.core.system.ReplicationSystem`; the driving API
    (:meth:`inject_write`, :meth:`run_until`,
    :meth:`run_until_replicated`, :meth:`apply_times`, :meth:`traffic`)
    is a drop-in subset, so experiment code can swap kernels by
    swapping the class.

    Args:
        topology: The replica interconnection graph (must be connected).
        demand: Demand model.
        config: Protocol variant switches.
        seed: Master seed; per-node RNG streams derive from it by name,
            so every shard kernel reproduces the single-kernel streams.
        shards: Number of partitions.
        latency: Optional deterministic latency model (default: fixed
            ``config.link_delay``). Jittered models are rejected — their
            shared RNG stream is draw-order dependent.
        workers: ``None``/"serial" hosts every shard in-process;
            ``"process"`` gives each shard a persistent worker process
            (:class:`~repro.experiments.backends.ShardHostPool`).
    """

    def __init__(
        self,
        topology,
        demand,
        config,
        seed: int = 0,
        shards: int = 2,
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
        workers: Optional[str] = None,
    ):
        config.validate()
        if loss:
            raise SimulationError(
                "sharded simulation requires loss=0: the loss draw consumes "
                "a network-wide RNG stream whose order depends on global "
                "event interleaving"
            )
        if latency is None:
            latency = FixedLatency(config.link_delay)
        if hasattr(latency, "_rng"):
            raise SimulationError(
                "sharded simulation requires a deterministic latency model "
                "(jitter consumes a shared RNG stream)"
            )
        if not topology.is_connected():
            raise SimulationError(
                "topology must be connected (weak consistency can only "
                "converge within a component)"
            )
        self.topology = topology
        self.shards = int(shards)
        self.partition = partition_topology(topology, self.shards)
        self._owner: Dict[int, int] = {
            node: index
            for index, part in enumerate(self.partition)
            for node in part
        }
        self.lookahead = compute_lookahead(topology, self._owner, latency)
        self._clock = 0.0
        self._inboxes: List[List[Crossing]] = [[] for _ in range(self.shards)]
        # Per-shard next-event time, refreshed by every window's results
        # so steady-state driving needs no extra control round; None
        # means stale (after start/inject) and forces one query.
        self._next_times: Optional[List[float]] = None
        self._watch_uid: Optional[Uid] = None
        self._watch_times: Dict[int, float] = {}
        specs = [
            dict(
                topology=topology,
                demand=demand,
                config=config,
                seed=seed,
                local_nodes=part,
                latency=latency,
                loss=loss,
                index=index,
            )
            for index, part in enumerate(self.partition)
        ]
        self._pool = None
        self._engines: Optional[List[ShardEngine]] = None
        if workers in (None, 0, 1, "serial"):
            self._engines = [ShardEngine(**spec) for spec in specs]
        elif workers == "process":
            from ..experiments.backends import ShardHostPool

            self._pool = ShardHostPool(specs, owner=self._owner)
        else:
            raise SimulationError(
                f"unknown workers mode {workers!r}; expected None, 'serial' "
                "or 'process'"
            )
        self._started = False

    # -- shard dispatch -------------------------------------------------

    def _call_all(self, method: str, args_per_shard=None, **kwargs) -> List[object]:
        if self._pool is not None:
            return self._pool.call_all(method, args_per_shard, **kwargs)
        out = []
        for index, engine in enumerate(self._engines):
            args = args_per_shard[index] if args_per_shard is not None else ()
            out.append(getattr(engine, method)(*args, **kwargs))
        return out

    def _call_one(self, shard: int, method: str, *args, **kwargs) -> object:
        if self._pool is not None:
            return self._pool.call_one(shard, method, *args, **kwargs)
        return getattr(self._engines[shard], method)(*args, **kwargs)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Start every node's periodic activity on every shard."""
        self._started = True
        self._next_times = None
        self._call_all("start")

    def close(self) -> None:
        """Shut down worker processes (no-op for in-process shards)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardedSimulator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- driving --------------------------------------------------------

    def shard_of(self, node: int) -> int:
        """Which shard hosts ``node``."""
        try:
            return self._owner[node]
        except KeyError:
            raise SimulationError(f"unknown node {node}") from None

    def inject_write(self, node: int, key: str = "content", value: object = "v1"):
        """Perform a client write at ``node`` right now."""
        self._next_times = None
        return self._call_one(self.shard_of(node), "local_write", node, key, value)

    def run_until(self, time: float) -> None:
        """Advance every shard to ``time`` (events at ``time`` included,
        matching the single kernel's inclusive ``run(until=...)``)."""
        self._advance(float(time))

    def run_until_replicated(
        self, uid: Uid, max_time: float = 100.0
    ) -> Optional[float]:
        """Run until ``uid`` reached every node; return that time.

        Returns None if ``max_time`` expires first. The early stop lands
        on a window boundary, so a few extra events beyond convergence
        may execute (converged-at itself is exact); fixed-horizon
        :meth:`run_until` runs are event-identical to the single kernel.
        """
        uid = (int(uid[0]), int(uid[1]))
        self._watch_uid = uid
        self._watch_times = {}
        for pairs in self._call_all("watch", [(uid,)] * self.shards):
            for node, time in pairs:
                self._watch_times[node] = time
        total = self.topology.num_nodes
        try:
            if len(self._watch_times) < total:
                self._advance(
                    float(max_time),
                    stop_check=lambda: len(self._watch_times) >= total,
                )
        finally:
            self._call_all("unwatch", [(uid,)] * self.shards)
            self._watch_uid = None
        if len(self._watch_times) >= total:
            return max(self._watch_times.values())
        return None

    def _advance(
        self, horizon: float, stop_check: Optional[Callable[[], bool]] = None
    ) -> None:
        lookahead = self.lookahead
        while True:
            upcoming = self._next_event_time()
            if math.isinf(upcoming) or upcoming > horizon:
                break
            start = upcoming if upcoming > self._clock else self._clock
            if lookahead is None:
                end = horizon
            else:
                end = start + lookahead
                if end > horizon:
                    end = horizon
            if end <= start:
                break  # only events at exactly `horizon` remain
            self._window(end, inclusive=False)
            if stop_check is not None and stop_check():
                return
        # Final inclusive pass picks up events at exactly `horizon`;
        # their sends arrive >= horizon + lookahead, beyond this run.
        self._window(horizon, inclusive=True)
        self._clock = horizon

    def _next_event_time(self) -> float:
        """Earliest pending event across shards (inboxes included)."""
        cached = self._next_times
        if cached is None:
            cached = [
                math.inf if time is None else time
                for time in self._call_all("next_time")
            ]
            if self._pool is None:
                # In-process engines do not see their coordinator-held
                # inboxes; worker hosts fold pending arrivals in
                # themselves.
                for index, inbox in enumerate(self._inboxes):
                    if inbox and inbox[0][0] < cached[index]:
                        cached[index] = inbox[0][0]
            self._next_times = cached
        return min(cached)

    def _note_hits(self, hits: Sequence[Tuple[Uid, int, float]]) -> None:
        watch_uid = self._watch_uid
        if watch_uid is None or not hits:
            return
        times = self._watch_times
        for uid, node, time in hits:
            if uid == watch_uid and node not in times:
                times[node] = time

    def _window(self, end: float, inclusive: bool) -> None:
        if self._pool is not None:
            # Worker hosts exchange crossings over their own mesh; the
            # control round only carries (next_time, watch_hits) back.
            results = self._pool.call_all(
                "window", [(end, inclusive)] * self.shards
            )
            self._next_times = [
                math.inf if next_time is None else next_time
                for next_time, _hits in results
            ]
            for _next_time, hits in results:
                self._note_hits(hits)
        else:
            results = self._call_all(
                "step_window",
                [(inbox, end, inclusive) for inbox in self._inboxes],
            )
            inboxes: List[List[Crossing]] = [[] for _ in range(self.shards)]
            for outbox, _next_time, hits in results:
                for crossing in outbox:
                    inboxes[self._owner[crossing[2]]].append(crossing)
                self._note_hits(hits)
            # Deterministic injection order: sort by (arrival, src, dst);
            # list.sort is stable, so same-key messages keep shard order.
            for inbox in inboxes:
                inbox.sort(key=lambda crossing: crossing[:3])
            self._inboxes = inboxes
            self._next_times = [
                min(
                    math.inf if next_time is None else next_time,
                    inboxes[index][0][0] if inboxes[index] else math.inf,
                )
                for index, (_outbox, next_time, _hits) in enumerate(results)
            ]
        self._clock = end

    # -- results --------------------------------------------------------

    def snapshots(self) -> List[Dict[str, object]]:
        """Raw per-shard snapshots (apply times, traffic, event counts)."""
        return self._call_all("snapshot")

    def apply_times(self, uid: Uid) -> Dict[int, float]:
        """First-application time per node for ``uid``, across shards."""
        uid = (int(uid[0]), int(uid[1]))
        merged: Dict[int, float] = {}
        for snap in self.snapshots():
            merged.update(snap["apply_times"].get(uid, {}))
        return merged

    def all_apply_times(self) -> Dict[Uid, Dict[int, float]]:
        """Apply times for every update, across shards."""
        merged: Dict[Uid, Dict[int, float]] = {}
        for snap in self.snapshots():
            for uid, times in snap["apply_times"].items():
                merged.setdefault(uid, {}).update(times)
        return merged

    def traffic(self) -> Dict[str, object]:
        """Aggregated traffic counters, summed over shards."""
        return _merge_traffic([snap["traffic"] for snap in self.snapshots()])

    @property
    def events_executed(self) -> int:
        """Total events executed across all shard kernels."""
        return sum(snap["events_executed"] for snap in self.snapshots())

    @property
    def now(self) -> float:
        """The coordinator clock (last completed window boundary)."""
        return self._clock
