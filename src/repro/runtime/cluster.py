"""ReplicaCluster: serve live client traffic on the replication protocol.

A cluster of replicas running the paper's protocol on the wall-clock
:class:`~repro.runtime.live.AsyncioRuntime`, in one of two transports:

* ``transport="queue"`` (default) — every node's protocol stack lives
  on one event loop on a background thread, exchanging messages through
  the transport's in-process delivery heap;
* ``transport="tcp"`` — one OS process per node, each hosting its
  replica on a :class:`~repro.runtime.tcp.TcpTransport` over real
  sockets.  The parent runs a nameserver-style *hub*: node processes
  bind an ephemeral port, register it, receive the full directory, and
  start.  Client calls, fault actions, and replication reports travel
  as length-prefixed control frames.

Callers on any thread interact through a synchronous client API::

    from repro.runtime import ReplicaCluster

    with ReplicaCluster(nodes=16, seed=1, time_scale=0.05) as cluster:
        update = cluster.put("greeting", "hello", node=0)
        cluster.wait_replicated(update.uid, timeout=10.0)
        print(cluster.get("greeting", node=7))   # 'hello', everywhere
        print(cluster.stats()["traffic"]["messages_sent"])

``put`` performs the client write at one replica and returns
immediately (weak consistency: the write propagates via fast-update
pushes and anti-entropy sessions); ``wait_replicated`` blocks until
every replica has absorbed it.  ``time_scale`` compresses protocol
time: 0.05 runs one session-time unit in 50 ms of wall clock.

Chaos: the same declarative
:class:`~repro.faults.schedule.FaultSchedule` the simulator replays
runs against a live cluster — pass ``faults=schedule`` to arm it at
boot, or call :meth:`ReplicaCluster.inject_faults` on a running
cluster.  In queue mode the same
:class:`~repro.faults.process.SystemFaultInjector` the simulator uses
drives the in-process transport's link model; in tcp mode a
:class:`TcpBroadcastInjector` broadcasts each action to every node
process, each of which applies it through its own such injector.  Packet-level actions (latency shocks, reordering,
duplication, frame corruption) ride the same port.  With
``control_port`` set (any mode), external clients — the ``repro
chaos`` CLI — can connect and inject schedules over a socket,
authenticated by a shared ``token`` when one is set.

The tcp hub itself is no single point of failure: ``standby_hubs``
extra listeners are bound at boot, node processes carry the full
ordered hub list, and :meth:`ReplicaCluster.kill_hub` (or a
``kill-hub`` control frame) takes the primary down mid-traffic as a
survivable, scheduled-fault-grade event.
"""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import itertools
import threading
import time
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..core.config import KNOWLEDGE_ADVERTISED, ProtocolConfig
from ..core.protocol import ReplicationNode
from ..core.system import build_node_stack
from ..core.variants import fast_consistency
from ..demand.advertisement import bootstrap_tables
from ..demand.base import DemandModel
from ..demand.static import UniformRandomDemand
from ..errors import ConfigurationError, ReplicationError, ReproError
from ..faults.process import FaultReplayer, SystemFaultInjector, prepare_demand
from ..faults.schedule import (
    ACTION_DEMAND_SHOCK,
    ACTION_HEAL,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_LINK_DOWN,
    ACTION_LINK_UP,
    ACTION_NODE_DOWN,
    ACTION_NODE_UP,
    ACTION_PARTITION,
    FaultSchedule,
)
from ..replica.log import Update, UpdateId
from ..replica.server import ReplicaServer
from ..replica.store import StoreEntry
from ..sim.network import LatencyModel
from ..telemetry.registry import MetricRegistry
from ..topology.graph import Topology
from .base import FaultInjector
from .live import AsyncioRuntime, AsyncioTransport
from .nodeproc import NodeSpec, node_process_main
from .tcp import DEFAULT_MAX_FRAME_BYTES, FrameDecoder, encode_frame, read_frames

#: Default wall-clock seconds per protocol time unit (20 units/second).
DEFAULT_TIME_SCALE = 0.05

#: Ceiling on cross-thread control calls (put/get/stats plumbing).
_CALL_TIMEOUT = 30.0

#: Ceiling on tcp-mode boot (spawn + register + ready handshake).
_BOOT_TIMEOUT = 60.0

#: Default bound on per-update tracking state (see ``track_limit``).
DEFAULT_TRACK_LIMIT = 4096


class TcpBroadcastInjector(FaultInjector):
    """Fault-injector over a tcp-mode cluster: broadcast every action.

    Each node process holds its own link model; broadcasting
    the action to all of them keeps sender-side refusals (crashed peer,
    failed link, partition boundary) consistent without shared memory.
    Must run on the hub's loop thread (it writes to the node control
    channels).
    """

    def __init__(self, cluster: "ReplicaCluster"):
        self.cluster = cluster

    def _broadcast(self, action: str, args: Tuple) -> None:
        frame = encode_frame(("fault", action, tuple(args)))
        for writer in self.cluster._node_writers.values():
            try:
                writer.write(frame)
            except (ConnectionError, OSError):
                pass  # a dead node process cannot be injured further

    def crash_node(self, node: int) -> None:
        self._broadcast(ACTION_NODE_DOWN, (int(node),))

    def recover_node(self, node: int) -> None:
        self._broadcast(ACTION_NODE_UP, (int(node),))
        self.cluster._note_heal()

    def set_link(self, a: int, b: int, up: bool) -> None:
        action = ACTION_LINK_UP if up else ACTION_LINK_DOWN
        self._broadcast(action, (int(a), int(b)))
        if up:
            self.cluster._note_heal()

    def partition(self, groups: Sequence[Sequence[int]]) -> None:
        frozen = tuple(tuple(int(n) for n in group) for group in groups)
        self._broadcast(ACTION_PARTITION, (frozen,))

    def heal(self) -> None:
        self._broadcast(ACTION_HEAL, ())
        self.cluster._note_heal()

    def shock_demand(self, nodes: Sequence[int], factor: float) -> bool:
        if not self.cluster._has_shocks:
            # The node processes built their demand unwrapped; the
            # shock cannot take effect anywhere.
            return False
        self._broadcast(
            ACTION_DEMAND_SHOCK,
            (tuple(int(n) for n in nodes), float(factor)),
        )
        return True

    def packet_fault(self, action, params, duration) -> bool:
        self._broadcast(
            action, tuple(float(p) for p in params) + (float(duration),)
        )
        return True

    def leave_node(self, node: int) -> None:
        self._broadcast(ACTION_LEAVE, (int(node),))

    def join_node(self, node: int) -> None:
        self._broadcast(ACTION_JOIN, (int(node),))


class ReplicaCluster:
    """A live, queryable cluster of replicas over asyncio.

    Args:
        topology: Replica interconnection graph; default is a
            BRITE-style ``internet_like(nodes)`` graph.
        nodes: Node count used when no topology is given.
        config: Protocol variant (default: the paper's
            :func:`~repro.core.variants.fast_consistency`).
        demand: Demand model steering partner selection and pushes
            (default: ``UniformRandomDemand(seed=seed)``).
        seed: Master seed for the protocol's RNG streams.
        time_scale: Wall-clock seconds per protocol time unit.
        latency: Per-link latency model, in protocol units.
        loss: Message loss probability.
        track_limit: At most this many *fully replicated* updates keep
            their apply-time/latency records; older ones are evicted so
            a long-lived cluster's tracking state stays bounded
            (``wait_replicated`` on an evicted update still returns
            immediately for waiters already holding its event, but
            :meth:`apply_times` / :meth:`replication_latency` return
            empty/None for it).
        transport: ``"queue"`` (in-process, default) or ``"tcp"``
            (one OS process per node over real sockets).
        faults: Optional :class:`FaultSchedule` armed at :meth:`start`
            (schedule time 0 = boot); also enables demand shocks.
        control_port: When set, a control socket accepting ``repro
            chaos`` clients is opened on this port (0 = ephemeral; the
            bound address is :attr:`control_address`).  tcp mode always
            opens one — it doubles as the node-process hub.
        host: Interface the hub/control socket (and tcp node ports)
            bind to.
        standby_hubs: tcp mode only — how many *standby* hub listeners
            to open beyond the primary (default 1, making the hub no
            single point of failure: nodes carry the full ordered hub
            list and fail over to a standby when their hub connection
            dies).  With an explicit ``control_port`` the standbys bind
            ``control_port + 1 .. control_port + standby_hubs``;
            ephemeral otherwise.  All bound hubs are listed in
            :attr:`hub_addresses` (primary first).  Ignored in queue
            mode.
        token: Shared control-plane secret.  When set, every control
            connection (chaos clients *and* node processes) must send
            an ``("auth", token)`` frame before anything else; other
            frames from unauthenticated connections are refused with a
            one-line ``("error", ...)`` reply.

    Use as a context manager, or call :meth:`start` / :meth:`close`.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        *,
        nodes: int = 8,
        config: Optional[ProtocolConfig] = None,
        demand: Optional[DemandModel] = None,
        seed: int = 0,
        time_scale: float = DEFAULT_TIME_SCALE,
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
        track_limit: int = DEFAULT_TRACK_LIMIT,
        transport: str = "queue",
        faults: Optional[FaultSchedule] = None,
        control_port: Optional[int] = None,
        host: str = "127.0.0.1",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        standby_hubs: int = 1,
        token: Optional[str] = None,
    ):
        if standby_hubs < 0:
            raise ConfigurationError(
                f"standby_hubs must be >= 0, got {standby_hubs}"
            )
        if track_limit < 1:
            raise ConfigurationError(
                f"track_limit must be >= 1, got {track_limit}"
            )
        if transport not in ("queue", "tcp"):
            raise ConfigurationError(
                f"transport must be 'queue' or 'tcp', got {transport!r}"
            )
        if topology is None:
            from ..topology.brite import internet_like

            topology = internet_like(nodes, seed=seed)
        if topology.num_nodes == 0:
            raise ConfigurationError("topology has no nodes")
        if not topology.is_connected():
            raise ConfigurationError("cluster topology must be connected")
        self.topology = topology
        self.config = (config if config is not None else fast_consistency()).validate()
        self._mode = transport
        self._faults = faults.validate() if faults is not None else None
        self._has_shocks = (
            self._faults is not None and self._faults.has_demand_shocks()
        )
        base_demand = demand if demand is not None else UniformRandomDemand(seed=seed)
        #: The unwrapped model; tcp node processes wrap their own copy.
        self._base_demand = base_demand
        if self._mode == "queue":
            self.demand = prepare_demand(base_demand, self._faults)
        else:
            self.demand = base_demand
        self.seed = int(seed)
        self.loss = float(loss)
        self._latency = latency
        self.runtime = AsyncioRuntime(seed=seed, time_scale=time_scale)
        self.transport: Optional[AsyncioTransport] = None
        self.nodes: Dict[int, ReplicationNode] = {}
        self.servers: Dict[int, ReplicaServer] = {}

        self._n = topology.num_nodes
        self._node_ids: List[int] = sorted(int(n) for n in topology.nodes)
        self._node_set = set(self._node_ids)
        self._lock = threading.Lock()
        self._track_limit = int(track_limit)
        self._apply_times: Dict[UpdateId, Dict[int, float]] = {}
        self._put_times: Dict[UpdateId, float] = {}
        self._replicated: Dict[UpdateId, threading.Event] = {}
        #: Fully replicated uids in completion order (eviction queue).
        self._completed_order: Deque[UpdateId] = collections.deque()
        #: Per-origin highest sequence number ever evicted; lets
        #: wait_replicated answer True for evicted updates without
        #: keeping per-uid state (bounded by the node count).
        self._evicted_seq: Dict[int, int] = {}
        self._completed_total = 0
        self._puts = 0
        self._gets = 0
        self._client_rng = self.runtime.rng.stream("cluster-client")

        # -- telemetry ---------------------------------------------------
        #: Shared-schema metrics (see :mod:`repro.telemetry`): counters
        #: for ops, moments + sketch for put-to-replicated seconds.
        #: Guarded by ``self._lock`` like the rest of the tracking state.
        self.telemetry = MetricRegistry()
        self._latency_moments = self.telemetry.moments(
            "cluster.replication_latency", transport=transport
        )
        self._latency_sketch = self.telemetry.sketch(
            "cluster.replication_latency.sketch", transport=transport
        )
        self._puts_counter = self.telemetry.counter(
            "cluster.puts", transport=transport
        )
        self._gets_counter = self.telemetry.counter(
            "cluster.gets", transport=transport
        )
        self._replicated_counter = self.telemetry.counter(
            "cluster.updates_replicated", transport=transport
        )
        #: Packet-fault effect counters, synced into the registry at
        #: snapshot time: queue mode reads the in-process transport's
        #: traffic counters, tcp mode folds the per-node counts the
        #: node processes push as ``packet`` frames.
        self._packet_counters = {
            name: self.telemetry.counter(
                f"cluster.packet.{name}", transport=transport
            )
            for name in (
                "corrupt_frames_dropped",
                "duplicates_suppressed",
                "reorders_applied",
            )
        }
        self._packet_counts: Dict[int, Dict[str, int]] = {}
        #: time.monotonic() of the most recent healing fault action and
        #: of the most recent full replication — their difference is the
        #: post-heal convergence time a chaos report wants.
        self._last_heal_mono: Optional[float] = None
        self._last_completion_mono: Optional[float] = None

        self._thread: Optional[threading.Thread] = None
        self._loop = None
        self._stop_event = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._closed = False
        #: Cross-thread call futures still awaiting a result; a closing
        #: cluster fails them with ReplicationError instead of letting
        #: callers hang until the call timeout.
        self._pending_calls: Set["concurrent.futures.Future"] = set()

        # -- chaos state ------------------------------------------------
        self._injector: Optional[FaultInjector] = None
        self._replayers: List[FaultReplayer] = []

        # -- tcp-mode state ---------------------------------------------
        self._host = host
        self._control_port = control_port
        self._max_frame_bytes = int(max_frame_bytes)
        self._standby_hubs = int(standby_hubs)
        self._token = token
        self.control_address: Optional[Tuple[str, int]] = None
        #: All bound hub listener addresses, primary first; node specs
        #: carry this list so children can fail over.
        self.hub_addresses: List[Tuple[str, int]] = []
        #: Listener per hub slot; a killed hub leaves None in its slot.
        self._hub_servers: List[object] = []
        #: Accepted control connections per hub slot, so killing a hub
        #: severs established channels too, not just the listener.
        self._hub_conn_writers: Dict[int, Set[object]] = {}
        self._control_server = None
        self._control_tasks: Set[object] = set()
        self._control_errors: List[str] = []
        self._processes: Dict[int, object] = {}
        self._node_writers: Dict[int, object] = {}
        self._node_addresses: Dict[int, Tuple[str, int]] = {}
        self._ready_nodes: Set[int] = set()
        self._all_registered = None
        self._all_ready = None
        self._tcp_pending: Dict[int, "concurrent.futures.Future"] = {}
        self._call_counter = itertools.count(1)
        #: time.monotonic() at boot completion: the zero point used to
        #: convert cross-process apply stamps into protocol units.
        self._mono_anchor: Optional[float] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ReplicaCluster":
        """Boot the event-loop thread and every replica; returns self."""
        if self._thread is not None:
            raise ReplicationError("cluster already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-cluster", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._boot_error is not None:
            self._thread.join()
            self._thread = None
            self._reap_processes()
            raise self._boot_error
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop the cluster and join the loop thread (idempotent).

        Client calls racing a concurrent ``close()`` fail with
        :class:`ReplicationError` instead of running on a dead loop;
        calls already in flight when the loop stops are failed the same
        way rather than left hanging until their timeout.
        """
        with self._lock:
            already = self._closed or self._thread is None
            self._closed = True
        if already:
            return
        loop = self._loop
        if loop is not None and loop.is_running() and self._stop_event is not None:
            loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)
        self._reap_processes()
        self._fail_pending_calls()

    def __enter__(self) -> "ReplicaCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _thread_main(self) -> None:
        import asyncio

        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        import asyncio

        try:
            self.runtime.start()
            if self._mode == "tcp":
                await self._boot_tcp()
            else:
                self._boot_queue()
                if self._control_port is not None:
                    await self._open_control_server(self._control_port)
            if self._faults is not None:
                self._arm_replayer(self._faults)
            self._stop_event = asyncio.Event()
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._boot_error = exc
            await self._shutdown_runtime()
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self._shutdown_runtime()

    def _boot_queue(self) -> None:
        self.transport = AsyncioTransport(
            self.runtime,
            self.topology,
            latency=self._latency,
            loss=self.loss,
        )
        self.runtime.transport = self.transport
        tables = None
        if self.config.demand_knowledge == KNOWLEDGE_ADVERTISED:
            tables = bootstrap_tables(self.transport, self.demand, at_time=0.0)
        for node in self.topology.nodes:
            stack = build_node_stack(
                self.runtime,
                self.topology,
                self.demand,
                self.config,
                node,
                tables=tables,
                on_new_updates=(
                    lambda updates, source, sender, _node=node: (
                        self._record_applied(_node, updates)
                    )
                ),
            )
            self.nodes[node] = stack
            self.servers[node] = stack.server
        self.transport.start_pumps()
        for stack in self.nodes.values():
            stack.start()

    async def _boot_tcp(self) -> None:
        import asyncio
        import multiprocessing

        self._all_registered = asyncio.Event()
        self._all_ready = asyncio.Event()
        await self._open_control_server(self._control_port or 0)
        context = multiprocessing.get_context("spawn")
        for node in self._node_ids:
            spec = NodeSpec(
                node=node,
                topology=self.topology,
                demand=self._base_demand,
                config=self.config,
                seed=self.seed,
                time_scale=self.runtime.time_scale,
                hub_addresses=tuple(self.hub_addresses),
                latency=self._latency,
                loss=self.loss,
                has_shocks=self._has_shocks,
                max_frame_bytes=self._max_frame_bytes,
                host=self._host,
                token=self._token,
            )
            process = context.Process(
                target=node_process_main, args=(spec,), daemon=True
            )
            process.start()
            self._processes[node] = process
        try:
            await asyncio.wait_for(
                self._all_registered.wait(), timeout=_BOOT_TIMEOUT
            )
        except asyncio.TimeoutError:
            raise ReplicationError(
                f"tcp cluster boot timed out: "
                f"{len(self._node_addresses)}/{self._n} nodes registered"
            ) from None
        directory = dict(self._node_addresses)
        for writer in self._node_writers.values():
            writer.write(encode_frame(("directory", directory)))
            writer.write(encode_frame(("start",)))
            await writer.drain()
        try:
            await asyncio.wait_for(self._all_ready.wait(), timeout=_BOOT_TIMEOUT)
        except asyncio.TimeoutError:
            raise ReplicationError(
                f"tcp cluster boot timed out: "
                f"{len(self._ready_nodes)}/{self._n} nodes ready"
            ) from None
        self._mono_anchor = time.monotonic()

    async def _open_control_server(self, port: int) -> None:
        import asyncio

        self._control_server = await asyncio.start_server(
            functools.partial(self._on_control_connection, hub_index=0),
            self._host,
            port,
        )
        self._hub_servers = [self._control_server]
        sock_host, sock_port = self._control_server.sockets[0].getsockname()[:2]
        self.control_address = (sock_host, sock_port)
        self.hub_addresses = [self.control_address]
        if self._mode != "tcp":
            return
        for index in range(1, self._standby_hubs + 1):
            standby_port = port + index if port else 0
            server = await asyncio.start_server(
                functools.partial(self._on_control_connection, hub_index=index),
                self._host,
                standby_port,
            )
            self._hub_servers.append(server)
            s_host, s_port = server.sockets[0].getsockname()[:2]
            self.hub_addresses.append((s_host, s_port))

    async def _shutdown_runtime(self) -> None:
        # A closing cluster must not leave armed fault timers behind:
        # a replay cancelled mid-schedule would otherwise keep firing
        # callbacks into a half-torn-down runtime.
        for replayer in self._replayers:
            replayer.cancel()
        if self._mode == "tcp":
            for writer in self._node_writers.values():
                try:
                    writer.write(encode_frame(("stop",)))
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
            for writer in self._node_writers.values():
                writer.close()
        for server in self._hub_servers:
            if server is None:
                continue
            server.close()
            await server.wait_closed()
        self._hub_servers = []
        self._control_server = None
        if self._control_tasks:
            import asyncio

            for task in list(self._control_tasks):
                task.cancel()
            await asyncio.gather(*self._control_tasks, return_exceptions=True)
            self._control_tasks.clear()
        if self.transport is not None:
            await self.transport.stop_pumps()

    def _reap_processes(self, timeout: float = 5.0) -> None:
        for process in self._processes.values():
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        self._processes.clear()

    def _fail_pending_calls(self) -> None:
        with self._lock:
            pending = list(self._pending_calls)
            self._pending_calls.clear()
        for future in pending:
            if not future.done():
                try:
                    future.set_exception(
                        ReplicationError(
                            "cluster closed while the call was in flight"
                        )
                    )
                except concurrent.futures.InvalidStateError:
                    pass  # the loop resolved it in the same instant

    # -- control-frame hub (tcp node processes + chaos clients) ----------

    async def _on_control_connection(self, reader, writer, hub_index: int = 0) -> None:
        import asyncio

        task = asyncio.current_task()
        self._control_tasks.add(task)
        self._hub_conn_writers.setdefault(hub_index, set()).add(writer)
        # Per-connection auth state: token-less clusters are born
        # authenticated, otherwise the first frame must be the token.
        conn = {"authed": self._token is None}
        decoder = FrameDecoder(self._max_frame_bytes)
        try:
            async for frame in read_frames(reader, decoder):
                await self._on_control_frame(frame, writer, conn)
        except ReproError as exc:
            self._control_errors.append(str(exc))
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._control_tasks.discard(task)
            self._hub_conn_writers.get(hub_index, set()).discard(writer)
            writer.close()

    async def _on_control_frame(
        self, frame: object, writer, conn: Optional[Dict[str, bool]] = None
    ) -> None:
        if not (isinstance(frame, tuple) and frame):
            self._control_errors.append(f"unrecognised frame: {frame!r:.120}")
            return
        kind = frame[0]
        if conn is not None and not conn["authed"]:
            if kind == "auth" and len(frame) == 2 and frame[1] == self._token:
                conn["authed"] = True
            else:
                self._control_errors.append(
                    f"refused unauthenticated {kind!r} frame"
                )
                writer.write(
                    encode_frame(
                        (
                            "error",
                            "unauthenticated: send ('auth', <token>) first",
                        )
                    )
                )
                await writer.drain()
            return
        if kind == "auth":
            return  # re-auth on an authenticated connection is a no-op
        if kind == "register":
            _, node, address = frame
            node = int(node)
            rejoining = node in self._node_addresses
            self._node_writers[node] = writer
            self._node_addresses[node] = (str(address[0]), int(address[1]))
            if rejoining and self._mono_anchor is not None:
                # Failover re-register on a running cluster: hand the
                # node the current directory and re-send start (the
                # node's stack survives, so this just re-acks ready).
                writer.write(
                    encode_frame(("directory", dict(self._node_addresses)))
                )
                writer.write(encode_frame(("start",)))
                await writer.drain()
                self._note_heal()
            if (
                len(self._node_addresses) >= self._n
                and self._all_registered is not None
            ):
                self._all_registered.set()
        elif kind == "ready":
            self._ready_nodes.add(int(frame[1]))
            if len(self._ready_nodes) >= self._n and self._all_ready is not None:
                self._all_ready.set()
        elif kind == "applied":
            _, node, pairs = frame
            node = int(node)
            with self._lock:
                for uid, stamp in pairs:
                    self._note_applied_locked(uid, node, self._units(stamp))
        elif kind == "packet":
            _, node, counts = frame
            with self._lock:
                self._packet_counts[int(node)] = {
                    str(k): int(v) for k, v in counts.items()
                }
        elif kind == "reply":
            _, call_id, ok, payload = frame
            future = self._tcp_pending.pop(call_id, None)
            if future is not None and not future.done():
                try:
                    future.set_result((ok, payload))
                except concurrent.futures.InvalidStateError:
                    pass
        elif kind == "chaos":
            schedule = frame[1]
            try:
                replayer = self._arm_replayer(schedule)
            except ReproError as exc:
                writer.write(encode_frame(("chaos-error", str(exc))))
            else:
                writer.write(
                    encode_frame(
                        (
                            "chaos-ack",
                            {"events": replayer.total, "name": schedule.name},
                        )
                    )
                )
            await writer.drain()
        elif kind == "topology?":
            writer.write(encode_frame(("topology", self.topology)))
            await writer.drain()
        elif kind == "hubs?":
            writer.write(encode_frame(("hubs", list(self.hub_addresses))))
            await writer.drain()
        elif kind == "kill-hub":
            # Ack *before* killing: the requester may well be talking
            # to the very hub it is about to take down.
            try:
                self._check_kill_hub()
            except ReproError as exc:
                writer.write(encode_frame(("kill-hub-error", str(exc))))
                await writer.drain()
            else:
                writer.write(
                    encode_frame(("kill-hub-ack", self.hub_addresses[0]))
                )
                await writer.drain()
                self._kill_hub_on_loop()
        elif kind == "status?":
            writer.write(encode_frame(("status", self._status())))
            await writer.drain()
        elif kind == "metrics?":
            writer.write(encode_frame(("metrics", self.telemetry_snapshot())))
            await writer.drain()
        else:
            self._control_errors.append(f"unrecognised frame kind {kind!r}")

    def _units(self, stamp: float) -> float:
        """A cross-process ``time.monotonic()`` stamp in protocol units."""
        anchor = self._mono_anchor if self._mono_anchor is not None else 0.0
        return (stamp - anchor) / self.runtime.time_scale

    def _post_heal_seconds_locked(self) -> Optional[float]:
        """Wall seconds from the last healing fault action to the last
        full replication — the convergence time a chaos report wants.
        None before any heal, or while nothing converged since it."""
        if self._last_heal_mono is None or self._last_completion_mono is None:
            return None
        delta = self._last_completion_mono - self._last_heal_mono
        return delta if delta >= 0 else None

    def _note_heal(self) -> None:
        with self._lock:
            self._last_heal_mono = time.monotonic()

    def _sync_packet_counters_locked(self) -> None:
        """Fold packet-fault effects into the registry (lock held).

        Queue mode reads the shared transport's traffic counters; tcp
        mode sums the latest per-node counts pushed by the processes.
        """
        if self._mode == "tcp":
            for name, counter in self._packet_counters.items():
                counter.value = sum(
                    counts.get(name, 0)
                    for counts in self._packet_counts.values()
                )
        elif self.transport is not None:
            counters = self.transport.counters
            for name, counter in self._packet_counters.items():
                counter.value = getattr(counters, name)

    def _status(self) -> Dict[str, object]:
        with self._lock:
            self._sync_packet_counters_locked()
            status: Dict[str, object] = {
                "nodes": self._n,
                "transport": self._mode,
                "time_scale": self.runtime.time_scale,
                "puts": self._puts,
                "updates_tracked": len(self._apply_times),
                "updates_fully_replicated": self._completed_total,
                "post_heal_seconds": self._post_heal_seconds_locked(),
                "telemetry": self.telemetry.snapshot(),
            }
        status["chaos"] = self.chaos_status()
        return status

    # -- chaos ----------------------------------------------------------

    def _make_injector(self) -> FaultInjector:
        if self._injector is None:
            if self._mode == "tcp":
                self._injector = TcpBroadcastInjector(self)
            else:
                self._injector = SystemFaultInjector(
                    self.transport,
                    self.demand,
                    self.runtime,
                    self.nodes,
                    on_heal=self._note_heal,
                )
        return self._injector

    def _arm_replayer(self, schedule: FaultSchedule) -> FaultReplayer:
        """Arm a wall-clock replay *on the loop thread* (schedule t=0 is now)."""
        schedule.validate()
        replayer = FaultReplayer(self.runtime, self._make_injector(), schedule)
        self._replayers.append(replayer)
        return replayer

    def inject_faults(self, schedule: FaultSchedule) -> FaultReplayer:
        """Replay ``schedule`` against the running cluster on wall clock.

        Schedule time 0 maps to the moment of injection; event times are
        protocol units, scaled by the cluster's ``time_scale`` — the
        very same :class:`FaultSchedule` object a simulation replays.
        Returns the armed :class:`FaultReplayer` (its ``applied`` /
        ``skipped`` / ``done`` reflect live progress).
        """
        schedule.validate()
        return self._call(self._arm_replayer, schedule)

    def chaos_status(self) -> Optional[Dict[str, object]]:
        """Progress of the most recent fault replay (None before any)."""
        if not self._replayers:
            return None
        replayer = self._replayers[-1]
        return {
            "schedule": replayer.schedule.name,
            "applied": replayer.applied,
            "skipped": len(replayer.skipped),
            "total": replayer.total,
            "done": replayer.done,
        }

    def _check_kill_hub(self) -> None:
        if self._mode != "tcp":
            raise ReplicationError("kill_hub is a tcp-mode fault")
        if len(self._hub_servers) < 2 or all(
            s is None for s in self._hub_servers[1:]
        ):
            raise ReplicationError(
                "no standby hub to fail over to (standby_hubs=0 or all dead)"
            )
        if self._hub_servers[0] is None:
            raise ReplicationError("primary hub is already dead")

    def _kill_hub_on_loop(self) -> None:
        """Take the primary hub down mid-run (loop thread only).

        Closes the primary listener *and* every control connection it
        accepted — node processes lose their hub channel and must fail
        over to a standby.  In-flight replication traffic rides the
        peer-to-peer connections and is untouched.
        """
        self._check_kill_hub()
        server = self._hub_servers[0]
        self._hub_servers[0] = None
        server.close()
        for conn_writer in list(self._hub_conn_writers.get(0, ())):
            try:
                conn_writer.close()
            except (ConnectionError, OSError):
                pass
        # Stale node channels must not swallow new control calls: drop
        # writers that just died so _tcp_call fails fast until the node
        # re-registers on a standby.
        for node, node_writer in list(self._node_writers.items()):
            if node_writer.is_closing():
                del self._node_writers[node]

    def kill_hub(self) -> None:
        """Kill the primary hub listener while the cluster serves.

        A scheduled-fault-grade event: replicas reconnect to a standby
        hub (see ``standby_hubs``) with exponential backoff, re-register
        and replay their recent ``applied`` reports; client calls during
        the failover window fail fast with :class:`ReplicationError`
        instead of hanging.  Raises when there is no standby to absorb
        the failover.
        """
        self._call(self._kill_hub_on_loop)

    # -- replication tracking -------------------------------------------

    def _record_applied(self, node: int, updates: List[Update]) -> None:
        now = self.runtime.now
        with self._lock:
            for update in updates:
                self._note_applied_locked(update.uid, node, now)

    def _note_applied_locked(self, uid: UpdateId, node: int, t: float) -> None:
        times = self._apply_times.setdefault(uid, {})
        times.setdefault(node, t)
        if len(times) >= self._n:
            event = self._replicated.setdefault(uid, threading.Event())
            if not event.is_set():
                event.set()
                self._completed_total += 1
                self._completed_order.append(uid)
                self._last_completion_mono = time.monotonic()
                self._replicated_counter.inc()
                t0 = self._put_times.get(uid)
                if t0 is not None:
                    # Fold the latency *at completion*, before eviction
                    # can drop the put stamp: the telemetry keeps the
                    # full latency distribution even when the per-uid
                    # records are long gone.
                    seconds = (max(times.values()) - t0) * self.runtime.time_scale
                    self._latency_moments.add(seconds)
                    self._latency_sketch.add(seconds)
                self._evict_locked()

    def _evict_locked(self) -> None:
        """Drop tracking state of the oldest fully replicated updates
        beyond ``track_limit`` (caller holds the lock).  Waiters that
        already hold the threading.Event keep their reference; only the
        cluster-side records go."""
        while len(self._completed_order) > self._track_limit:
            uid = self._completed_order.popleft()
            origin, seq = uid
            if seq > self._evicted_seq.get(origin, -1):
                self._evicted_seq[origin] = seq
            self._apply_times.pop(uid, None)
            self._put_times.pop(uid, None)
            self._replicated.pop(uid, None)

    def _event_for(self, uid: UpdateId) -> Optional[threading.Event]:
        """The completion event of ``uid``, or None if it was already
        fully replicated and evicted (no per-uid state remains)."""
        with self._lock:
            event = self._replicated.get(uid)
            if event is not None:
                return event
            if uid not in self._apply_times:
                # Never-tracked uid: either evicted after completing
                # (origin watermark covers it — every put applies at its
                # origin instantly, so any live update stays tracked) or
                # genuinely unknown.
                origin, seq = uid
                if seq <= self._evicted_seq.get(origin, -1):
                    return None
            return self._replicated.setdefault(uid, threading.Event())

    # -- cross-thread plumbing ------------------------------------------

    def _register_pending(self) -> "concurrent.futures.Future":
        """New call future, tracked so close() can fail it cleanly."""
        future: "concurrent.futures.Future" = concurrent.futures.Future()
        with self._lock:
            if self._thread is None or self._closed:
                raise ReplicationError(
                    "cluster is not running (start() it first)"
                )
            self._pending_calls.add(future)
        future.add_done_callback(self._discard_pending)
        return future

    def _discard_pending(self, future) -> None:
        with self._lock:
            self._pending_calls.discard(future)

    def _call(self, fn, *args):
        """Run ``fn(*args)`` on the loop thread; return its result.

        Raises :class:`ReplicationError` when the cluster is not (or no
        longer) running — including a concurrent :meth:`close` racing
        this call, in which case the pending call fails rather than
        executing on a stopped loop or hanging until the call timeout.
        """
        future = self._register_pending()

        def runner() -> None:
            if future.done():
                return  # already failed by a concurrent close()
            try:
                result = fn(*args)
            except BaseException as exc:  # noqa: BLE001 - re-raised at caller
                try:
                    future.set_exception(exc)
                except concurrent.futures.InvalidStateError:
                    pass
            else:
                try:
                    future.set_result(result)
                except concurrent.futures.InvalidStateError:
                    pass

        try:
            self._loop.call_soon_threadsafe(runner)
        except RuntimeError as exc:  # loop already closed under us
            raise ReplicationError("cluster stopped during the call") from exc
        try:
            return future.result(timeout=_CALL_TIMEOUT)
        except concurrent.futures.TimeoutError as exc:
            raise ReplicationError(
                "cluster call timed out (cluster closing concurrently?)"
            ) from exc

    def _tcp_call(self, node: int, method: str, args: Tuple):
        """Round-trip one control call to ``node``'s process."""
        future = self._register_pending()
        call_id = next(self._call_counter)

        def dispatch() -> None:
            if future.done():
                return
            writer = self._node_writers.get(node)
            if writer is None or writer.is_closing():
                # No live channel (process dead, or hub failover in
                # progress): fail fast instead of hanging to timeout.
                try:
                    future.set_exception(
                        ReplicationError(
                            f"node {node} has no live control channel "
                            "(process dead or hub failover in progress)"
                        )
                    )
                except concurrent.futures.InvalidStateError:
                    pass
                return
            self._tcp_pending[call_id] = future
            writer.write(encode_frame(("call", call_id, method, tuple(args))))

        try:
            self._loop.call_soon_threadsafe(dispatch)
        except RuntimeError as exc:
            raise ReplicationError("cluster stopped during the call") from exc
        try:
            ok, payload = future.result(timeout=_CALL_TIMEOUT)
        except concurrent.futures.TimeoutError as exc:
            # The reply handler pops the id of every call that is
            # answered; only one nothing answered leaves it behind.
            loop = self._loop
            if loop is not None and loop.is_running():
                loop.call_soon_threadsafe(self._tcp_pending.pop, call_id, None)
            raise ReplicationError(
                f"call to node {node} timed out after {_CALL_TIMEOUT}s"
            ) from exc
        if not ok:
            raise ReplicationError(str(payload))
        return payload

    def _resolve_node(self, node: Optional[int]) -> int:
        if self._thread is None or self._closed:
            raise ReplicationError("cluster is not running (start() it first)")
        if node is None:
            return self._client_rng.choice(self._node_ids)
        if int(node) not in self._node_set:
            raise ReplicationError(f"unknown node {node}")
        return int(node)

    @property
    def node_ids(self) -> List[int]:
        """All replica node ids, sorted (valid targets for put/read)."""
        return list(self._node_ids)

    # -- client API -----------------------------------------------------

    def put(
        self,
        key: str,
        value: object,
        node: Optional[int] = None,
        wait: bool = False,
        timeout: Optional[float] = None,
    ) -> Update:
        """Client write at ``node`` (random replica when omitted).

        Returns once the write is applied locally; the cluster
        propagates it in the background (fast-update push first, then
        anti-entropy).  With ``wait=True``, block until every replica
        absorbed it (raises :class:`ReplicationError` on timeout).
        A write addressed to a node currently crashed by an injected
        fault fails with a clean :class:`ReplicationError`.
        """
        target = self._resolve_node(node)

        if self._mode == "tcp":
            update, stamp = self._tcp_call(target, "put", (key, value))
            with self._lock:
                self._put_times[update.uid] = self._units(stamp)
                self._puts += 1
                self._puts_counter.inc()
        else:

            def write() -> Update:
                if target in self.transport.links.down_nodes:
                    raise ReplicationError(
                        f"node {target} is down (injected fault)"
                    )
                t0 = self.runtime.now
                result = self.servers[target].local_write(key, value)
                with self._lock:
                    self._put_times[result.uid] = t0
                return result

            update = self._call(write)
            with self._lock:
                self._puts += 1
                self._puts_counter.inc()
        if wait and not self.wait_replicated(update.uid, timeout=timeout):
            raise ReplicationError(
                f"update {update.uid} not fully replicated within {timeout}s"
            )
        return update

    def get(self, key: str, node: Optional[int] = None) -> object:
        """Read ``key`` at one replica (weakly consistent: maybe stale)."""
        entry = self.read(key, node=node)
        return entry.value if entry is not None else None

    def read(self, key: str, node: Optional[int] = None) -> Optional[StoreEntry]:
        """Like :meth:`get` but returns the full store entry."""
        target = self._resolve_node(node)
        with self._lock:
            self._gets += 1
            self._gets_counter.inc()
        if self._mode == "tcp":
            return self._tcp_call(target, "read", (key,))

        def reader() -> Optional[StoreEntry]:
            if target in self.transport.links.down_nodes:
                raise ReplicationError(f"node {target} is down (injected fault)")
            return self.servers[target].read(key)

        return self._call(reader)

    def wait_replicated(
        self, uid: UpdateId, timeout: Optional[float] = None
    ) -> bool:
        """Block until ``uid`` reached every replica; False on timeout.

        An update that completed and was since evicted (see
        ``track_limit``) returns True immediately.
        """
        event = self._event_for(uid)
        if event is None:
            return True  # completed before being evicted
        return event.wait(timeout)

    def apply_times(self, uid: UpdateId) -> Dict[int, float]:
        """First-application time per node, in protocol units."""
        with self._lock:
            return dict(self._apply_times.get(uid, {}))

    def replication_latency(self, uid: UpdateId) -> Optional[float]:
        """Wall-clock seconds from ``put`` to the last replica's apply.

        None while the update has not reached every replica (or was
        never written through :meth:`put`).
        """
        with self._lock:
            times = self._apply_times.get(uid, {})
            t0 = self._put_times.get(uid)
            if t0 is None or len(times) < self._n:
                return None
            return (max(times.values()) - t0) * self.runtime.time_scale

    # -- introspection --------------------------------------------------

    def telemetry_snapshot(self) -> Dict[str, object]:
        """The registry's JSON snapshot, taken under the cluster lock.

        Safe to call from any thread while the cluster serves; this is
        what the periodic metrics emitter and the control socket's
        ``metrics?`` frame read.
        """
        with self._lock:
            self._sync_packet_counters_locked()
            return self.telemetry.snapshot()

    def emit_metrics(self, emitter, **context: object) -> Dict[str, object]:
        """Emit one snapshot line through ``emitter`` under the lock.

        The :class:`~repro.telemetry.emitter.SnapshotEmitter` itself is
        lock-free; serialising the emit here keeps the snapshot
        consistent with concurrent folds on the loop thread.
        """
        with self._lock:
            self._sync_packet_counters_locked()
            return emitter.emit(**context)

    def replication_latency_quantile(self, p: float) -> Optional[float]:
        """Streaming quantile of put-to-replicated seconds (None while
        no put has fully replicated)."""
        with self._lock:
            if not self._latency_sketch.count:
                return None
            return self._latency_sketch.quantile(p)

    def stats(self) -> Dict[str, object]:
        """Operational counters: ops, replication coverage, traffic."""
        with self._lock:
            tracked = len(self._apply_times)
            replicated = self._completed_total
            puts, gets = self._puts, self._gets
            self._sync_packet_counters_locked()
            telemetry = self.telemetry.snapshot()
            post_heal = self._post_heal_seconds_locked()
        out: Dict[str, object] = {
            "nodes": self._n,
            "variant": self.config.describe(),
            "transport": self._mode,
            "time_scale": self.runtime.time_scale,
            "puts": puts,
            "gets": gets,
            "updates_tracked": tracked,
            "updates_fully_replicated": replicated,
            "post_heal_seconds": post_heal,
            "telemetry": telemetry,
        }
        chaos = self.chaos_status()
        if chaos is not None:
            out["chaos"] = chaos
        if self._mode == "tcp":
            sessions: Dict[str, int] = {}
            delivery: Dict[str, int] = {}
            traffic: Optional[Dict[str, object]] = None
            handler_errors = 0
            for node in self._node_ids:
                payload = self._tcp_call(node, "stats", ())
                for name, count in payload["sessions"].items():
                    sessions[name] = sessions.get(name, 0) + count
                for name, count in payload["delivery"].items():
                    delivery[name] = delivery.get(name, 0) + count
                snapshot = payload["traffic"]
                if traffic is None:
                    traffic = dict(snapshot)
                else:
                    for name, value in snapshot.items():
                        if isinstance(value, dict):
                            merged = dict(traffic.get(name, {}))
                            for k, v in value.items():
                                merged[k] = merged.get(k, 0) + v
                            traffic[name] = merged
                        else:
                            traffic[name] = traffic.get(name, 0) + value
                handler_errors += payload["handler_errors"]
            out["sessions"] = sessions
            out["traffic"] = traffic
            out["handler_errors"] = handler_errors
            out["delivery"] = delivery
        else:
            sessions = {}
            for stack in self.nodes.values():
                stats = stack.anti_entropy.stats
                for name in (
                    "initiated",
                    "completed_initiator",
                    "completed_responder",
                ):
                    sessions[name] = sessions.get(name, 0) + getattr(stats, name)
            out["sessions"] = sessions
            if self.transport is not None:
                out["traffic"] = self.transport.counters.snapshot()
                out["handler_errors"] = len(self.transport.handler_errors)
                out["delivery"] = self.transport.delivery_stats()
        if self._loop is not None and self._loop.is_running():
            out["uptime_units"] = self._call(lambda: self.runtime.now)
        return out
