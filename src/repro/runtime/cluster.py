"""ReplicaCluster: serve live client traffic on the replication protocol.

A cluster of replicas running the paper's protocol on the wall-clock
:class:`~repro.runtime.live.AsyncioRuntime`, in one of two transports:

* ``transport="queue"`` (default) — one
  :class:`~repro.core.host.ReplicaHost` (the host the simulator runs
  too) hosts every node's protocol
  stack on one event loop on a background thread, exchanging messages
  through the transport's in-process delivery heap; the loop (the hub's
  too, in tcp mode) comes from
  :func:`~repro.runtime.live.new_event_loop`, so a link latency of a
  fraction of a millisecond is kept;
* ``transport="tcp"`` — one OS process per node, each running the same
  :class:`~repro.core.host.ReplicaHost` for its own node on a
  :class:`~repro.runtime.tcp.TcpTransport` over real sockets.  Node
  processes are forked from one ``multiprocessing`` forkserver per
  parent process, started with the node program already imported
  (:func:`node_context`).  The
  parent runs a nameserver-style *hub*: node processes bind an
  ephemeral port, register it, receive the full directory, and start.
  Client calls, fault events, and replication reports travel as
  length-prefixed control frames.

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
cluster.  Every event lands on a host's
:meth:`~repro.core.host.ReplicaHost.fault`, the one fault path the
simulator uses too: in queue mode the cluster's host applies it; in tcp
mode the hub forwards it as one ``fault`` frame to every node process,
whose host applies it.  Packet-level actions (latency shocks,
reordering, duplication, frame corruption) ride the same path.  With
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

import asyncio
import concurrent.futures
import functools
import itertools
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.config import ProtocolConfig
from ..core.host import PACKET_COUNTERS, ReplicaHost
from ..core.protocol import ReplicationNode
from ..core.variants import fast_consistency
from ..demand.base import DemandModel
from ..demand.static import UniformRandomDemand
from ..errors import ConfigurationError, ReplicationError, ReproError
from ..faults.process import FaultReplayer, prepare_demand
from ..faults.schedule import (
    ACTION_DEMAND_SHOCK,
    HEAL_ACTIONS,
    FaultEvent,
    FaultSchedule,
)
from ..port.latency import LatencyModel
from ..replica.log import Update, UpdateId
from ..replica.server import ReplicaServer
from ..replica.store import StoreEntry
from ..telemetry.registry import MetricRegistry
from ..topology.brite import internet_like
from ..topology.graph import Topology
from .live import AsyncioRuntime, AsyncioTransport, new_event_loop
from .nodeproc import NodeSpec, boot_live, node_process_main, stamp_applies
from .tcp import DEFAULT_MAX_FRAME_BYTES, FrameDecoder, encode_frame, read_frames
from .tracking import ReplicationTracker

#: Default wall-clock seconds per protocol time unit (20 units/second).
DEFAULT_TIME_SCALE = 0.05

#: Ceiling on cross-thread control calls (put/get/stats plumbing).
_CALL_TIMEOUT = 30.0

#: Ceiling on tcp-mode boot (fork from the preloaded forkserver +
#: register + ready handshake).  The first boot in a process also
#: starts the forkserver, which imports the node program once.
_BOOT_TIMEOUT = 60.0

#: Seconds between checks for a dead node process during boot; longer
#: than a warm boot, so a boot that goes well never polls.
_BOOT_POLL = 0.5

#: The import root of this ``repro`` (the directory holding the package).
_IMPORT_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Serialises the PYTHONPATH pin of boots on concurrent threads.
_FORKSERVER_LOCK = threading.Lock()


def node_context():
    """The context node processes start from, its forkserver running.

    The forkserver is this process's one ``multiprocessing`` forkserver:
    started at the first call, it imports the node program (the module
    of :func:`~repro.runtime.nodeproc.node_process_main`) once and
    forks every node process from that clean, single-threaded image,
    and it exits with this process.  ``forkserver.main`` does not apply
    the parent's ``sys.path`` before preloading and swallows the
    ``ImportError``, so a parent that put ``repro`` on ``sys.path`` by
    hand would get no preload; the start is therefore made with this
    package's import root at the head of ``PYTHONPATH``, which also
    makes the forkserver preload this ``repro`` and no other copy.
    """
    # Imported here: a queue cluster never starts a process.
    import multiprocessing
    import multiprocessing.forkserver

    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([node_process_main.__module__])
    with _FORKSERVER_LOCK:
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_IMPORT_ROOT, saved)))
        try:
            multiprocessing.forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return context

#: Default bound on per-update tracking state (see ``track_limit``).
DEFAULT_TRACK_LIMIT = 4096


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
            their apply-time row (see
            :class:`~repro.runtime.tracking.ReplicationTracker`); older
            ones are evicted so a long-lived cluster's tracking state
            stays bounded.  :meth:`wait_replicated` on an evicted update
            returns True at once, while :meth:`apply_times` /
            :meth:`replication_latency` return empty/None for it.
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
        self.demand = prepare_demand(base_demand, self._faults)
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
        self._client_rng = self.runtime.rng.stream("cluster-client")

        # -- telemetry ---------------------------------------------------
        #: Shared-schema metrics (see :mod:`repro.telemetry`): counters
        #: for ops — the only count of puts, gets and completions —
        #: moments + sketch for put-to-replicated seconds.  Guarded by
        #: ``self._lock``; the tracker keeps all but the gets.
        self.telemetry = MetricRegistry()
        self._gets_counter = self.telemetry.counter(
            "cluster.gets", transport=transport
        )
        #: Apply and put stamps per update, as ``time.monotonic()``
        #: readings turned into protocol units only when read (see
        #: :meth:`apply_times`).
        self._tracker = ReplicationTracker(
            self._node_ids, self._lock, int(track_limit), self.telemetry, transport
        )
        #: Packet-fault effect counters, synced into the registry at
        #: snapshot time as the sum of ``_packet_sources()``.
        self._packet_counters = {
            name: self.telemetry.counter(
                f"cluster.packet.{name}", transport=transport
            )
            for name in PACKET_COUNTERS
        }
        #: Per-node counts the tcp node processes push as ``packet`` frames.
        self._packet_counts: Dict[int, Dict[str, int]] = {}
        #: time.monotonic() of the most recent healing fault action; the
        #: time from it to the tracker's ``last_completion`` is the
        #: post-heal convergence time a chaos report wants.
        self._last_heal_mono: Optional[float] = None

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

        # -- the hosts, reached the same way whichever the transport -----
        #: Set at boot.  ``_node_call(node, method, args)`` runs
        #: :meth:`ReplicaHost.call` on ``node``'s host from any thread;
        #: ``_fault(event)`` applies a fault event to every host (loop
        #: thread); asking the hosts of ``_one_node_per_host`` for
        #: ``stats`` covers every node; ``_packet_sources()`` yields each
        #: host's packet-fault counts.
        self._node_call: Optional[Callable[[int, str, Tuple], object]] = None
        self._fault: Optional[Callable[[FaultEvent], bool]] = None
        self._one_node_per_host: List[int] = []
        self._packet_sources: Callable[[], object] = self._packet_counts.values

        # -- chaos state ------------------------------------------------
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
        loop = new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        try:
            self.runtime.start()
            if self._mode == "tcp":
                await self._boot_tcp()
            else:
                self._boot_queue()
                if self._control_port is not None:
                    await self._open_control_server(self._control_port, 0)
            self._mono_anchor = time.monotonic()
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
        """One host on this loop, hosting every node."""
        self.transport = AsyncioTransport(
            self.runtime,
            self.topology,
            latency=self._latency,
            loss=self.loss,
        )
        host = ReplicaHost(
            self.runtime,
            self.transport,
            self.topology,
            self.demand,
            self.config,
            self.topology.nodes,
            stamp_applies(self._tracker.record),
        )
        boot_live(host)
        self.nodes = host.nodes
        self.servers = host.servers
        self._node_call = functools.partial(self._call, host.call)
        self._fault = host.fault
        self._one_node_per_host = self._node_ids[:1]
        self._packet_sources = lambda: (host.packet_counts(),)

    async def _boot_tcp(self) -> None:
        """One node process per node, each running its own host."""
        self._node_call = self._tcp_call
        self._fault = self._forward_fault
        self._one_node_per_host = self._node_ids
        self._all_registered = asyncio.Event()
        self._all_ready = asyncio.Event()
        await self._open_control_server(self._control_port or 0, self._standby_hubs)
        context = node_context()
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
        await self._await_boot(
            self._all_registered,
            lambda: f"{len(self._node_addresses)}/{self._n} nodes registered",
        )
        directory = dict(self._node_addresses)
        for writer in self._node_writers.values():
            writer.write(encode_frame(("directory", directory)))
            writer.write(encode_frame(("start",)))
            await writer.drain()
        await self._await_boot(
            self._all_ready, lambda: f"{len(self._ready_nodes)}/{self._n} nodes ready"
        )

    async def _await_boot(
        self, done: asyncio.Event, progress: Callable[[], str]
    ) -> None:
        """Wait for a boot stage, failing at once if a node process died.

        A node process that exits before the cluster is up can never
        register or report ready, so there is no point in waiting out
        the boot timeout for it.
        """
        deadline = time.monotonic() + _BOOT_TIMEOUT
        while True:
            try:
                await asyncio.wait_for(done.wait(), timeout=_BOOT_POLL)
                return
            except asyncio.TimeoutError:
                pass
            dead = {
                node: process.exitcode
                for node, process in self._processes.items()
                if process.exitcode is not None
            }
            if dead:
                raise ReplicationError(
                    "tcp cluster boot failed: node process exited: "
                    + ", ".join(
                        f"node {node} (exit code {code})"
                        for node, code in sorted(dead.items())
                    )
                )
            if time.monotonic() >= deadline:
                raise ReplicationError(f"tcp cluster boot timed out: {progress()}")

    async def _open_control_server(self, port: int, standbys: int) -> None:
        self._control_server = await asyncio.start_server(
            functools.partial(self._on_control_connection, hub_index=0),
            self._host,
            port,
        )
        self._hub_servers = [self._control_server]
        sock_host, sock_port = self._control_server.sockets[0].getsockname()[:2]
        self.control_address = (sock_host, sock_port)
        self.hub_addresses = [self.control_address]
        for index in range(1, standbys + 1):
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
            self._tracker.record(int(node), pairs)
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
        """A ``time.monotonic()`` stamp, from any process, in protocol
        units since boot."""
        anchor = self._mono_anchor if self._mono_anchor is not None else 0.0
        return (stamp - anchor) / self.runtime.time_scale

    def _post_heal_seconds_locked(self) -> Optional[float]:
        """Wall seconds from the last healing fault action to the last
        full replication — the convergence time a chaos report wants.
        None before any heal, or while nothing converged since it."""
        last_completion = self._tracker.last_completion
        if self._last_heal_mono is None or last_completion is None:
            return None
        delta = last_completion - self._last_heal_mono
        return delta if delta >= 0 else None

    def _note_heal(self) -> None:
        with self._lock:
            self._last_heal_mono = time.monotonic()

    def _sync_packet_counters_locked(self) -> None:
        """Fold every host's packet-fault effects into the registry
        (lock held)."""
        sources = list(self._packet_sources())
        for name, counter in self._packet_counters.items():
            counter.value = sum(counts.get(name, 0) for counts in sources)

    def _summary_locked(self) -> Dict[str, object]:
        """The head that ``stats()`` and the ``status?`` reply share
        (lock held)."""
        self._sync_packet_counters_locked()
        return {
            "nodes": self._n,
            "transport": self._mode,
            "time_scale": self.runtime.time_scale,
            "puts": self._tracker.puts.value,
            "updates_tracked": len(self._tracker),
            "updates_fully_replicated": self._tracker.replicated.value,
            "post_heal_seconds": self._post_heal_seconds_locked(),
            "telemetry": self.telemetry.snapshot(),
        }

    def _status(self) -> Dict[str, object]:
        with self._lock:
            status = self._summary_locked()
        status["chaos"] = self.chaos_status()
        return status

    # -- chaos ----------------------------------------------------------

    def _apply_fault(self, event: FaultEvent) -> bool:
        """Apply one replayed event to every host; the one place a heal
        is recorded."""
        if not self._fault(event):
            return False
        if event.action in HEAL_ACTIONS:
            self._note_heal()
        return True

    def _forward_fault(self, event: FaultEvent) -> bool:
        """tcp mode: send the event to every node process, whose host
        applies it — each holds its own link model, so all of them must
        hear every event for sender-side refusals to agree."""
        if event.action == ACTION_DEMAND_SHOCK and not self._has_shocks:
            # The node processes built their demand unwrapped; the
            # shock cannot take effect anywhere.
            return False
        frame = encode_frame(("fault", event.action, tuple(event.args)))
        for writer in self._node_writers.values():
            try:
                writer.write(frame)
            except (ConnectionError, OSError):
                pass  # a dead node process cannot be injured further
        return True

    def _arm_replayer(self, schedule: FaultSchedule) -> FaultReplayer:
        """Arm a wall-clock replay *on the loop thread* (schedule t=0 is now)."""
        schedule.validate()
        replayer = FaultReplayer(self.runtime, self._apply_fault, schedule)
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
        update, stamp = self._node_call(target, "put", (key, value))
        self._tracker.note_put(update.uid, stamp)
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
            self._gets_counter.inc()
        return self._node_call(target, "read", (key,))

    def wait_replicated(
        self, uid: UpdateId, timeout: Optional[float] = None
    ) -> bool:
        """Block until ``uid`` reached every replica; False on timeout.

        An update that completed and was since evicted (see
        ``track_limit``) returns True immediately.
        """
        return self._tracker.wait_replicated(uid, timeout)

    def apply_times(self, uid: UpdateId) -> Dict[int, float]:
        """First-application time per node, in protocol units."""
        stamps = self._tracker.apply_stamps(uid)
        return {node: self._units(stamp) for node, stamp in stamps.items()}

    def replication_latency(self, uid: UpdateId) -> Optional[float]:
        """Wall-clock seconds from ``put`` to the last replica's apply.

        None while the update has not reached every replica (or was
        never written through :meth:`put`).
        """
        return self._tracker.replication_latency(uid)

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
        return self._tracker.latency_quantile(p)

    def stats(self) -> Dict[str, object]:
        """Operational counters: ops, replication coverage, traffic."""
        with self._lock:
            out = self._summary_locked()
            out["gets"] = self._gets_counter.value
        out["variant"] = self.config.describe()
        chaos = self.chaos_status()
        if chaos is not None:
            out["chaos"] = chaos
        for node in self._one_node_per_host:
            _add_into(out, self._node_call(node, "stats", ()))
        if self._loop is not None and self._loop.is_running():
            out["uptime_units"] = self._call(lambda: self.runtime.now)
        return out


def _add_into(total: Dict[str, object], part: Dict[str, object]) -> None:
    """Sum ``part`` into ``total``, key by key, recursing into dicts."""
    for name, value in part.items():
        if isinstance(value, dict):
            _add_into(total.setdefault(name, {}), value)
        else:
            total[name] = total.get(name, 0) + value
