"""The child side of the TCP cluster.

Each node process of a ``transport="tcp"``
:class:`~repro.runtime.cluster.ReplicaCluster` runs one
:class:`~repro.core.host.ReplicaHost` — the replica host every world
runs — hosting its own node over a
:class:`~repro.runtime.tcp.TcpTransport`, and starts that transport's
pumps itself.  The host boots the stack, serves client put / read /
stats (:meth:`~repro.core.host.ReplicaHost.call`) and applies fault
events (:meth:`~repro.core.host.ReplicaHost.fault`).  The two live
hosts (this one and the queue cluster's) hear of applies through
:func:`stamp_applies` and boot through :func:`boot_live`.

A TCP node process runs :func:`node_process_main` with a picklable
:class:`NodeSpec`.  Around its host it keeps only the hub connection:

1. it binds an ephemeral port and *registers* it with the parent's hub —
   the first reachable entry of an *ordered hub list*.  Losing the hub
   connection mid-run is survivable: the child cycles through the list
   with exponential backoff, re-registers, and replays its recent
   ``applied`` reports (the hub's bookkeeping is idempotent), while
   in-flight replication traffic keeps riding the peer connections
   undisturbed;
2. on the hub's *directory* (every peer's address) and *start* frames it
   starts its host — demand tables are recomputed locally, which is safe
   because :func:`~repro.demand.advertisement.bootstrap_tables` is a
   pure function of topology + demand, both carried in the spec;
3. it forwards hub control frames to the host until told to stop:
   client ``call``\\ s, and the ``fault`` events the hub broadcasts to
   every process (so sender-side refusals agree without shared memory;
   handler parking only ever touches the own node).  It streams
   ``applied`` reports (update uid + ``time.monotonic()``) and changed
   packet-fault counters back so the hub can track cluster-wide
   replication.

Apply/put times cross process boundaries as raw ``time.monotonic()``
readings — system-wide comparable on Linux — which the hub converts to
protocol units; only differences are ever used.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.config import ProtocolConfig
from ..core.host import AppliedListener, ReplicaHost
from ..demand.base import DemandModel
from ..port.latency import LatencyModel
from ..replica.log import Update, UpdateId
from ..topology.graph import Topology
from .live import AsyncioRuntime, new_event_loop
from .tcp import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    TcpTransport,
    encode_frame,
    read_frames,
)


#: Hub reconnect backoff window, wall seconds.
HUB_RECONNECT_BASE = 0.05
HUB_RECONNECT_CAP = 1.0
#: Give up (and shut the child down) after this long without reaching
#: any hub — the whole parent is gone, not just one listener.
HUB_GIVE_UP_SECONDS = 30.0
#: How many recently reported ``applied`` pairs are kept for replay
#: after a hub failover.
APPLIED_REPLAY_LIMIT = 8192
#: Seconds between packet-counter pushes to the hub (only when changed).
PACKET_PUSH_INTERVAL = 0.5


def stamp_applies(
    report: Callable[[int, List[Tuple[UpdateId, float]]], None],
) -> AppliedListener:
    """A live host's ``on_applied``: stamps each batch with one
    ``time.monotonic()`` reading and calls ``report(node, [(uid, stamp),
    ...])``."""

    def on_applied(node: int, updates: List[Update], source: str) -> None:
        stamp = time.monotonic()
        report(node, [(update.uid, stamp) for update in updates])

    return on_applied


def boot_live(host: ReplicaHost) -> None:
    """Boot a live host: build its stacks, start its transport's pumps,
    then start the stacks."""
    host.build()
    host.transport.start_pumps()
    host.start()


@dataclass
class NodeSpec:
    """Everything one node process needs to boot (fully picklable)."""

    node: int
    topology: Topology
    demand: DemandModel
    config: ProtocolConfig
    seed: int
    time_scale: float
    #: Ordered hub list: primary first, then standbys.  The child walks
    #: it round-robin with backoff whenever its hub connection dies.
    hub_addresses: Tuple[Tuple[str, int], ...] = ()
    latency: Optional[LatencyModel] = None
    loss: float = 0.0
    #: True when the cluster's fault schedule carries demand shocks —
    #: the child wraps its demand in ShockableDemand before building.
    has_shocks: bool = False
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    host: str = "127.0.0.1"
    #: Shared control-plane token; sent as an ``auth`` frame before
    #: register when set (the hub refuses unauthenticated frames).
    token: Optional[str] = None


async def _node_main(spec: NodeSpec) -> None:
    if not spec.hub_addresses:
        raise ValueError("NodeSpec.hub_addresses must list at least one hub")
    runtime = AsyncioRuntime(seed=spec.seed, time_scale=spec.time_scale)
    runtime.start()
    transport = TcpTransport(
        runtime,
        spec.topology,
        local_nodes=[spec.node],
        latency=spec.latency,
        loss=spec.loss,
        max_frame_bytes=spec.max_frame_bytes,
    )
    push_task: Optional[asyncio.Task] = None
    # Mutable box so the update callback always writes to the *current*
    # hub connection, across failovers.
    writer_box: Dict[str, Optional[asyncio.StreamWriter]] = {"writer": None}
    # Recently reported (uid, stamp) pairs, replayed after a failover —
    # the hub's applied bookkeeping is idempotent so replays are safe.
    applied_log: collections.deque = collections.deque(
        maxlen=APPLIED_REPLAY_LIMIT
    )

    def report_applied(node: int, pairs) -> None:
        # Report arrivals to the hub (no drain: frames are tiny, the
        # loop flushes them).
        applied_log.extend(pairs)
        writer = writer_box["writer"]
        if writer is not None and not writer.is_closing():
            writer.write(encode_frame(("applied", node, pairs)))

    demand = spec.demand
    if spec.has_shocks:
        from ..faults.process import ShockableDemand

        demand = ShockableDemand(demand)
    host = ReplicaHost(
        runtime, transport, spec.topology, demand, spec.config, [spec.node],
        stamp_applies(report_applied),
    )
    address = await transport.serve(spec.host)

    async def push_packet_counters() -> None:
        # Stream packet-fault counters to whichever hub is current, but
        # only when they move — idle clusters push nothing.
        last = None
        while True:
            await asyncio.sleep(PACKET_PUSH_INTERVAL)
            counts = host.packet_counts()
            if counts == last:
                continue
            writer = writer_box["writer"]
            if writer is None or writer.is_closing():
                continue
            last = counts
            writer.write(encode_frame(("packet", spec.node, counts)))

    stop = False
    hub_index = 0
    backoff = HUB_RECONNECT_BASE
    last_contact = time.monotonic()
    try:
        while not stop:
            target = spec.hub_addresses[hub_index % len(spec.hub_addresses)]
            hub_index += 1
            try:
                reader, writer = await asyncio.open_connection(*target)
            except (ConnectionError, OSError):
                if time.monotonic() - last_contact > HUB_GIVE_UP_SECONDS:
                    break  # every hub gone for too long: orphaned child
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, HUB_RECONNECT_CAP)
                continue
            backoff = HUB_RECONNECT_BASE
            try:
                if spec.token is not None:
                    writer.write(encode_frame(("auth", spec.token)))
                writer.write(encode_frame(("register", spec.node, address)))
                if applied_log:
                    writer.write(
                        encode_frame(("applied", spec.node, list(applied_log)))
                    )
                await writer.drain()
                writer_box["writer"] = writer
                last_contact = time.monotonic()
                decoder = FrameDecoder(spec.max_frame_bytes)
                async for frame in read_frames(reader, decoder):
                    last_contact = time.monotonic()
                    kind = frame[0]
                    if kind == "directory":
                        transport.update_directory(frame[1])
                    elif kind == "start":
                        # After a failover the new hub re-sends start:
                        # the host is already live, just re-ack.
                        if push_task is None:
                            boot_live(host)
                            push_task = asyncio.ensure_future(
                                push_packet_counters()
                            )
                        writer.write(encode_frame(("ready", spec.node)))
                        await writer.drain()
                    elif kind == "fault":
                        from ..faults.schedule import FaultEvent

                        _, action, action_args = frame
                        host.fault(FaultEvent(0.0, action, tuple(action_args)))
                    elif kind == "call":
                        _, call_id, method, call_args = frame
                        try:
                            reply = (True, host.call(spec.node, method, call_args))
                        except Exception as exc:  # noqa: BLE001 - serialized to the hub
                            reply = (False, f"{type(exc).__name__}: {exc}")
                        writer.write(encode_frame(("reply", call_id) + reply))
                        await writer.drain()
                    elif kind == "stop":
                        stop = True
                        break
            except (ConnectionError, OSError):
                pass  # this hub vanished: fail over to the next one
            finally:
                writer_box["writer"] = None
                writer.close()
            if not stop and time.monotonic() - last_contact > HUB_GIVE_UP_SECONDS:
                break
    finally:
        # Leave no task for the closing loop to destroy mid-flight.
        if push_task is not None:
            push_task.cancel()
            await asyncio.gather(push_task, return_exceptions=True)
        await transport.close()


def node_process_main(spec: NodeSpec) -> None:
    """Child-process entry point (target of ``multiprocessing.Process``).

    The cluster starts it from a forkserver that has imported this
    module already (:func:`~repro.runtime.cluster.node_context`), so a
    node process begins as a fork with the node program loaded and
    only unpickles its ``spec``.
    """
    # What is alive now is the node program, inherited from the
    # forkserver, and this node's spec; all of it lives as long as the
    # process.  Freeze it, so that the collector never scans it and never
    # writes to the pages shared with the forkserver (each write would
    # copy a page).
    gc.freeze()
    loop = new_event_loop()
    try:
        loop.run_until_complete(_node_main(spec))
    finally:
        loop.close()
        # A fork exits through os._exit, past the interpreter's
        # finalisation: collect now, so that a socket or transport left
        # open still warns as it would at a normal interpreter exit.
        gc.collect()
