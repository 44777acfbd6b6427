"""One replica per OS process: the child side of the TCP cluster.

:class:`~repro.runtime.cluster.ReplicaCluster` in ``transport="tcp"``
mode spawns one process per node; each runs :func:`node_process_main`
with a picklable :class:`NodeSpec`.  The child:

1. builds an :class:`~repro.runtime.live.AsyncioRuntime` and a
   :class:`~repro.runtime.tcp.TcpTransport` hosting just its node,
   binds an ephemeral port, and *registers* it with the parent's hub —
   the first reachable entry of an *ordered hub list*.  Losing the hub
   connection mid-run is survivable: the child cycles through the list
   with exponential backoff, re-registers, and replays its recent
   ``applied`` reports (the hub's bookkeeping is idempotent), while
   in-flight replication traffic keeps riding the peer connections
   undisturbed;
2. waits for the hub's *directory* (every peer's address) and *start*
   frames, then assembles the very same protocol stack the simulator
   uses (:func:`~repro.core.system.build_node_stack`) — demand tables
   are recomputed locally, which is safe because
   :func:`~repro.demand.advertisement.bootstrap_tables` is a pure
   function of topology + demand, both carried in the spec;
3. serves hub control frames until told to stop: client ``call``\\ s
   (put / read / stats), broadcast ``fault`` actions applied to the
   local transport's :class:`~repro.runtime.linkstate.LinkModel`
   through a :class:`~repro.faults.process.SystemFaultInjector` (every
   process receives every action, so sender-side refusals agree without
   shared memory; handler parking only ever touches the own node), and
   streams ``applied`` reports (update uid + ``time.monotonic()``)
   back so the hub can track cluster-wide replication.

Apply/put times cross process boundaries as raw ``time.monotonic()``
readings — system-wide comparable on Linux — which the hub converts to
protocol units; only differences are ever used.
"""

from __future__ import annotations

import asyncio
import collections
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.config import KNOWLEDGE_ADVERTISED, ProtocolConfig
from ..core.system import build_node_stack
from ..demand.advertisement import bootstrap_tables
from ..demand.base import DemandModel
from ..errors import ReplicationError
from ..faults.process import ShockableDemand, SystemFaultInjector, apply_fault
from ..faults.schedule import FaultEvent
from ..sim.network import LatencyModel
from ..topology.graph import Topology
from .live import AsyncioRuntime
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
    demand = ShockableDemand(spec.demand) if spec.has_shocks else spec.demand
    transport = TcpTransport(
        runtime,
        spec.topology,
        local_nodes=[spec.node],
        latency=spec.latency,
        loss=spec.loss,
        max_frame_bytes=spec.max_frame_bytes,
    )
    runtime.transport = transport
    address = await transport.serve(spec.host)

    stack = None
    injector: Optional[SystemFaultInjector] = None
    push_task: Optional[asyncio.Task] = None
    # Mutable box so the update callback always writes to the *current*
    # hub connection, across failovers.
    writer_box: Dict[str, Optional[asyncio.StreamWriter]] = {"writer": None}
    # Recently reported (uid, stamp) pairs, replayed after a failover —
    # the hub's applied bookkeeping is idempotent so replays are safe.
    applied_log: collections.deque = collections.deque(
        maxlen=APPLIED_REPLAY_LIMIT
    )

    def on_new_updates(updates, source, sender) -> None:
        # Report arrivals to the hub with a cross-process-comparable
        # wall-clock stamp (no drain: frames are tiny, loop flushes).
        stamp = time.monotonic()
        pairs = [(u.uid, stamp) for u in updates]
        applied_log.extend(pairs)
        writer = writer_box["writer"]
        if writer is not None and not writer.is_closing():
            writer.write(encode_frame(("applied", spec.node, pairs)))

    async def push_packet_counters() -> None:
        # Stream packet-fault counters to whichever hub is current, but
        # only when they move — idle clusters push nothing.
        last = None
        while True:
            await asyncio.sleep(PACKET_PUSH_INTERVAL)
            counters = transport.counters
            counts = (
                counters.corrupt_frames_dropped,
                counters.duplicates_suppressed,
                counters.reorders_applied,
            )
            if counts == last:
                continue
            writer = writer_box["writer"]
            if writer is None or writer.is_closing():
                continue
            last = counts
            writer.write(
                encode_frame(
                    (
                        "packet",
                        spec.node,
                        {
                            "corrupt_frames_dropped": counts[0],
                            "duplicates_suppressed": counts[1],
                            "reorders_applied": counts[2],
                        },
                    )
                )
            )

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
                        if stack is None:
                            tables = None
                            if (
                                spec.config.demand_knowledge
                                == KNOWLEDGE_ADVERTISED
                            ):
                                tables = bootstrap_tables(
                                    transport, demand, at_time=0.0
                                )
                            stack = build_node_stack(
                                runtime,
                                spec.topology,
                                demand,
                                spec.config,
                                spec.node,
                                tables=tables,
                                on_new_updates=on_new_updates,
                            )
                            transport.start_pumps()
                            stack.start()
                            injector = SystemFaultInjector(
                                transport, demand, runtime, {spec.node: stack}
                            )
                            push_task = asyncio.ensure_future(
                                push_packet_counters()
                            )
                        # After a failover the new hub re-sends start:
                        # the stack is already live, just re-ack.
                        writer.write(encode_frame(("ready", spec.node)))
                        await writer.drain()
                    elif kind == "fault":
                        _, action, action_args = frame
                        if injector is not None:
                            apply_fault(
                                injector,
                                FaultEvent(0.0, action, tuple(action_args)),
                            )
                    elif kind == "call":
                        _, call_id, method, call_args = frame
                        reply = _handle_call(
                            spec, runtime, transport, stack, method, call_args
                        )
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


def _handle_call(spec, runtime, transport, stack, method, args):
    """Dispatch one hub call; returns ``(ok, payload)``."""
    try:
        if stack is None:
            raise ReplicationError(f"node {spec.node} not started yet")
        if method == "put":
            if not transport.links.node_is_up(spec.node):
                raise ReplicationError(
                    f"node {spec.node} is down (injected fault)"
                )
            key, value = args
            update = stack.server.local_write(key, value)
            return True, (update, time.monotonic())
        if method == "read":
            if not transport.links.node_is_up(spec.node):
                raise ReplicationError(
                    f"node {spec.node} is down (injected fault)"
                )
            (key,) = args
            return True, stack.server.read(key)
        if method == "stats":
            stats = stack.anti_entropy.stats
            return True, {
                "sessions": {
                    name: getattr(stats, name)
                    for name in (
                        "initiated",
                        "completed_initiator",
                        "completed_responder",
                    )
                },
                "traffic": transport.counters.snapshot(),
                "handler_errors": len(transport.handler_errors),
                "delivery": transport.delivery_stats(),
            }
        raise ReplicationError(f"unknown cluster call {method!r}")
    except Exception as exc:  # noqa: BLE001 - serialized to the hub
        return False, f"{type(exc).__name__}: {exc}"


def node_process_main(spec: NodeSpec) -> None:
    """Child-process entry point (target of ``multiprocessing.Process``)."""
    asyncio.run(_node_main(spec))
