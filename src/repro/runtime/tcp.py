"""TcpTransport: the protocol over real sockets, across OS processes.

The same :class:`~repro.runtime.base.Transport` contract the in-process
:class:`~repro.runtime.live.AsyncioTransport` satisfies, implemented on
length-prefixed TCP frames so an :class:`~repro.runtime.live.AsyncioRuntime`
cluster can span OS processes (or machines):

* **Framing** — every frame is an 8-byte big-endian header (payload
  length + CRC-32 of the payload) followed by a pickled payload.
  :class:`FrameDecoder` reassembles frames from arbitrary stream chunks
  (partial reads are normal TCP behaviour), rejects oversized frames
  with a one-line :class:`~repro.errors.TransportError` before
  buffering them, and *skips* corrupt frames (CRC mismatch or an
  undecodable body): a garbled frame is metered and dropped, never a
  crash of the receive pump — which is exactly the error path the
  ``corrupt_frame`` chaos action injects through.
* **Peer discovery** — a transport only knows ``node id -> (host,
  port)`` via its :attr:`directory`, which the cluster hub fills
  nameserver-style: node processes bind an ephemeral port, register it,
  and receive the complete directory before the protocol starts.
* **One hop per message** — messages wait out their link latency in
  the transport's :class:`~repro.runtime.live.DeliveryQueue`; its drain
  calls local handlers directly and writes remote frames straight to
  the connected peer's socket transport, joining the frames one drain
  holds for one peer into a single ``write``.  Inbound connections are
  an :class:`asyncio.Protocol` whose ``data_received`` decodes and
  delivers in place.  No mailbox, pump or sender task sits in between.
* **Reconnect with backoff** — outbound links reconnect lazily with
  exponential backoff; frames queued while a connect is in flight are
  flushed when it succeeds, and sends while a peer is unreachable are
  *dropped and metered*, never raised (``ignore_disconnects``
  semantics, after eugene-eeo/rated): the replication protocol is
  built to survive lost messages, so a flapping peer costs retries,
  not crashes.  Once the peer is back, the next send past the backoff
  window reconnects and delivery resumes.

Fault injection shares the live transports'
:class:`~repro.runtime.linkstate.LinkState`: a chaos controller
broadcasts each fault action to every node process, whose transport
then refuses to carry messages across crashed nodes, failed links or
partition boundaries — exactly the simulator Network's semantics.

This module is imported lazily by :mod:`repro.runtime` so simulation
workflows never pay for asyncio or sockets.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import SimulationError, TransportError
from ..sim.network import (
    FixedLatency,
    LatencyModel,
    TrafficCounters,
    message_kind,
    message_size,
    resolve_delay,
)
from .base import MessageHandler
from .linkstate import LinkState
from .live import AsyncioRuntime, DeliveryQueue

#: Header size: 4-byte unsigned big-endian frame length followed by the
#: 4-byte CRC-32 of the payload.
HEADER_BYTES = 8
_HEADER = struct.Struct(">II")

#: Default ceiling on one frame's payload (update batches are small;
#: anything near this is a protocol bug or a corrupted stream).
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(
    payload: object, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Pickle ``payload`` and prefix it with its length and CRC-32.

    Raises:
        TransportError: If the pickled payload exceeds
            ``max_frame_bytes`` (the peer would reject it anyway).
    """
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > max_frame_bytes:
        raise TransportError(
            f"frame of {len(body)} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def corrupt_frame_bytes(frame: bytes) -> bytes:
    """Garble an encoded frame's *body*, leaving the header intact.

    The chaos injector sends such frames deliberately: the length prefix
    stays valid so the stream never desynchronises, the CRC check fails
    at the receiver, and the decoder meters and skips the frame.
    """
    if len(frame) <= HEADER_BYTES:
        raise TransportError("cannot corrupt a frame with an empty body")
    index = HEADER_BYTES + (len(frame) - HEADER_BYTES) // 2
    garbled = bytearray(frame)
    garbled[index] ^= 0xFF
    return bytes(garbled)


class FrameDecoder:
    """Incremental decoder: arbitrary stream chunks in, whole frames out.

    TCP guarantees a byte stream, not message boundaries — a frame may
    arrive coalesced with its neighbours or split at any byte.  Feed
    whatever ``recv`` returned; complete frames come back in order.

    Corrupt frames — a CRC mismatch or a body :mod:`pickle` cannot
    decode — are *skipped*, counted in :attr:`corrupt_frames`, and
    reported through the optional ``on_corrupt`` callback; they never
    raise.  The length prefix keeps the stream synchronised, so one
    garbled frame costs exactly one frame.

    Args:
        max_frame_bytes: Frames whose declared length exceeds this are
            rejected *before* their body is buffered, so a corrupted or
            hostile length prefix cannot balloon memory.
        on_corrupt: Optional ``callback(reason)`` invoked once per
            skipped corrupt frame (transports meter the drop here).
    """

    def __init__(
        self,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        on_corrupt: Optional[Callable[[str], None]] = None,
    ):
        self.max_frame_bytes = int(max_frame_bytes)
        self.on_corrupt = on_corrupt
        self.corrupt_frames = 0
        self._buffer = bytearray()

    def _note_corrupt(self, reason: str) -> None:
        self.corrupt_frames += 1
        if self.on_corrupt is not None:
            self.on_corrupt(reason)

    def feed(self, data: bytes) -> List[object]:
        """Buffer ``data``; return every frame it completed.

        Raises:
            TransportError: On an oversized frame (one-line error naming
                both sizes; the connection should be dropped).
        """
        self._buffer.extend(data)
        frames: List[object] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                break
            length, crc = _HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise TransportError(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            if len(self._buffer) < HEADER_BYTES + length:
                break
            body = bytes(self._buffer[HEADER_BYTES : HEADER_BYTES + length])
            del self._buffer[: HEADER_BYTES + length]
            if zlib.crc32(body) != crc:
                self._note_corrupt(f"frame CRC mismatch ({length} bytes)")
                continue
            try:
                frames.append(pickle.loads(body))
            except Exception:  # noqa: BLE001 - a bad body must not kill the pump
                self._note_corrupt(f"undecodable frame body ({length} bytes)")
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward a not-yet-complete frame."""
        return len(self._buffer)


async def read_frames(
    reader: "asyncio.StreamReader",
    decoder: FrameDecoder,
    chunk_size: int = 65536,
):
    """Async generator of frames from ``reader`` until EOF.

    Propagates :class:`TransportError` from the decoder (oversized
    frame); the caller should close the connection.
    """
    while True:
        data = await reader.read(chunk_size)
        if not data:
            return
        for frame in decoder.feed(data):
            yield frame


# -- synchronous helpers (the chaos CLI client is a plain socket) ---------


class SyncFrameChannel:
    """Blocking frame I/O over a plain socket (for CLI control clients)."""

    def __init__(
        self,
        sock: "socket.socket",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        self.sock = sock
        self.max_frame_bytes = max_frame_bytes
        self._decoder = FrameDecoder(max_frame_bytes)
        self._pending: List[object] = []

    def send(self, payload: object) -> None:
        self.sock.sendall(encode_frame(payload, self.max_frame_bytes))

    def recv(self, timeout: Optional[float] = None) -> object:
        """Read one frame (raises TransportError on EOF or timeout)."""
        if self._pending:
            return self._pending.pop(0)
        self.sock.settimeout(timeout)
        while not self._pending:
            try:
                data = self.sock.recv(65536)
            except socket.timeout:
                raise TransportError(
                    f"timed out after {timeout}s waiting for a frame"
                ) from None
            if not data:
                raise TransportError("connection closed while reading a frame")
            self._pending.extend(self._decoder.feed(data))
        return self._pending.pop(0)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# The transport
# ---------------------------------------------------------------------------


#: In-flight item tags: how the drain ships ``(src, dst, message, tag)``.
_PLAIN, _CORRUPT, _DUPLICATE = range(3)


class _PeerLink(asyncio.Protocol):
    """Outbound connection to one remote node, with lazy reconnect.

    While connected, :meth:`flush` writes the frames one drain queued
    straight to the socket transport, joined into a single ``write``.
    A connect task exists only while connecting: frames wait in
    :attr:`pending` and are flushed when it succeeds.  When the peer is
    unreachable they are dropped (metered by the owning transport) and
    reconnection attempts are spaced by exponential backoff.
    """

    __slots__ = ("owner", "node", "pending", "sock", "connecting", "backoff",
                 "next_attempt")

    def __init__(self, owner: "TcpTransport", node: int):
        self.owner = owner
        self.node = node
        self.pending: List[bytes] = []
        self.sock: Optional[asyncio.WriteTransport] = None
        self.connecting: Optional["asyncio.Task[None]"] = None
        self.backoff = owner.reconnect_base
        self.next_attempt = 0.0

    def flush(self) -> None:
        """Ship :attr:`pending`: write it, start a connect, or drop it."""
        frames = self.pending
        if self.sock is not None:
            if self.sock.is_closing():
                # The peer reset and ``connection_lost`` has not run yet:
                # a write now would be discarded without a trace.
                self.drop_pending("disconnected")
                return
            self.sock.write(b"".join(frames))
            self.owner.socket_writes += 1
            self.owner.frames_coalesced += len(frames) - 1
            frames.clear()
        elif self.connecting is None:
            loop = self.owner.runtime.loop
            address = self.owner.directory.get(self.node)
            if address is None or loop.time() < self.next_attempt:
                self.drop_pending("disconnected")
            else:
                self.connecting = loop.create_task(self._connect(loop, address))

    async def _connect(self, loop, address: Tuple[str, int]) -> None:
        try:
            await asyncio.wait_for(
                loop.create_connection(lambda: self, address[0], address[1]),
                timeout=self.owner.connect_timeout,
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            # ignore_disconnects: the frames are lost, the protocol's
            # retries will cover them; we just arm the backoff.
            self._arm_backoff(loop)
            self.drop_pending("disconnected")
        finally:
            self.connecting = None

    def connection_made(self, transport) -> None:
        self.sock = transport
        self.backoff = self.owner.reconnect_base
        if self.pending:
            self.flush()

    def connection_lost(self, exc) -> None:
        self.sock = None
        self._arm_backoff(self.owner.runtime.loop)

    def _arm_backoff(self, loop) -> None:
        self.next_attempt = loop.time() + self.backoff
        self.backoff = min(self.backoff * 2, self.owner.reconnect_cap)

    def drop_pending(self, reason: str) -> None:
        for _ in self.pending:
            self.owner._drop(-1, self.node, "frame", reason)
        self.pending.clear()

    def close(self) -> None:
        if self.connecting is not None:
            self.connecting.cancel()
        if self.sock is not None:
            self.sock.close()
        self.drop_pending("shutdown")


class _InboundLink(asyncio.Protocol):
    """One accepted peer connection: bytes in, messages delivered in place."""

    __slots__ = ("owner", "decoder", "sock")

    def __init__(self, owner: "TcpTransport"):
        self.owner = owner
        self.decoder = FrameDecoder(
            owner.max_frame_bytes, on_corrupt=owner._on_corrupt
        )
        self.sock: Optional[asyncio.Transport] = None

    def connection_made(self, transport) -> None:
        self.sock = transport
        self.owner._inbound.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            frames = self.decoder.feed(data)
        except TransportError as exc:
            # One-line rejection; drop the connection, the peer's
            # backoff will re-establish a clean one.
            self.owner.frame_errors.append(str(exc))
            self.sock.close()
            return
        for frame in frames:
            self.owner._on_frame(frame)

    def connection_lost(self, exc) -> None:
        self.owner._inbound.discard(self)


class TcpTransport:
    """Socket-backed transport hosting a subset of the topology's nodes.

    Each process owns one ``TcpTransport`` serving its *local* nodes
    (one, in the cluster's spawn-per-node mode); sends to non-local
    nodes travel as frames to the peer process listed in the
    :attr:`directory`.  Local handlers are called directly from the
    delivery drain and from the inbound protocol's ``data_received``,
    exactly like :class:`AsyncioTransport`: synchronous handlers on one
    loop thread make a replica a one-thread server in every world.

    Link latency (protocol units, scaled by the runtime's
    ``time_scale``) and probabilistic loss are applied at the *sender*,
    mirroring the simulator's Network; the real network adds only its
    own (localhost-negligible) cost on top.

    Args:
        runtime: Owning :class:`AsyncioRuntime` (clock + RNG).
        topology: The full link graph (every process holds a copy).
        local_nodes: Node ids hosted by this process.
        directory: Initial ``node -> (host, port)`` map for remote
            peers; usually filled later via :meth:`update_directory`.
        latency: Per-link latency model (default: fixed 0.02 units).
        loss: Probability a message is dropped in flight.
        max_frame_bytes: Per-frame ceiling (oversized frames are
            refused with a one-line error on both ends).
        reconnect_base / reconnect_cap: Exponential backoff window for
            reconnecting to an unreachable peer, in wall seconds.
    """

    def __init__(
        self,
        runtime: AsyncioRuntime,
        topology,
        local_nodes: Sequence[int],
        directory: Optional[Dict[int, Tuple[str, int]]] = None,
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
        seed_stream: str = "network",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        reconnect_base: float = 0.05,
        reconnect_cap: float = 2.0,
        connect_timeout: float = 5.0,
    ):
        if not 0.0 <= loss < 1.0:
            raise SimulationError(f"loss probability {loss} outside [0, 1)")
        self.runtime = runtime
        self.topology = topology
        self.local_nodes: Set[int] = {int(n) for n in local_nodes}
        for node in self.local_nodes:
            if node not in topology:
                raise SimulationError(f"node {node} not in topology")
        self.directory: Dict[int, Tuple[str, int]] = dict(directory or {})
        self.latency = latency if latency is not None else FixedLatency()
        self.loss = float(loss)
        self.max_frame_bytes = int(max_frame_bytes)
        self.reconnect_base = float(reconnect_base)
        self.reconnect_cap = float(reconnect_cap)
        self.connect_timeout = float(connect_timeout)
        self.counters = TrafficCounters()
        self.link_state = LinkState()
        self._rng = runtime.rng.stream(seed_stream)
        self._handlers: Dict[int, MessageHandler] = {}
        #: ``(src, dst, message, tag)`` items awaiting their latency.
        self._in_flight = DeliveryQueue(runtime, self._dispatch_due)
        self._pumping = False
        self._peers: Dict[int, _PeerLink] = {}
        #: Peers the current drain queued frames for, flushed at its end.
        self._unflushed: List[_PeerLink] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._inbound: Set[_InboundLink] = set()
        self.address: Optional[Tuple[str, int]] = None
        #: ``write`` calls on peer sockets, and frames that rode along in
        #: another frame's write instead of costing their own.
        self.socket_writes = 0
        self.frames_coalesced = 0
        #: (node, exception) pairs from handlers that raised.
        self.handler_errors: List[Tuple[int, BaseException]] = []
        #: One-line records of refused inbound frames (oversized etc.).
        self.frame_errors: List[str] = []

    # -- lifecycle -------------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Start listening for peer frames; returns the bound address.

        ``port=0`` binds an ephemeral port — the caller registers the
        returned address with the cluster's directory service.
        """
        if self._server is not None:
            raise TransportError("transport already serving")
        self._server = await self.runtime.loop.create_server(
            lambda: _InboundLink(self), host, port
        )
        sock_host, sock_port = self._server.sockets[0].getsockname()[:2]
        self.address = (sock_host, sock_port)
        return self.address

    async def close(self) -> None:
        """Stop serving and sending for good; every message still in
        flight or pending a connect is metered as dropped."""
        self._pumping = False
        for src, dst, message, tag in self._in_flight.close():
            if tag != _DUPLICATE:
                self._drop(src, dst, message_kind(message), "shutdown")
        for link in list(self._inbound):
            link.sock.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        connecting = [p.connecting for p in self._peers.values() if p.connecting]
        for peer in self._peers.values():
            peer.close()
        self._peers.clear()
        # One loop pass at least: closed socket transports release their
        # sockets in a callback, and a cancelled connect must be awaited.
        await asyncio.gather(asyncio.sleep(0), *connecting, return_exceptions=True)

    def update_directory(self, directory: Dict[int, Tuple[str, int]]) -> None:
        """Merge peer addresses (nameserver push or lazy lookup result)."""
        for node, address in directory.items():
            self.directory[int(node)] = (str(address[0]), int(address[1]))

    # -- attachment (local nodes only) -----------------------------------

    def attach(self, node: int, handler: MessageHandler) -> None:
        """Register the delivery callback for a *local* node."""
        if node not in self.local_nodes:
            raise TransportError(
                f"node {node} is not hosted by this process "
                f"(local: {sorted(self.local_nodes)})"
            )
        self._handlers[node] = handler

    def detach(self, node: int) -> None:
        """Remove a node's handler; in-flight messages to it are dropped."""
        self._handlers.pop(node, None)

    def handler_for(self, node: int) -> Optional[MessageHandler]:
        return self._handlers.get(node)

    # -- fault injection -------------------------------------------------

    def set_node_down(self, node: int) -> None:
        self.link_state.set_node_down(node)

    def set_node_up(self, node: int) -> None:
        self.link_state.set_node_up(node)

    def node_is_up(self, node: int) -> bool:
        return self.link_state.node_is_up(node)

    def set_link_down(self, a: int, b: int) -> None:
        self.link_state.set_link_down(a, b)

    def set_link_up(self, a: int, b: int) -> None:
        self.link_state.set_link_up(a, b)

    def partition(self, groups) -> None:
        self.link_state.partition(groups)

    def heal_partition(self) -> None:
        self.link_state.heal_partition()

    def apply_packet_fault(self, action: str, params, duration: float) -> None:
        """Open a windowed packet-level fault on every channel."""
        self.link_state.packet.apply(action, params, duration, self.runtime.now)

    # -- delivery lifecycle -----------------------------------------------

    def start_pumps(self) -> None:
        """Start delivering: until now every due message is dropped."""
        self._pumping = True

    def delivery_stats(self) -> Dict[str, int]:
        """In-flight depth now and at peak, and how many socket writes
        carried how many extra frames."""
        return {
            "in_flight": len(self._in_flight),
            "in_flight_peak": self._in_flight.peak,
            "socket_writes": self.socket_writes,
            "frames_coalesced": self.frames_coalesced,
        }

    # -- neighbours -------------------------------------------------------

    def neighbors(self, node: int) -> List[int]:
        return list(self.topology.neighbors(node))

    def physical_neighbors(self, node: int) -> Sequence[int]:
        return self.topology.neighbors(node)

    # -- sending ----------------------------------------------------------

    def send(self, src: int, dst: int, message: object) -> bool:
        """One-hop send; True if the message entered the channel."""
        if src == dst:
            raise SimulationError(f"node {src} sending to itself")
        kind = message_kind(message)
        size = message_size(message)
        if not self.topology.has_edge(src, dst):
            raise SimulationError(f"no link {src}->{dst}")
        self.counters.note_send(kind, size)
        if self.link_state.active and not self.link_state.can_carry(src, dst):
            self._drop(src, dst, kind, "link-down")
            return False
        if self.loss and self._rng.random() < self.loss:
            self._drop(src, dst, kind, "loss")
            return True
        distance = self.topology.edge_weight(src, dst)
        delay = resolve_delay(self.latency, src, dst, distance, size)
        tag = _PLAIN
        packet = self.link_state.packet
        if packet.possible:
            # Same draw order as the other worlds (corrupt, latency,
            # reorder, duplicate).  A corrupted remote send still rides
            # the wire as a garbled frame — the *receiver's* decoder
            # meters and skips it, exercising the real error path.
            now = self.runtime.now
            corrupt_p = packet.corrupt_probability(now)
            if corrupt_p and self._rng.random() < corrupt_p:
                if dst in self.local_nodes:
                    # No wire to garble on a process-local hop; the
                    # receive side drops it immediately.
                    self.counters.corrupt_frames_dropped += 1
                    self._drop(src, dst, kind, "corrupt-frame")
                    return True
                tag = _CORRUPT
            factor = packet.latency_factor(now)
            if factor != 1.0:
                delay *= factor
            reorder = packet.reorder(now)
            if reorder is not None and self._rng.random() < reorder[0]:
                delay += self._rng.uniform(0.0, reorder[1])
                self.counters.reorders_applied += 1
            dup_p = packet.duplicate_probability(now)
            if dup_p and self._rng.random() < dup_p:
                self._in_flight.push(delay, (src, dst, message, _DUPLICATE))
        if not self._in_flight.push(delay, (src, dst, message, tag)):
            self._drop(src, dst, kind, "shutdown")
        return True

    def broadcast(self, src: int, message: object) -> int:
        sent = 0
        for neighbor in self.physical_neighbors(src):
            if self.send(src, neighbor, message):
                sent += 1
        return sent

    def _dispatch_due(self, items: List[Tuple[int, int, object, int]]) -> None:
        for src, dst, message, tag in items:
            if tag == _DUPLICATE:
                self._dispatch_duplicate(src, dst, message)
            else:
                self._dispatch(src, dst, message, tag == _CORRUPT)
        # Every frame this drain queued for one peer leaves in one write.
        for peer in self._unflushed:
            peer.flush()
        self._unflushed.clear()

    def _dispatch(
        self, src: int, dst: int, message: object, corrupt: bool = False
    ) -> None:
        """After the link latency: deliver locally or frame to the peer."""
        link_state = self.link_state
        if link_state.active and not (
            link_state.node_is_up(src) and link_state.node_is_up(dst)
        ):
            self._drop(src, dst, message_kind(message), "crashed-in-flight")
            return
        if dst in self.local_nodes:
            self._deliver(src, dst, message)
            return
        try:
            frame = encode_frame(("msg", src, dst, message), self.max_frame_bytes)
        except TransportError as exc:
            self.frame_errors.append(str(exc))
            self._drop(src, dst, message_kind(message), "oversized-frame")
            return
        if corrupt:
            frame = corrupt_frame_bytes(frame)
        self._enqueue_frame(dst, frame)

    def _deliver(self, src: int, dst: int, message: object) -> None:
        """Hand a message to its local node's handler, in place."""
        handler = self._handlers.get(dst) if self._pumping else None
        if handler is None:
            self._drop(src, dst, message_kind(message), "no-handler")
            return
        self.counters.messages_delivered += 1
        try:
            handler(src, message)
        except Exception as exc:  # noqa: BLE001 - replica must survive
            self.handler_errors.append((dst, exc))

    def _enqueue_frame(self, dst: int, frame: bytes) -> None:
        """Queue ``frame`` for the drain's flush, opening the link to
        ``dst`` on first use."""
        peer = self._peers.get(dst)
        if peer is None:
            peer = self._peers[dst] = _PeerLink(self, dst)
        if not peer.pending:
            self._unflushed.append(peer)
        peer.pending.append(frame)

    def _dispatch_duplicate(self, src: int, dst: int, message: object) -> None:
        """Ship the channel's duplicate copy; the receiver suppresses it."""
        if dst in self.local_nodes:
            self.counters.duplicates_suppressed += 1
            return
        try:
            frame = encode_frame(("dup", src, dst, message), self.max_frame_bytes)
        except TransportError:
            return
        self._enqueue_frame(dst, frame)

    # -- receiving ---------------------------------------------------------

    def _on_corrupt(self, reason: str) -> None:
        """A garbled inbound frame was skipped: meter, never raise."""
        self.counters.corrupt_frames_dropped += 1
        self.counters.messages_dropped += 1
        trace = self.runtime.trace
        if trace.wants("net.drop"):
            trace.record(
                self.runtime.now, "net.drop", src=-1, dst=-1, kind="frame",
                reason="corrupt-frame",
            )

    def _on_frame(self, frame: object) -> None:
        if isinstance(frame, tuple) and frame and frame[0] == "dup":
            # The channel duplicated a frame in flight; suppress the copy.
            self.counters.duplicates_suppressed += 1
            return
        if not (isinstance(frame, tuple) and frame and frame[0] == "msg"):
            self.frame_errors.append(f"unrecognised frame: {frame!r:.120}")
            return
        _, src, dst, message = frame
        if dst not in self.local_nodes:
            self._drop(src, dst, message_kind(message), "not-local")
            return
        if self.link_state.active and not self.link_state.can_carry(src, dst):
            self._drop(src, dst, message_kind(message), "link-down")
            return
        self._deliver(src, dst, message)

    # -- metering ----------------------------------------------------------

    def _drop(self, src: int, dst: int, kind: str, reason: str) -> None:
        self.counters.messages_dropped += 1
        trace = self.runtime.trace
        if trace.wants("net.drop"):
            trace.record(
                self.runtime.now, "net.drop", src=src, dst=dst, kind=kind,
                reason=reason,
            )
