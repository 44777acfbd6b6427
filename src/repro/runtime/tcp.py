"""TcpTransport: the protocol over real sockets, across OS processes.

The same :class:`~repro.port.linkstate.Channel` the in-process
:class:`~repro.runtime.live.AsyncioTransport` is, implemented on
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

The send path, its :class:`~repro.port.linkstate.LinkModel` verdict
and local delivery are the simulator's code (the
:class:`~repro.port.linkstate.Channel`), the delivery heap is
:class:`~repro.runtime.live.AsyncioTransport`'s; this transport only
sends a remote destination to the wire, and flushes its peers once a
drain ends.  A chaos controller broadcasts each fault action to every
node process, which applies it to its own transport's link model, so
sender-side refusals agree across processes without shared memory.

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
from ..port.base import MessageHandler
from ..port.latency import LatencyModel
from ..port.linkstate import CORRUPT, DUPLICATED, message_kind
from .live import AsyncioRuntime, AsyncioTransport

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


class TcpTransport(AsyncioTransport):
    """Socket-backed transport hosting a subset of the topology's nodes.

    Each process owns one ``TcpTransport`` serving its *local* nodes
    (one, in the cluster's process-per-node mode).  It is the queue
    transport plus a wire: sends, the link model's verdict, the
    delivery heap and local handler calls are inherited from
    :class:`AsyncioTransport` and its channel; a due message (or
    duplicate copy, or garbled frame) whose destination is not local
    leaves as a frame to the peer process listed in the
    :attr:`directory`, and frames arriving from peers are delivered in
    place by the inbound protocol's ``data_received``.

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
        super().__init__(runtime, topology, latency, loss, seed_stream)
        self.local_nodes: Set[int] = {int(n) for n in local_nodes}
        for node in self.local_nodes:
            if node not in topology:
                raise SimulationError(f"node {node} not in topology")
        self.directory: Dict[int, Tuple[str, int]] = dict(directory or {})
        self.max_frame_bytes = int(max_frame_bytes)
        self.reconnect_base = float(reconnect_base)
        self.reconnect_cap = float(reconnect_cap)
        self.connect_timeout = float(connect_timeout)
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
        await self.stop_pumps()
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

    def attach(self, node: int, handler: MessageHandler) -> None:
        """Register the delivery callback for a *local* node."""
        if node not in self.local_nodes:
            raise TransportError(
                f"node {node} is not hosted by this process "
                f"(local: {sorted(self.local_nodes)})"
            )
        super().attach(node, handler)

    def delivery_stats(self) -> Dict[str, int]:
        """In-flight depth now and at peak, and how many socket writes
        carried how many extra frames."""
        stats = super().delivery_stats()
        stats["socket_writes"] = self.socket_writes
        stats["frames_coalesced"] = self.frames_coalesced
        return stats

    # -- the remote hop ----------------------------------------------------

    def _deliver(self, src: int, dst: int, message: object) -> None:
        if dst in self.local_nodes:
            super()._deliver(src, dst, message)
        else:
            self._ship(src, dst, message, 0)

    def _suppress_duplicate(self, src: int, dst: int, message: object) -> None:
        if dst in self.local_nodes:
            super()._suppress_duplicate(src, dst, message)
        else:
            self._ship(src, dst, message, DUPLICATED)

    def _corrupt(self, src: int, dst: int, message: object, delay: float) -> None:
        """A corrupted send to a remote node still rides the wire as a
        garbled frame: the *receiver's* decoder meters and skips it,
        exercising the real error path."""
        if dst in self.local_nodes:
            super()._corrupt(src, dst, message, delay)
        else:
            self._schedule(delay, self._ship, src, dst, message, CORRUPT)

    def _drained(self) -> None:
        # Every frame this drain queued for one peer leaves in one write.
        for peer in self._unflushed:
            peer.flush()
        self._unflushed.clear()

    def _ship(self, src: int, dst: int, message: object, flag: int) -> None:
        """After the link latency: frame a due item for ``dst``'s process.

        The channel's duplicate copy travels tagged ``"dup"`` for the
        receiver to suppress; a ``CORRUPT`` item travels garbled.
        """
        duplicate = flag == DUPLICATED
        links = self.links
        if not duplicate and links.down_nodes and not links.endpoints_up(src, dst):
            self._drop(src, dst, message_kind(message), "crashed-in-flight")
            return
        tag = "dup" if duplicate else "msg"
        try:
            frame = encode_frame((tag, src, dst, message), self.max_frame_bytes)
        except TransportError as exc:
            if not duplicate:
                self.frame_errors.append(str(exc))
                self._drop(src, dst, message_kind(message), "oversized-frame")
            return
        if flag == CORRUPT:
            frame = corrupt_frame_bytes(frame)
        peer = self._peers.get(dst)
        if peer is None:
            peer = self._peers[dst] = _PeerLink(self, dst)
        if not peer.pending:
            self._unflushed.append(peer)
        peer.pending.append(frame)

    # -- receiving ---------------------------------------------------------

    def _on_corrupt(self, reason: str) -> None:
        """A garbled inbound frame was skipped: meter, never raise."""
        self.counters.corrupt_frames_dropped += 1
        self._drop(-1, -1, "frame", "corrupt-frame")

    def _on_frame(self, frame: object) -> None:
        """One decoded frame from a peer socket: ``(tag, src, dst,
        message)`` with tag ``"msg"`` or ``"dup"`` and integer node ids.
        Anything else is one ``frame_errors`` line and one metered drop,
        never an exception out of ``data_received``."""
        if not (
            isinstance(frame, tuple)
            and len(frame) == 4
            and frame[0] in ("msg", "dup")
            and type(frame[1]) is int
            and type(frame[2]) is int
        ):
            self.frame_errors.append(f"unrecognised frame: {frame!r:.120}")
            self._drop(-1, -1, "frame", "malformed-frame")
            return
        tag, src, dst, message = frame
        if tag == "dup":
            # The channel duplicated a frame in flight; suppress the copy.
            super()._suppress_duplicate(src, dst, message)
        elif dst not in self.local_nodes:
            self._drop(src, dst, message_kind(message), "not-local")
        elif not self.links.can_carry(src, dst):
            self._drop(src, dst, message_kind(message), "link-down")
        else:
            super()._deliver(src, dst, message)
