"""TCP framing and socket transport: decoding, reconnect, channels.

The framing layer (``encode_frame`` / ``FrameDecoder``) is pure and
tested exhaustively, including a hypothesis sweep over random message
sizes and arbitrary chunk boundaries.  The transport tests run two
``TcpTransport`` instances on one event loop — real sockets, no
subprocesses — which keeps them fast while still exercising connect,
frame dispatch, drop-while-disconnected, and reconnect-after-restart.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.runtime.live import AsyncioRuntime
from repro.runtime.tcp import (
    HEADER_BYTES,
    FrameDecoder,
    SyncFrameChannel,
    TcpTransport,
    _InboundLink,
    corrupt_frame_bytes,
    encode_frame,
)
from repro.sim.trace import Tracer
from repro.topology.simple import line


class TestFraming:
    def test_round_trip_one_frame(self):
        payload = {"hello": [1, 2, 3]}
        frames = FrameDecoder().feed(encode_frame(payload))
        assert frames == [payload]

    def test_byte_by_byte_partial_reads(self):
        # A frame arriving one byte at a time decodes exactly once,
        # only when complete.
        data = encode_frame(("update", 42))
        decoder = FrameDecoder()
        frames = []
        for i in range(len(data)):
            got = decoder.feed(data[i : i + 1])
            if i < len(data) - 1:
                assert got == []
            frames.extend(got)
        assert frames == [("update", 42)]
        assert decoder.pending_bytes == 0

    def test_coalesced_frames_in_one_read(self):
        blob = b"".join(encode_frame(i) for i in range(5))
        assert FrameDecoder().feed(blob) == [0, 1, 2, 3, 4]

    def test_split_across_header_boundary(self):
        data = encode_frame("x" * 100)
        decoder = FrameDecoder()
        assert decoder.feed(data[: HEADER_BYTES - 1]) == []
        assert decoder.feed(data[HEADER_BYTES - 1 :]) == ["x" * 100]

    def test_oversized_frame_rejected_with_one_line_error(self):
        big = encode_frame("y" * 4096)
        decoder = FrameDecoder(max_frame_bytes=1024)
        with pytest.raises(TransportError) as excinfo:
            decoder.feed(big)
        assert "\n" not in str(excinfo.value)
        assert "1024" in str(excinfo.value)

    def test_oversized_frame_rejected_before_buffering(self):
        # Only the header is enough to refuse: the decoder must not
        # wait for (or store) the oversized body.
        big = encode_frame("y" * 4096)
        decoder = FrameDecoder(max_frame_bytes=1024)
        with pytest.raises(TransportError):
            decoder.feed(big[: HEADER_BYTES])

    def test_encode_refuses_oversized_payload(self):
        with pytest.raises(TransportError):
            encode_frame("z" * 4096, max_frame_bytes=128)

    @settings(max_examples=40, deadline=None)
    @given(
        payloads=st.lists(
            st.binary(min_size=0, max_size=2048), min_size=1, max_size=8
        ),
        data=st.data(),
    )
    def test_any_chunking_recovers_every_frame_in_order(self, payloads, data):
        stream = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        frames = []
        position = 0
        while position < len(stream):
            size = data.draw(
                st.integers(min_value=1, max_value=len(stream) - position)
            )
            frames.extend(decoder.feed(stream[position : position + size]))
            position += size
        assert frames == payloads
        assert decoder.pending_bytes == 0


class TestCorruptFrames:
    def test_corrupt_frame_bytes_keeps_header_and_length(self):
        frame = encode_frame(("update", 7))
        garbled = corrupt_frame_bytes(frame)
        assert len(garbled) == len(frame)
        assert garbled[:HEADER_BYTES] == frame[:HEADER_BYTES]
        assert garbled != frame

    def test_corrupting_empty_body_refused(self):
        with pytest.raises(TransportError):
            corrupt_frame_bytes(b"\x00" * HEADER_BYTES)

    def test_decoder_skips_corrupt_frame_and_resynchronises(self):
        # valid | corrupt | valid on one stream: the garbage is metered
        # and skipped, both valid frames decode, nothing raises.
        reasons = []
        decoder = FrameDecoder(on_corrupt=reasons.append)
        stream = (
            encode_frame("a")
            + corrupt_frame_bytes(encode_frame("garbled"))
            + encode_frame("b")
        )
        assert decoder.feed(stream) == ["a", "b"]
        assert decoder.corrupt_frames == 1
        assert len(reasons) == 1
        assert "CRC" in reasons[0]
        assert decoder.pending_bytes == 0

    def test_undecodable_body_with_valid_crc_also_skipped(self):
        # A body that passes the CRC but is not unpicklable must be
        # skipped the same way — the pump never sees the exception.
        import struct
        import zlib

        body = b"\x00not-a-pickle"
        frame = struct.pack(">II", len(body), zlib.crc32(body)) + body
        decoder = FrameDecoder()
        assert decoder.feed(frame + encode_frame("ok")) == ["ok"]
        assert decoder.corrupt_frames == 1

    @settings(max_examples=60, deadline=None)
    @given(
        payloads=st.lists(
            st.binary(min_size=1, max_size=512), min_size=1, max_size=8
        ),
        corrupt_after=st.lists(st.booleans(), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_valid_frames_decode_exactly_once_amid_corruption(
        self, payloads, corrupt_after, data
    ):
        # Satellite property: any interleaving of corrupt injections
        # with valid frames, fed in arbitrary chunks, decodes every
        # valid frame exactly once, in order, and never raises.
        stream = b""
        corrupted = 0
        for i, payload in enumerate(payloads):
            frame = encode_frame(payload)
            if corrupt_after[i % len(corrupt_after)]:
                stream += corrupt_frame_bytes(frame)
                corrupted += 1
            stream += frame
        decoder = FrameDecoder()
        frames = []
        position = 0
        while position < len(stream):
            size = data.draw(
                st.integers(min_value=1, max_value=len(stream) - position)
            )
            frames.extend(decoder.feed(stream[position : position + size]))
            position += size
        assert frames == payloads
        assert decoder.corrupt_frames == corrupted
        assert decoder.pending_bytes == 0


class TestSyncFrameChannel:
    def test_round_trip_over_socketpair(self):
        left_sock, right_sock = socket.socketpair()
        left = SyncFrameChannel(left_sock)
        right = SyncFrameChannel(right_sock)
        try:
            left.send(("ping", 1))
            assert right.recv(timeout=2.0) == ("ping", 1)
            right.send(("pong", 2))
            right.send(("pong", 3))
            assert left.recv(timeout=2.0) == ("pong", 2)
            assert left.recv(timeout=2.0) == ("pong", 3)
        finally:
            left.close()
            right.close()

    def test_recv_timeout_raises(self):
        left_sock, right_sock = socket.socketpair()
        channel = SyncFrameChannel(left_sock)
        try:
            with pytest.raises(TransportError):
                channel.recv(timeout=0.05)
        finally:
            channel.close()
            right_sock.close()

    def test_recv_after_peer_close_raises(self):
        left_sock, right_sock = socket.socketpair()
        channel = SyncFrameChannel(left_sock)
        right_sock.close()
        try:
            with pytest.raises(TransportError):
                channel.recv(timeout=1.0)
        finally:
            channel.close()


def _two_transports(loop_seed=1, **kwargs):
    """Two TcpTransports on one loop, each hosting one node of a ring."""
    topology = line(2)
    runtime_a = AsyncioRuntime(seed=loop_seed, time_scale=0.001)
    runtime_b = AsyncioRuntime(seed=loop_seed + 1, time_scale=0.001)
    runtime_a.start()
    runtime_b.start()
    a = TcpTransport(runtime_a, topology, local_nodes=[0], **kwargs)
    b = TcpTransport(runtime_b, topology, local_nodes=[1], **kwargs)
    return a, b


async def _wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


@contextlib.contextmanager
def _one_tick(loop):
    """Freeze ``loop.time()``: every send inside shares one due time, so
    one drain is certain to carry them all."""
    frozen = loop.time()
    loop.time = lambda: frozen
    try:
        yield
    finally:
        del loop.time


@contextlib.contextmanager
def _gated_connects(loop, fail=False):
    """Hold every outbound connect at a gate; ``gate.set()`` lets them
    through (or, with ``fail``, refuses them).  Yields ``(gate, attempts)``."""
    real = loop.create_connection
    gate = asyncio.Event()
    attempts = []

    async def create_connection(factory, host, port, **kwargs):
        attempts.append((host, port))
        await gate.wait()
        if fail:
            raise ConnectionRefusedError("gated connect refused")
        return await real(factory, host, port, **kwargs)

    loop.create_connection = create_connection
    try:
        yield gate, attempts
    finally:
        del loop.create_connection


async def _started_pair(received, **kwargs):
    """Two serving, started transports; node 1's deliveries land in
    ``received``."""
    a, b = _two_transports(**kwargs)
    directory = {0: await a.serve(), 1: await b.serve()}
    a.update_directory(directory)
    b.update_directory(directory)
    a.attach(0, lambda src, msg: None)
    b.attach(1, lambda src, msg: received.append(msg))
    a.start_pumps()
    b.start_pumps()
    return a, b


class TestTcpTransport:
    def test_two_frames_in_one_tick_ride_one_socket_write(self):
        async def main():
            received = []
            a, b = await _started_pair(received)
            try:
                a.send(0, 1, "connect")
                await _wait_for(lambda: received == ["connect"])
                writes = a.socket_writes
                with _one_tick(asyncio.get_running_loop()):
                    a.send(0, 1, "one")
                    a.send(0, 1, "two")
                await _wait_for(lambda: len(received) == 3)
                assert received == ["connect", "one", "two"]
                assert a.socket_writes == writes + 1
                assert a.frames_coalesced == 1
                assert b.counters.messages_delivered == 3
                stats = a.delivery_stats()
                assert stats["in_flight"] == 0 and stats["in_flight_peak"] == 2
                assert stats["socket_writes"] == a.socket_writes
            finally:
                await a.close()
                await b.close()

        asyncio.run(main())

    def test_data_path_creates_no_task_once_connected(self):
        async def main():
            received = []
            a, b = await _started_pair(received)
            loop = asyncio.get_running_loop()
            try:
                a.send(0, 1, "connect")  # the one task: the connect itself
                await _wait_for(lambda: received == ["connect"])
                real, made = loop.create_task, []
                loop.create_task = lambda *args, **kw: made.append(args) or real(
                    *args, **kw
                )
                try:
                    for i in range(20):
                        a.send(0, 1, i)
                    await _wait_for(lambda: len(received) == 21)
                finally:
                    del loop.create_task
                assert received[1:] == list(range(20))
                assert made == []
            finally:
                await a.close()
                await b.close()

        asyncio.run(main())

    def test_frames_sent_during_a_connect_are_flushed_when_it_lands(self):
        async def main():
            received = []
            a, b = await _started_pair(received)
            try:
                with _gated_connects(asyncio.get_running_loop()) as (gate, attempts):
                    a.send(0, 1, "m0")
                    await _wait_for(lambda: len(attempts) == 1)
                    a.send(0, 1, "m1")
                    a.send(0, 1, "m2")
                    await _wait_for(lambda: len(a._peers[1].pending) == 3)
                    assert len(attempts) == 1  # one connect, not one per frame
                    assert received == [] and a.socket_writes == 0
                    gate.set()
                    await _wait_for(lambda: len(received) == 3)
                assert received == ["m0", "m1", "m2"]
                assert a.socket_writes == 1 and a.frames_coalesced == 2
                assert a.counters.messages_dropped == 0
                assert a._peers[1].connecting is None
            finally:
                await a.close()
                await b.close()

        asyncio.run(main())

    def test_failed_connect_drops_its_frames_and_backoff_is_honoured(self):
        async def main():
            received = []
            a, b = await _started_pair(received, reconnect_base=0.3, reconnect_cap=1.0)
            loop = asyncio.get_running_loop()
            try:
                with _gated_connects(loop, fail=True) as (gate, attempts):
                    a.send(0, 1, "m0")
                    await _wait_for(lambda: len(attempts) == 1)
                    a.send(0, 1, "m1")
                    await _wait_for(lambda: len(a._peers[1].pending) == 2)
                    assert a.counters.messages_dropped == 0
                    failed_at = loop.time()
                    gate.set()
                    # Both frames of the failed connect: dropped, metered.
                    await _wait_for(lambda: a.counters.messages_dropped == 2)
                    peer = a._peers[1]
                    assert not peer.pending and peer.connecting is None
                    assert peer.next_attempt >= failed_at + 0.3
                    # Inside the backoff window: dropped without a connect.
                    a.send(0, 1, "m2")
                    await _wait_for(lambda: a.counters.messages_dropped == 3)
                    assert loop.time() < peer.next_attempt, "box stalled; rerun"
                    assert len(attempts) == 1
                # Past it (and with connects working again): delivered.
                await asyncio.sleep(max(0.0, peer.next_attempt - loop.time()) + 0.01)
                a.send(0, 1, "m3")
                await _wait_for(lambda: received == ["m3"])
                assert peer.backoff == 0.3  # reset by the successful connect
                assert a.counters.messages_sent == 4
            finally:
                await a.close()
                await b.close()

        asyncio.run(main())

    def test_frame_for_a_closing_socket_is_dropped_and_metered(self):
        async def main():
            received = []
            a, b = await _started_pair(received)
            try:
                a.send(0, 1, "connect")
                await _wait_for(lambda: received == ["connect"])
                peer, writes = a._peers[1], a.socket_writes
                # What a peer reset leaves behind: the socket transport is
                # closing at once, ``connection_lost`` runs a loop pass
                # later, and a write in between is discarded silently.
                a.attach(0, lambda src, msg: peer.sock.abort())
                with _one_tick(asyncio.get_running_loop()):
                    a.send(1, 0, "reset")  # local hop, first in the drain
                    a.send(0, 1, "lost")
                await _wait_for(lambda: a.counters.messages_dropped == 1)
                assert a.socket_writes == writes and a.frames_coalesced == 0
                await _wait_for(lambda: peer.sock is None)
                assert not peer.pending and received == ["connect"]
            finally:
                await a.close()
                await b.close()

        asyncio.run(main())

    def test_close_meters_in_flight_and_pending_connect_frames(self):
        async def main():
            received = []
            a, b = await _started_pair(received)
            with _gated_connects(asyncio.get_running_loop()) as (gate, attempts):
                a.send(0, 1, "pending the connect")
                await _wait_for(lambda: len(attempts) == 1)
                a.send(0, 1, "in the heap")
                assert a.delivery_stats()["in_flight"] == 1
                await a.close()
                await b.close()
            counters = a.counters
            assert counters.messages_sent == 2 and counters.messages_dropped == 2
            assert a.send(0, 1, "after close") is True  # metered, not lost
            assert counters.messages_sent == (
                counters.messages_delivered + counters.messages_dropped
            )
            assert a.delivery_stats()["in_flight"] == 0
            assert asyncio.all_tasks() == {asyncio.current_task()}
            assert received == []

        asyncio.run(main())

    def test_delivers_between_two_transports(self):
        async def main():
            a, b = _two_transports()
            received = []
            try:
                addr_a = await a.serve()
                addr_b = await b.serve()
                directory = {0: addr_a, 1: addr_b}
                a.update_directory(directory)
                b.update_directory(directory)
                a.attach(0, lambda src, msg: None)
                b.attach(1, lambda src, msg: received.append((src, msg)))
                a.start_pumps()
                b.start_pumps()
                for i in range(5):
                    assert a.send(0, 1, f"m{i}") is True
                await _wait_for(lambda: len(received) == 5)
                assert received == [(0, f"m{i}") for i in range(5)]
                assert a.counters.messages_sent == 5
                assert b.counters.messages_delivered == 5
            finally:
                await a.close()
                await b.close()

        asyncio.run(main())

    def test_reconnects_after_peer_restart(self):
        async def main():
            a, b = _two_transports(reconnect_base=0.01, reconnect_cap=0.05)
            received = []
            try:
                addr_a = await a.serve()
                addr_b = await b.serve()
                directory = {0: addr_a, 1: addr_b}
                a.update_directory(directory)
                b.update_directory(directory)
                a.attach(0, lambda src, msg: None)
                b.attach(1, lambda src, msg: received.append(msg))
                a.start_pumps()
                b.start_pumps()
                a.send(0, 1, "before")
                await _wait_for(lambda: received == ["before"])

                # Kill node 1's process stand-in entirely...
                await b.close()
                a.send(0, 1, "lost")  # dropped and metered, never raises
                await asyncio.sleep(0.05)

                # ...and restart it on the same advertised port.
                runtime_b2 = AsyncioRuntime(seed=9, time_scale=0.001)
                runtime_b2.start()
                b2 = TcpTransport(
                    runtime_b2,
                    line(2),
                    local_nodes=[1],
                    reconnect_base=0.01,
                    reconnect_cap=0.05,
                )
                await b2.serve(addr_b[0], addr_b[1])
                b2.update_directory(directory)
                b2.attach(1, lambda src, msg: received.append(msg))
                b2.start_pumps()
                try:
                    # Delivery resumes once the peer link reconnects;
                    # keep sending (ignore_disconnects semantics: frames
                    # sent while down are lost, not queued forever).
                    async def pump_sends():
                        for i in range(200):
                            a.send(0, 1, f"after{i}")
                            if any(
                                isinstance(m, str) and m.startswith("after")
                                for m in received
                            ):
                                return
                            await asyncio.sleep(0.02)

                    await asyncio.wait_for(pump_sends(), timeout=10.0)
                    assert any(
                        isinstance(m, str) and m.startswith("after")
                        for m in received
                    )
                    assert "lost" not in received
                finally:
                    await b2.close()
            finally:
                await a.close()

        asyncio.run(main())

    def test_send_refused_by_link_state(self):
        async def main():
            a, b = _two_transports()
            try:
                addr_a = await a.serve()
                addr_b = await b.serve()
                directory = {0: addr_a, 1: addr_b}
                a.update_directory(directory)
                b.update_directory(directory)
                a.attach(0, lambda src, msg: None)
                b.attach(1, lambda src, msg: None)
                a.start_pumps()
                b.start_pumps()
                a.links.set_node_down(1)
                assert a.send(0, 1, "m") is False
                assert a.counters.messages_dropped == 1
                a.links.set_node_up(1)
                assert a.send(0, 1, "m") is True
            finally:
                await a.close()
                await b.close()

        asyncio.run(main())

    def test_oversized_inbound_frame_recorded_not_fatal(self):
        async def main():
            topology = line(2)
            runtime = AsyncioRuntime(seed=1, time_scale=0.001)
            runtime.start()
            b = TcpTransport(
                runtime, topology, local_nodes=[1], max_frame_bytes=512
            )
            try:
                addr = await b.serve()
                b.attach(1, lambda src, msg: None)
                b.start_pumps()
                reader, writer = await asyncio.open_connection(*addr)
                writer.write(encode_frame("x" * 4096))
                await writer.drain()
                await _wait_for(lambda: len(b.frame_errors) == 1)
                assert "\n" not in b.frame_errors[0]
                writer.close()
            finally:
                await b.close()

        asyncio.run(main())

    def test_send_landing_after_close_opens_no_link(self):
        """A latency timer that fires after ``close()`` must not start a
        peer-link task: nothing is left to await it, and the loop would
        destroy it mid-connect ("Task was destroyed but it is pending")."""

        async def main():
            a, b = _two_transports()
            addr_a = await a.serve()
            addr_b = await b.serve()
            a.update_directory({0: addr_a, 1: addr_b})
            a.attach(0, lambda src, msg: None)
            a.start_pumps()
            assert a.send(0, 1, "in flight") is True  # latency timer armed
            assert a.counters.messages_dropped == 0
            await a.close()
            await b.close()
            await asyncio.sleep(0.05)  # by now it fired into a closed transport
            assert not a._peers
            assert a.counters.messages_dropped == 1
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(main())


class TestInboundFrameValidation:
    """Bytes from a peer socket never raise out of ``data_received``."""

    MALFORMED = [
        ("msg", 1),  # too short
        ("msg", 1, 0, "x", "extra"),  # too long
        ("msg", 1, [0], "x"),  # unhashable dst
        ("msg", "1", 0, "x"),  # src not an int
        ("dup", 1),
        ("dup", 1, {0: 0}, "x"),
        ("nope", 1, 0, "x"),  # unknown tag
        "not a tuple",
    ]

    @pytest.mark.parametrize("shape", MALFORMED, ids=repr)
    def test_malformed_frame_is_one_error_line_and_one_metered_drop(self, shape):
        runtime = AsyncioRuntime(seed=1, time_scale=0.001)
        transport = TcpTransport(runtime, line(2), local_nodes=[0])
        received = []
        transport.attach(0, lambda src, msg: received.append((src, msg)))
        transport.start_pumps()
        link = _InboundLink(transport)
        # One chunk: the bad frame, then a good one on the same connection.
        link.data_received(encode_frame(shape) + encode_frame(("msg", 1, 0, "ok")))
        assert received == [(1, "ok")]
        assert len(transport.frame_errors) == 1
        assert "\n" not in transport.frame_errors[0]
        assert transport.counters.messages_dropped == 1
        assert transport.counters.messages_delivered == 1


class TestTcpPacketFaults:
    def _local_pair(self, trace):
        """One process hosting both ends of a link: no wire involved."""
        runtime = AsyncioRuntime(seed=1, time_scale=0.001, trace=trace)
        runtime.start()
        transport = TcpTransport(runtime, line(2), local_nodes=[0, 1])
        return runtime, transport

    def test_process_local_duplicate_is_suppressed_on_the_record(self):
        async def main():
            trace = Tracer()
            runtime, transport = self._local_pair(trace)
            received = []
            transport.attach(1, lambda src, msg: received.append(msg))
            transport.start_pumps()
            transport.links.apply_packet_fault(
                "packet_duplicate", (1.0,), 1000.0, runtime.now
            )
            try:
                assert transport.send(0, 1, "once") is True
                await _wait_for(lambda: transport.counters.duplicates_suppressed == 1)
                assert received == ["once"]
                drops = [r for r in trace.records if r.category == "net.drop"]
                assert [(r.fields["src"], r.fields["dst"], r.fields["reason"]) for r in drops] == [
                    (0, 1, "duplicate-suppressed")
                ]
            finally:
                await transport.close()

        asyncio.run(main())

    def test_remote_duplicate_and_corrupt_frames_are_metered_at_the_receiver(self):
        async def main():
            received = []
            a, b = await _started_pair(received)
            b.runtime.trace = trace = Tracer()
            try:
                a.links.apply_packet_fault(
                    "packet_duplicate", (1.0,), 1000.0, a.runtime.now
                )
                assert a.send(0, 1, "twice on the wire") is True
                await _wait_for(lambda: b.counters.duplicates_suppressed == 1)
                assert received == ["twice on the wire"]
                reasons = [
                    r.fields["reason"] for r in trace.records if r.category == "net.drop"
                ]
                assert reasons == ["duplicate-suppressed"]
                a.links.apply_packet_fault(
                    "corrupt_frame", (1.0,), 1000.0, a.runtime.now
                )
                assert a.send(0, 1, "garbled") is True
                await _wait_for(lambda: b.counters.corrupt_frames_dropped == 1)
                # The sender metered nothing: the wire carried the frame.
                assert a.counters.corrupt_frames_dropped == 0
                assert received == ["twice on the wire"]
            finally:
                await a.close()
                await b.close()

        asyncio.run(main())


class TestTcpClusterPlumbing:
    def test_successful_put_wakes_the_hub_loop_once(self):
        """``_tcp_call`` posts its dispatch and nothing else: the reply
        handler already forgot the call id, so a second
        ``call_soon_threadsafe`` would be a wasted self-pipe write and
        loop wake per client op."""
        from repro.runtime.cluster import ReplicaCluster

        with ReplicaCluster(
            line(2), seed=3, time_scale=0.01, transport="tcp", standby_hubs=0
        ) as cluster:
            cluster.put("warm", "up", node=0)
            loop = cluster._loop
            real, posted = loop.call_soon_threadsafe, []
            loop.call_soon_threadsafe = lambda *args: posted.append(args) or real(
                *args
            )
            try:
                update = cluster.put("k", "v", node=1)
            finally:
                del loop.call_soon_threadsafe
            assert len(posted) == 1
            assert cluster._tcp_pending == {}
            assert cluster.wait_replicated(update.uid, timeout=20.0)

    def test_unanswered_call_times_out_and_forgets_its_id(self, monkeypatch):
        from repro.errors import ReplicationError
        from repro.runtime import cluster as cluster_module
        from repro.runtime.cluster import ReplicaCluster

        class DeafWriter:
            def is_closing(self):
                return False

            def write(self, data):
                pass

        with ReplicaCluster(
            line(2), seed=3, time_scale=0.01, transport="tcp", standby_hubs=0
        ) as cluster:
            monkeypatch.setattr(cluster_module, "_CALL_TIMEOUT", 0.2)
            real = cluster._node_writers[1]
            cluster._node_writers[1] = DeafWriter()
            try:
                with pytest.raises(ReplicationError, match="timed out"):
                    cluster.put("k", "v", node=1)
            finally:
                cluster._node_writers[1] = real
            assert cluster._call(lambda: dict(cluster._tcp_pending)) == {}

    def test_stats_sum_the_delivery_block_over_node_processes(self):
        from repro.runtime.cluster import ReplicaCluster

        with ReplicaCluster(
            line(3), seed=4, time_scale=0.005, transport="tcp", standby_hubs=0
        ) as cluster:
            update = cluster.put("k", "v", node=0)
            assert cluster.wait_replicated(update.uid, timeout=20.0)
            stats = cluster.stats()
            delivery = stats["delivery"]
            assert set(delivery) == {
                "in_flight", "in_flight_peak", "socket_writes", "frames_coalesced",
            }
            # Every message crossed a socket: one write carries >= 1 frame.
            assert 0 < delivery["socket_writes"]
            assert (
                delivery["socket_writes"] + delivery["frames_coalesced"]
                <= stats["traffic"]["messages_sent"]
            )
            assert delivery["in_flight_peak"] >= 3  # summed: >= 1 per process
            assert stats["traffic"]["messages_dropped"] == 0


class TestNodeProcessShutdown:
    def test_children_leave_no_pending_tasks(self, capfd):
        """Boot, load and close a 3-process cluster: the node processes
        must cancel *and await* their tasks before their loop closes.

        ``time_scale=0.001`` makes session and link timers fire every
        millisecond, so a timer lands inside the shutdown window on about
        a third of the runs of the unfixed code; the transport-level test
        above pins the mechanism deterministically."""
        from repro.runtime.cluster import ReplicaCluster

        with ReplicaCluster(
            line(3), seed=5, time_scale=0.001, transport="tcp", standby_hubs=0
        ) as cluster:
            for i in range(60):
                cluster.put(f"k{i % 8}", "v" * 64, node=i % 3)
        stderr = capfd.readouterr().err
        assert "Task was destroyed but it is pending" not in stderr
        assert "Future exception was never retrieved" not in stderr
