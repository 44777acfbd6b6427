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
    corrupt_frame_bytes,
    encode_frame,
)
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


class TestTcpTransport:
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
                a.set_node_down(1)
                assert a.send(0, 1, "m") is False
                assert a.counters.messages_dropped == 1
                a.set_node_up(1)
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
