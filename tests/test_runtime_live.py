"""Wall-clock runtime adapter and the live ReplicaCluster API.

These tests run real asyncio event loops, so protocol time is scaled
down hard (``time_scale`` of a few milliseconds per unit) and all
assertions about ordering aggregate over several writes rather than
trusting a single wall-clock race.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError, ReplicationError, SimulationError
from repro.core.system import build_node_stack
from repro.demand.static import ExplicitDemand
from repro.runtime import Runtime
from repro.runtime.cluster import ReplicaCluster
from repro.runtime.live import AsyncioRuntime, AsyncioTransport
from repro.core.variants import fast_consistency, weak_consistency
from repro.sim.network import DistanceLatency, FixedLatency
from repro.sim.trace import Tracer
from repro.topology.graph import Topology
from repro.topology.simple import ring, star


class TestAsyncioRuntime:
    def test_is_a_runtime(self):
        assert isinstance(AsyncioRuntime(seed=1), Runtime)

    def test_requires_start(self):
        runtime = AsyncioRuntime(seed=1)
        with pytest.raises(SimulationError):
            _ = runtime.now

    def test_rejects_bad_time_scale(self):
        with pytest.raises(SimulationError):
            AsyncioRuntime(seed=1, time_scale=0.0)

    def test_schedule_fires_in_scaled_time(self):
        # Event-based: a timer never fires early, so the stamps bound the
        # scaling from below and the order pins it, with no upper wall
        # margin for a loaded box to miss.
        async def main():
            runtime = AsyncioRuntime(seed=1, time_scale=0.01)
            runtime.start()
            fired = []
            done = asyncio.Event()

            def fire(name):
                fired.append((name, runtime.now))
                if name == "b":
                    done.set()

            started = asyncio.get_running_loop().time()
            runtime.schedule(3.0, fire, "b")
            runtime.schedule(1.0, fire, "a")  # 10 ms wall
            await asyncio.wait_for(done.wait(), timeout=10.0)
            assert [name for name, _ in fired] == ["a", "b"]
            assert fired[0][1] >= 1.0 - 1e-6 and fired[1][1] >= 3.0 - 1e-6
            # 3 protocol units are 30 ms of wall clock, not 3 s or 3 ms.
            assert asyncio.get_running_loop().time() - started >= 0.03 - 1e-6

        asyncio.run(main())

    def test_cancel_semantics(self):
        async def main():
            runtime = AsyncioRuntime(seed=1, time_scale=0.001)
            runtime.start()
            fired = []
            pending = runtime.schedule(5.0, fired.append, "x")
            done = runtime.schedule(0.0, fired.append, "y")
            assert runtime.cancel(pending) is True
            assert runtime.cancel(pending) is False  # already cancelled
            await runtime.sleep(1.0)
            assert runtime.cancel(done) is False  # already fired
            assert runtime.cancel(object()) is False  # foreign handle
            assert fired == ["y"]

        asyncio.run(main())

    def test_schedule_at_and_pubsub(self):
        async def main():
            runtime = AsyncioRuntime(seed=1, time_scale=0.001)
            runtime.start()
            got = []
            runtime.subscribe("t", lambda **kw: got.append(kw))
            runtime.schedule_at(1.0, runtime.publish, "t")
            await runtime.sleep(2.0)
            assert got == [{}]
            assert runtime.publish("missing") == 0

        asyncio.run(main())


class TestAsyncioTransport:
    def _runtime(self):
        runtime = AsyncioRuntime(seed=1, time_scale=0.001)
        runtime.start()
        return runtime

    def test_delivery_through_queues(self):
        async def main():
            runtime = self._runtime()
            transport = AsyncioTransport(runtime, ring(4))
            runtime.transport = transport
            got = []
            for node in range(4):
                transport.attach(node, lambda src, msg, _n=node: got.append((_n, src, msg)))
            transport.start_pumps()
            assert transport.send(0, 1, "hello") is True
            await runtime.sleep(1.0)
            assert got == [(1, 0, "hello")]
            assert transport.counters.messages_sent == 1
            assert transport.counters.messages_delivered == 1
            await transport.stop_pumps()

        asyncio.run(main())

    def test_no_link_raises(self):
        async def main():
            runtime = self._runtime()
            transport = AsyncioTransport(runtime, ring(5))
            with pytest.raises(SimulationError):
                transport.send(0, 2, "skip")  # not adjacent on the ring
            with pytest.raises(SimulationError):
                transport.send(0, 0, "self")

        asyncio.run(main())

    def test_loss_drops_but_counts(self):
        async def main():
            runtime = self._runtime()
            transport = AsyncioTransport(runtime, ring(4), loss=0.999999)
            got = []
            transport.attach(1, lambda src, msg: got.append(msg))
            transport.start_pumps()
            assert transport.send(0, 1, "doomed") is True  # entered channel
            await runtime.sleep(1.0)
            assert got == []
            assert transport.counters.messages_dropped == 1
            await transport.stop_pumps()

        asyncio.run(main())

    def test_handler_errors_do_not_kill_pump(self):
        async def main():
            runtime = self._runtime()
            transport = AsyncioTransport(runtime, ring(4))
            got = []

            def handler(src, msg):
                if msg == "bad":
                    raise ValueError("boom")
                got.append(msg)

            transport.attach(1, handler)
            transport.start_pumps()
            transport.send(0, 1, "bad")
            transport.send(0, 1, "good")
            await runtime.sleep(1.0)
            assert got == ["good"]
            assert len(transport.handler_errors) == 1
            await transport.stop_pumps()

        asyncio.run(main())


class _ManualLoop:
    """Stand-in for the event loop with a hand-cranked clock: ``call_at``
    timers fire only inside :meth:`advance`, at exactly their due time,
    so delivery order and delivery *instants* are deterministic."""

    class _Handle:
        def __init__(self, when, callback):
            self.when, self.callback, self.cancelled = when, callback, False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.now = 50.0
        self.timers = []
        self.armed = 0  # call_at calls ever made

    def time(self):
        return self.now

    def call_at(self, when, callback):
        self.armed += 1
        self.timers.append(self._Handle(when, callback))
        return self.timers[-1]

    def call_later(self, delay, callback):
        return self.call_at(self.now + delay, callback)

    def live_timers(self):
        return [h.when for h in self.timers if not h.cancelled]

    def advance(self, to):
        while True:
            due = [h for h in self.timers if not h.cancelled and h.when <= to]
            if not due:
                break
            handle = min(due, key=lambda h: h.when)
            self.timers.remove(handle)
            self.now = max(self.now, handle.when)
            handle.callback()
        self.now = to


def _manual_runtime(monkeypatch, seed=1, **kwargs):
    """An AsyncioRuntime bound to a :class:`_ManualLoop` (1 unit = 1 ms)."""
    loop = _ManualLoop()
    monkeypatch.setattr(asyncio, "get_running_loop", lambda: loop)
    runtime = AsyncioRuntime(seed=seed, time_scale=0.001, **kwargs)
    runtime.start()
    return runtime, loop


def _far_near_topology():
    """0 --10-- 1 --1-- 2: with ``DistanceLatency(1, 0)`` the hop from 0
    takes 10 units and the hop from 2 takes 1."""
    topology = Topology()
    for node in range(3):
        topology.add_node(node)
    topology.add_edge(0, 1, weight=10.0)
    topology.add_edge(1, 2, weight=1.0)
    return topology


class TestDeliveryHeap:
    """The one-hop data path: a heap behind one loop timer, direct calls."""

    def test_sends_in_one_tick_arm_one_timer_and_no_task_or_future(self):
        # Structural gate, no timing: count what the sends ask of the loop.
        async def main():
            runtime = AsyncioRuntime(seed=1, time_scale=0.001)
            runtime.start()
            transport = AsyncioTransport(runtime, ring(4))
            got = []
            for node in range(4):
                transport.attach(node, lambda src, msg: got.append(msg))
            transport.start_pumps()
            loop = asyncio.get_running_loop()
            calls = {"call_at": 0, "create_task": 0, "create_future": 0}

            def counting(name):
                real = getattr(loop, name)

                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)

                setattr(loop, name, wrapper)

            for name in calls:
                counting(name)
            try:
                for i in range(40):
                    transport.send(i % 4, (i + 1) % 4, i)
                assert calls == {"call_at": 1, "create_task": 0, "create_future": 0}
                assert transport.delivery_stats()["in_flight"] == 40
                deadline = loop.time() + 5.0
                while len(got) < 40 and loop.time() < deadline:
                    await asyncio.sleep(0.001)
                # Delivery itself made no task either (the sleeps above
                # account for every future).
                assert calls["create_task"] == 0
            finally:
                for name in calls:
                    delattr(loop, name)
            assert sorted(got) == list(range(40))
            stats = transport.delivery_stats()
            assert stats["in_flight"] == 0 and stats["in_flight_peak"] == 40
            await transport.stop_pumps()

        asyncio.run(main())

    def test_fixed_latency_keeps_send_order(self, monkeypatch):
        runtime, loop = _manual_runtime(monkeypatch)
        transport = AsyncioTransport(runtime, ring(4))
        got = []
        transport.attach(1, lambda src, msg: got.append(msg))
        transport.start_pumps()
        transport.send(0, 1, "first")
        transport.send(0, 1, "second")  # same tick: equal due time
        loop.advance(loop.now + 0.0001)
        transport.send(0, 1, "third")
        loop.advance(loop.now + 1.0)
        assert got == ["first", "second", "third"]
        assert loop.armed == 2  # one timer per drain, not per message

    def test_smaller_due_time_overtakes_and_drain_push_delays_nobody(
        self, monkeypatch
    ):
        runtime, loop = _manual_runtime(monkeypatch)
        transport = AsyncioTransport(
            runtime, _far_near_topology(), latency=DistanceLatency(1.0, 0.0)
        )
        t0 = loop.now
        got = []

        def node1(src, msg):
            got.append((msg, round((loop.now - t0) * 1e3, 6)))
            if msg == "near":
                # Pushed *during* the drain, due at 11 ms: later than
                # "far" (10 ms), which is still in the heap.
                transport.send(1, 0, "back")

        transport.attach(1, node1)
        transport.attach(0, lambda src, msg: got.append(
            (msg, round((loop.now - t0) * 1e3, 6))
        ))
        transport.start_pumps()
        transport.send(0, 1, "far")   # due at 10 ms
        transport.send(2, 1, "near")  # sent later, due at 1 ms
        assert loop.live_timers() == [pytest.approx(t0 + 0.001)]
        loop.advance(t0 + 0.002)
        assert got == [("near", 1.0)]
        # Re-armed once after the drain, for the head of the heap.
        assert loop.live_timers() == [pytest.approx(t0 + 0.010)]
        loop.advance(t0 + 0.020)
        assert got == [("near", 1.0), ("far", 10.0), ("back", 11.0)]

    def test_raising_handler_is_recorded_and_the_drain_goes_on(self, monkeypatch):
        runtime, loop = _manual_runtime(monkeypatch)
        transport = AsyncioTransport(runtime, ring(4))
        got = []

        def handler(src, msg):
            if msg == "bad":
                raise ValueError("boom")
            got.append(msg)

        transport.attach(1, handler)
        transport.attach(2, handler)
        transport.start_pumps()
        for dst, msg in ((1, "a"), (1, "bad"), (2, "b"), (1, "c")):
            transport.send(dst - 1, dst, msg)  # one tick, one drain
        loop.advance(loop.now + 1.0)
        assert loop.armed == 1
        assert got == ["a", "b", "c"]
        assert [(node, str(exc)) for node, exc in transport.handler_errors] == [
            (1, "boom")
        ]
        assert transport.counters.messages_delivered == 4

    def test_not_started_and_detached_destinations_drop(self, monkeypatch):
        runtime, loop = _manual_runtime(monkeypatch, trace=Tracer(enabled=True))
        transport = AsyncioTransport(runtime, ring(4))
        got = []
        transport.attach(1, lambda src, msg: got.append(msg))
        transport.send(0, 1, "too early")  # before start_pumps
        loop.advance(loop.now + 1.0)
        transport.start_pumps()
        transport.send(0, 1, "mid-flight")
        transport.detach(1)
        loop.advance(loop.now + 1.0)
        transport.attach(1, lambda src, msg: got.append(msg))
        transport.send(0, 1, "rejoined")
        loop.advance(loop.now + 1.0)
        assert got == ["rejoined"]
        drops = [r.get("reason") for r in runtime.trace.select("net.drop")]
        assert drops == ["no-handler", "no-handler"]
        counters = transport.counters
        assert (counters.messages_sent, counters.messages_delivered,
                counters.messages_dropped) == (3, 1, 2)

    def test_stop_meters_everything_in_flight_as_dropped(self):
        async def main():
            runtime = AsyncioRuntime(
                seed=1, time_scale=0.001, trace=Tracer(enabled=True)
            )
            runtime.start()
            transport = AsyncioTransport(runtime, ring(4))
            got = []
            for node in range(4):
                transport.attach(node, lambda src, msg: got.append(msg))
            transport.start_pumps()
            transport.send(0, 1, "delivered")
            deadline = asyncio.get_running_loop().time() + 5.0
            while not got and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.001)
            for i in range(3):
                transport.send(i, i + 1, "in flight")
            await transport.stop_pumps()
            counters = transport.counters
            assert counters.messages_dropped == 3
            assert transport.send(0, 1, "after stop") is True  # metered, not lost
            assert counters.messages_sent == 5
            assert counters.messages_sent == (
                counters.messages_delivered + counters.messages_dropped
            )
            assert {r.get("reason") for r in runtime.trace.select("net.drop")} == {
                "shutdown"
            }
            await asyncio.sleep(0.01)  # nothing left armed to fire later
            assert got == ["delivered"]
            assert transport.delivery_stats()["in_flight"] == 0

        asyncio.run(main())


#: Star centre writes; node 1 is the demand hot-spot, leaves are cold.
_STAR_DEMAND = {0: 1.0, 1: 10.0, 2: 0.1, 3: 0.1, 4: 0.1}


class TestHotFirst:
    @pytest.mark.parametrize("seed", [1, 2, 3, 10])
    def test_fast_ordering_high_demand_first(self, monkeypatch, seed):
        """Acceptance: a write cascades with fast-consistency ordering —
        the high-demand replica applies it ahead of every cold one, in
        every round, on any session schedule.

        The stacks are the live cluster's (``build_node_stack`` over an
        ``AsyncioTransport``) on a hand-cranked loop, so every instant is
        exact. Each write lands while the writer has no session open: a
        cold leaf mid-session with it would pull the write in that
        session's batch, a hop ahead of the three-hop push. A session
        opened later is at least as many hops behind the push."""
        runtime, loop = _manual_runtime(monkeypatch, seed=seed)
        topology = star(5)
        config = fast_consistency(link_delay=0.005)
        transport = AsyncioTransport(
            runtime, topology, latency=FixedLatency(config.link_delay)
        )
        runtime.transport = transport
        applied = {}

        def recorder(node):
            def record(updates, source, sender):
                for update in updates:
                    applied.setdefault(update.uid, {}).setdefault(node, runtime.now)

            return record

        stacks = {
            node: build_node_stack(
                runtime, topology, ExplicitDemand(_STAR_DEMAND), config, node,
                on_new_updates=recorder(node),
            )
            for node in topology.nodes
        }
        transport.start_pumps()
        for stack in stacks.values():
            stack.start()

        def crank(units):
            loop.advance(loop.now + units * runtime.time_scale)

        writer = stacks[0]
        for sequence in range(6):
            crank(1.0)
            while writer.anti_entropy._sessions:
                crank(0.01)
            update = writer.server.local_write("k", f"v{sequence}")
            for _ in range(300):
                if len(applied.get(update.uid, ())) == len(stacks):
                    break
                crank(0.1)
            times = applied[update.uid]
            assert len(times) == len(stacks)
            hot = times[1] - times[0]
            cold = [times[n] - times[0] for n in (2, 3, 4)]
            assert hot < min(cold), (sequence, hot, cold)
            assert hot == pytest.approx(3 * config.link_delay)  # offer, reply, payload


class TestReplicaCluster:
    def test_put_reaches_every_replica(self):
        with ReplicaCluster(nodes=8, seed=5, time_scale=0.01) as cluster:
            update = cluster.put("k", "v", node=0)
            assert cluster.wait_replicated(update.uid, timeout=20.0)
            times = cluster.apply_times(update.uid)
            assert set(times) == set(cluster.topology.nodes)
            for node in cluster.topology.nodes:
                assert cluster.get("k", node=node) == "v"
            latency = cluster.replication_latency(update.uid)
            assert latency is not None and latency > 0.0

    def test_weak_variant_also_converges(self):
        with ReplicaCluster(
            nodes=6, config=weak_consistency(), seed=4, time_scale=0.005
        ) as cluster:
            update = cluster.put("k", "w", node=None, wait=True, timeout=30.0)
            assert cluster.get("k") == "w"
            stats = cluster.stats()
            assert stats["updates_fully_replicated"] == 1
            assert stats["variant"].startswith("random")

    def test_stats_and_errors(self):
        cluster = ReplicaCluster(nodes=4, seed=6, time_scale=0.005)
        with pytest.raises(ReplicationError):
            cluster.put("k", "v")  # not started yet
        cluster.start()
        try:
            with pytest.raises(ReplicationError):
                cluster.start()  # double start
            with pytest.raises(ReplicationError):
                cluster.put("k", "v", node=99)
            update = cluster.put("k", "v", wait=True, timeout=20.0)
            assert cluster.read("k", node=1).value == "v"
            stats = cluster.stats()
            assert stats["nodes"] == 4
            assert stats["puts"] == 1
            assert stats["gets"] == 1
            assert stats["handler_errors"] == 0
            assert stats["traffic"]["messages_sent"] > 0
            assert stats["uptime_units"] > 0
            assert cluster.replication_latency(update.uid) is not None
            assert cluster.replication_latency(("nope", 0)) is None
        finally:
            cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(ReplicationError):
            cluster.get("k")  # closed

    def test_track_limit_bounds_tracking_state(self):
        with ReplicaCluster(
            nodes=4, seed=8, time_scale=0.005, track_limit=2
        ) as cluster:
            uids = [
                cluster.put("k", f"v{i}", node=0, wait=True, timeout=20.0).uid
                for i in range(5)
            ]
            # Oldest fully-replicated records were evicted...
            assert cluster.apply_times(uids[0]) == {}
            assert cluster.replication_latency(uids[0]) is None
            # ...but waiting on an evicted update answers True at once
            # (it did reach every replica) instead of blocking.
            assert cluster.wait_replicated(uids[0], timeout=0.0) is True
            # ...the newest are retained...
            assert set(cluster.apply_times(uids[-1])) == set(cluster.topology.nodes)
            assert cluster.replication_latency(uids[-1]) is not None
            stats = cluster.stats()
            # ...and the cumulative counter is unaffected by eviction.
            assert stats["updates_fully_replicated"] == 5
            assert stats["updates_tracked"] <= 2

    def test_stats_delivery_block_and_shutdown_accounting(self):
        with ReplicaCluster(nodes=6, seed=3, time_scale=0.002) as cluster:
            for i in range(20):
                cluster.put(f"k{i % 4}", i, node=i % 6)
            delivery = cluster.stats()["delivery"]
            assert set(delivery) == {
                "in_flight", "in_flight_peak", "socket_writes", "frames_coalesced",
            }
            assert delivery["in_flight_peak"] >= 1
            assert delivery["socket_writes"] == 0  # no sockets in queue mode
        # Closed under load: what was in flight is dropped, not forgotten.
        counters = cluster.transport.counters
        assert counters.messages_sent == (
            counters.messages_delivered + counters.messages_dropped
        )
        assert cluster.transport.delivery_stats()["in_flight"] == 0

    def test_track_limit_validated(self):
        with pytest.raises(ConfigurationError):
            ReplicaCluster(nodes=3, track_limit=0)

    def test_rejects_disconnected_topology(self):
        from repro.topology.graph import Topology

        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        with pytest.raises(ConfigurationError):
            ReplicaCluster(topo)

    def test_boot_failure_surfaces_in_start(self):
        # An advertised-knowledge config needs demand tables, which the
        # cluster bootstraps; break it with an invalid config instead.
        cluster = ReplicaCluster(nodes=3, seed=1, time_scale=0.005)
        cluster.runtime.time_scale = -1.0  # sabotage: schedule() will fail

        def bad_schedule(*args, **kwargs):
            raise RuntimeError("boot boom")

        cluster.runtime.schedule = bad_schedule
        with pytest.raises(RuntimeError, match="boot boom"):
            cluster.start()
