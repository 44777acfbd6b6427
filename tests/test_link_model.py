"""The link model against generated histories, the worlds against each other.

(a) :meth:`LinkModel.decide` against a reference transcription of the
    decision ``Network.send`` + ``Network._can_carry`` +
    ``PacketFaultState`` made before the model existed (kept below as
    the oracle, like the old ``barabasi_albert`` loop): verdict, delay
    and the RNG state agree after every send of a random history.
(b) The same generated schedule through the simulator's ``Network`` and
    through ``AsyncioTransport`` on a hand-cranked loop meters and
    traces identically, overlay link included; both are one
    :class:`Channel`, and structurally so.
(c) ``ReplicaHost.fault``, the one fault path, parks and restores
    delivery handlers the same way over all three transports.
(d) A raising handler stops a simulation but not a live drain.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.host import ReplicaHost
from repro.errors import SimulationError
from repro.faults.schedule import (
    ACTION_CORRUPT_FRAME,
    ACTION_LATENCY_SHOCK,
    ACTION_PACKET_DUPLICATE,
    ACTION_PACKET_REORDER,
    join,
    leave,
    node_up,
)
from repro.port.linkstate import (
    CORRUPT,
    DUPLICATED,
    LOST,
    REFUSED,
    REORDERED,
    Channel,
    LinkModel,
)
from repro.runtime.live import AsyncioRuntime, AsyncioTransport
from repro.runtime.tcp import TcpTransport
from repro.sim.engine import Simulator
from repro.sim.network import (
    BandwidthLatency,
    DistanceLatency,
    FixedLatency,
    JitteredLatency,
    Network,
)
from repro.sim.runtime import SimRuntime
from repro.port.trace import Tracer
from repro.topology.graph import Topology
from test_runtime_live import _ManualLoop, _manual_runtime

NODES = 5
OVERLAY = (0, 4)
OVERLAY_DELAY = 0.4


# ---------------------------------------------------------------------------
# The oracle: the parent commit's decision, transcribed
# ---------------------------------------------------------------------------


class ParentDecision:
    """``Network.send``'s carry / loss / packet-fault decision exactly as
    it stood before :class:`LinkModel`: ``_can_carry`` with its overlay
    exemption, the loss draw, ``resolve_delay``, then the windowed
    packet faults in the order corrupt, latency, reorder, duplicate."""

    def __init__(self, latency, loss, rng):
        self.latency = latency
        self.loss = loss
        self.rng = rng
        self.down_nodes = set()
        self.down_links = set()
        self.partition = None
        self.windows = {}

    @staticmethod
    def link_key(a, b):
        return (a, b) if a <= b else (b, a)

    def can_carry(self, src, dst, overlay):
        if not self.down_nodes and not self.down_links and self.partition is None:
            return True
        if src in self.down_nodes or dst in self.down_nodes:
            return False
        if not overlay:
            if self.link_key(src, dst) in self.down_links:
                return False
        if self.partition is not None:
            if self.partition.get(src) != self.partition.get(dst):
                return False
        return True

    def params(self, action, now):
        entry = self.windows.get(action)
        if entry is None:
            return None
        params, until = entry
        if now >= until:
            del self.windows[action]
            return None
        return params

    def send(self, src, dst, size, distance, now, overlay_delay):
        """``(verdict, delay, reordered, duplicate)``."""
        if not self.can_carry(src, dst, overlay_delay is not None):
            return ("refused", None, False, False)
        if self.loss and self.rng.random() < self.loss:
            return ("lost", None, False, False)
        if overlay_delay is not None:
            delay = overlay_delay
        else:
            with_size = getattr(self.latency, "delay_with_size", None)
            if with_size is not None:
                delay = with_size(src, dst, distance, size)
            else:
                delay = self.latency.delay(src, dst, distance)
        reordered = duplicate = False
        if self.windows:
            params = self.params(ACTION_CORRUPT_FRAME, now)
            corrupt_p = params[0] if params else 0.0
            if corrupt_p and self.rng.random() < corrupt_p:
                return ("corrupt", None, False, False)
            params = self.params(ACTION_LATENCY_SHOCK, now)
            factor = params[0] if params else 1.0
            if factor != 1.0:
                delay *= factor
            reorder = self.params(ACTION_PACKET_REORDER, now)
            if reorder is not None and self.rng.random() < reorder[0]:
                delay += self.rng.uniform(0.0, reorder[1])
                reordered = True
            params = self.params(ACTION_PACKET_DUPLICATE, now)
            dup_p = params[0] if params else 0.0
            if dup_p and self.rng.random() < dup_p:
                duplicate = True
        return ("carried", delay, reordered, duplicate)


# ---------------------------------------------------------------------------
# Generated histories
# ---------------------------------------------------------------------------

node = st.integers(0, NODES - 1)
pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
probability = st.sampled_from([0.0, 0.3, 0.7, 1.0])
#: Windows short enough to expire inside a history and long enough to
#: overlap each other; re-application replaces a window.
duration = st.sampled_from([0.75, 2.25, 6.25])
packet_fault = st.one_of(
    st.tuples(st.just(ACTION_CORRUPT_FRAME), st.tuples(probability), duration),
    st.tuples(
        st.just(ACTION_LATENCY_SHOCK),
        st.tuples(st.sampled_from([1.0, 2.5, 0.5])),
        duration,
    ),
    st.tuples(
        st.just(ACTION_PACKET_REORDER),
        st.tuples(probability, st.sampled_from([0.5, 3.0])),
        duration,
    ),
    st.tuples(st.just(ACTION_PACKET_DUPLICATE), st.tuples(probability), duration),
)
fault_op = st.one_of(
    st.tuples(st.just("crash"), node),
    st.tuples(st.just("recover"), node),
    st.tuples(st.just("link_down"), pair),
    st.tuples(st.just("link_up"), pair),
    st.tuples(
        st.just("partition"),
        st.lists(st.integers(0, 2), min_size=NODES, max_size=NODES),
    ),
    st.tuples(st.just("heal")),
    st.tuples(st.just("packet"), packet_fault),
)


def apply_fault_op(links: LinkModel, op, now: float) -> None:
    name = op[0]
    if name == "crash":
        links.set_node_down(op[1])
    elif name == "recover":
        links.set_node_up(op[1])
    elif name == "link_down":
        links.set_link_down(*op[1])
    elif name == "link_up":
        links.set_link_up(*op[1])
    elif name == "partition":
        groups = [[n for n in range(NODES) if op[1][n] == g] for g in range(3)]
        links.partition(groups)
    elif name == "heal":
        links.heal_partition()
    else:
        action, params, window = op[1]
        links.apply_packet_fault(action, params, window, now)


def apply_to_oracle(oracle: ParentDecision, op, now: float) -> None:
    name = op[0]
    if name == "crash":
        oracle.down_nodes.add(op[1])
    elif name == "recover":
        oracle.down_nodes.discard(op[1])
    elif name == "link_down":
        oracle.down_links.add(oracle.link_key(*op[1]))
    elif name == "link_up":
        oracle.down_links.discard(oracle.link_key(*op[1]))
    elif name == "partition":
        oracle.partition = {n: op[1][n] for n in range(NODES)}
    elif name == "heal":
        oracle.partition = None
    else:
        action, params, window = op[1]
        oracle.windows[action] = (tuple(float(p) for p in params), now + window)


def make_latency(kind: str):
    """A fresh latency model of ``kind`` (the jittered one owns an RNG,
    so each side of a comparison gets its own equal copy)."""
    if kind == "fixed":
        return FixedLatency(0.3)
    if kind == "bandwidth":
        return BandwidthLatency(DistanceLatency(scale=0.1, base=0.05), 997.0)
    return JitteredLatency(FixedLatency(0.3), 0.2, random.Random(11))


class TestDecideAgainstTheParentTranscription:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0]),  # time step before the op
                st.one_of(
                    fault_op,
                    st.tuples(st.just("send"), pair, st.integers(0, 4000)),
                    st.tuples(st.just("send"), pair, st.integers(0, 4000)),
                ),
            ),
            max_size=60,
        ),
        loss=st.sampled_from([0.0, 0.0, 0.25]),
        latency_kind=st.sampled_from(["fixed", "bandwidth", "jittered"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdict_delay_and_rng_state_after_every_send(
        self, ops, loss, latency_kind, seed
    ):
        links = LinkModel(make_latency(latency_kind), loss, random.Random(seed))
        oracle = ParentDecision(make_latency(latency_kind), loss, random.Random(seed))
        now = 0.0
        for step, op in ops:
            now += step
            if op[0] != "send":
                apply_fault_op(links, op, now)
                apply_to_oracle(oracle, op, now)
                continue
            (src, dst), size = op[1], op[2]
            overlay_delay = (
                OVERLAY_DELAY if {src, dst} == set(OVERLAY) else None
            )
            distance = 1.0 + abs(src - dst)
            expected = oracle.send(src, dst, size, distance, now, overlay_delay)
            delay = links.decide(src, dst, size, distance, now, overlay_delay)
            if delay == REFUSED:
                got = ("refused", None, False, False)
            elif delay == LOST:
                got = ("lost", None, False, False)
            elif links.flags & CORRUPT:
                got = ("corrupt", None, False, False)
            else:
                assert delay >= 0.0
                got = (
                    "carried",
                    delay,
                    bool(links.flags & REORDERED),
                    bool(links.flags & DUPLICATED),
                )
            assert got == expected
            assert links._rng.getstate() == oracle.rng.getstate()

    def test_flags_read_zero_once_every_window_has_expired(self):
        # The hot path never resets ``flags``; the send that sees the
        # last window expire must leave them clear.
        links = LinkModel(FixedLatency(0.1), 0.0, random.Random(1))
        links.apply_packet_fault(ACTION_PACKET_DUPLICATE, (1.0,), 1.0, now=0.0)
        assert links.decide(0, 1, 0, 1.0, 0.5) == 0.1
        assert links.flags == DUPLICATED
        assert links.decide(0, 1, 0, 1.0, 1.0) == 0.1
        assert links.flags == 0
        assert not links._windows

    def test_node_ids_are_cast_once_for_every_world(self):
        links = LinkModel(FixedLatency(0.1), 0.0, random.Random(1))
        links.set_node_down(True)  # a bool is an int: node 1
        links.set_link_down(2.0, 3)
        assert not links.node_is_up(1)
        assert not links.link_is_up(3, 2)
        assert links.decide(0, 1, 0, 1.0, 0.0) == REFUSED
        assert links.decide(2, 3, 0, 1.0, 0.0) == REFUSED
        assert links.decide(2, 3, 0, 1.0, 0.0, overlay_delay=0.5) == 0.5

    def test_loss_outside_the_unit_interval_is_refused(self):
        with pytest.raises(SimulationError):
            LinkModel(FixedLatency(0.1), 1.0, random.Random(1))


# ---------------------------------------------------------------------------
# (b) sim Network vs AsyncioTransport over one generated schedule
# ---------------------------------------------------------------------------


def _complete_topology() -> Topology:
    topology = Topology("k5")
    for n in range(NODES):
        topology.add_node(n)
    for a in range(NODES):
        for b in range(a + 1, NODES):
            topology.add_edge(a, b, weight=1.0 + (b - a))
    return topology


class _Sized:
    """A message with a (class-level) kind and a size, so the per-kind
    and byte meters move."""

    kind = "m0"

    def __init__(self, size: int):
        self._size = size

    def size_bytes(self) -> int:
        return self._size


class _SizedToo(_Sized):
    kind = "m1"


def _message(size: int) -> _Sized:
    return (_SizedToo if size % 2 else _Sized)(size)


#: The overlay tunnel's delay in the two-world schedule: times any shock
#: factor it lands on no op's instant (the decide test's 0.4 times 2.5
#: would tie with the next op).
METER_OVERLAY_DELAY = 0.35


def _net_rows(trace):
    """The ``net.send`` / ``net.drop`` rows as a multiset, every field
    but the time."""
    return Counter(
        (record.category, tuple(sorted(record.fields.items())))
        for category in ("net.send", "net.drop")
        for record in trace.select(category)
    )


class TestSimAndQueueWorldsMeterAlike:
    @given(
        ops=st.lists(
            st.one_of(
                fault_op,
                st.tuples(st.just("send"), pair, st.integers(0, 4000)),
                st.tuples(st.just("send"), pair, st.integers(0, 4000)),
                st.tuples(st.just("send"), pair, st.integers(0, 4000)),
            ),
            max_size=50,
        ),
        loss=st.sampled_from([0.0, 0.25]),
        latency_kind=st.sampled_from(["fixed", "bandwidth"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_generated_schedule_yields_equal_traffic_counters(
        self, ops, loss, latency_kind, seed
    ):
        # One op per protocol time unit: link delays (0.3, or 0.25–0.55
        # plus size/997, or the overlay's 0.35, times a shock factor) and
        # window ends (k + 0.75, k + 0.25) never fall on an op's
        # instant, so neither world has a tie to break.
        horizon = len(ops) + 20.0
        topology = _complete_topology()

        sim = Simulator(seed=seed)
        network = Network(sim, topology, make_latency(latency_kind), loss)
        network.add_overlay_link(*OVERLAY, METER_OVERLAY_DELAY)
        sim_got = []
        for n in range(NODES):
            network.attach(n, lambda src, msg, _n=n: sim_got.append((_n, src, msg.kind)))

        def sim_step(op):
            if op[0] == "send":
                network.send(*op[1], _message(op[2]))
            else:
                apply_fault_op(network.links, op, sim.now)

        for index, op in enumerate(ops):
            sim.schedule_at(float(index + 1), sim_step, op)
        sim.run(until=horizon)

        loop = _ManualLoop()
        with mock.patch.object(asyncio, "get_running_loop", lambda: loop):
            runtime = AsyncioRuntime(
                seed=seed, time_scale=0.001, trace=Tracer(enabled=True)
            )
            runtime.start()
        transport = AsyncioTransport(runtime, topology, make_latency(latency_kind), loss)
        transport.add_overlay_link(*OVERLAY, METER_OVERLAY_DELAY)
        live_got = []
        for n in range(NODES):
            transport.attach(
                n, lambda src, msg, _n=n: live_got.append((_n, src, msg.kind))
            )
        transport.start_pumps()
        for index, op in enumerate(ops):
            loop.advance(50.0 + (index + 1) * 0.001)
            if op[0] == "send":
                transport.send(*op[1], _message(op[2]))
            else:
                apply_fault_op(transport.links, op, runtime.now)
        loop.advance(50.0 + horizon * 0.001)

        assert transport.counters.snapshot() == network.counters.snapshot()
        assert sorted(live_got) == sorted(sim_got)
        assert not transport.handler_errors
        assert _net_rows(runtime.trace) == _net_rows(sim.trace)
        assert len(runtime.trace.select("net.send")) == sum(
            op[0] == "send" for op in ops
        )


class TestOneSendPath:
    def test_send_and_drop_have_one_body(self):
        for name in ("send", "_drop"):
            assert name in vars(Channel)
            for world in (Network, AsyncioTransport, TcpTransport):
                assert name not in vars(world), (world.__name__, name)

    def test_the_sim_and_queue_worlds_are_siblings(self):
        # Span tracing patches ``send`` per class: a parent/child pair
        # would nest one world's span inside the other's.
        assert Network.__bases__ == (Channel,)
        assert AsyncioTransport.__bases__ == (Channel,)


# ---------------------------------------------------------------------------
# Where a raising handler's error goes: each world's own boundary
# ---------------------------------------------------------------------------


class _Boom(Exception):
    pass


def _raising_handler(got):
    def handler(src, message):
        if message == "bad":
            raise _Boom("boom")
        got.append(message)

    return handler


class TestHandlerErrorBoundary:
    def test_the_simulator_lets_it_stop_the_run(self):
        # A simulation must not hide a protocol bug.
        sim = Simulator(seed=1)
        network = Network(sim, _complete_topology())
        got = []
        network.attach(1, _raising_handler(got))
        network.send(0, 1, "bad")
        network.send(0, 1, "good")
        with pytest.raises(_Boom):
            sim.run()
        assert got == []
        sim.run()
        assert got == ["good"]

    @pytest.mark.parametrize(
        "make",
        [
            lambda runtime: AsyncioTransport(runtime, _complete_topology()),
            lambda runtime: TcpTransport(
                runtime, _complete_topology(), local_nodes=[0, 1, 2]
            ),
        ],
        ids=["queue", "tcp-local-hop"],
    )
    def test_a_live_world_records_it_and_the_drain_goes_on(self, monkeypatch, make):
        runtime, loop = _manual_runtime(monkeypatch)
        transport = make(runtime)
        got = []
        transport.attach(1, _raising_handler(got))
        transport.attach(2, _raising_handler(got))
        transport.start_pumps()
        for dst, message in ((1, "a"), (1, "bad"), (2, "b"), (1, "c")):
            transport.send(0, dst, message)  # one tick, one drain
        loop.advance(loop.now + 1.0)
        assert got == ["a", "b", "c"]
        assert [(node, str(exc)) for node, exc in transport.handler_errors] == [
            (1, "boom")
        ]
        assert transport.counters.messages_delivered == 4


# ---------------------------------------------------------------------------
# (c) the one fault path's handler parking, in every world
# ---------------------------------------------------------------------------


class _Stack:
    def __init__(self):
        self.got = []

    def on_message(self, src, message):
        self.got.append((src, message))


def _sim_world():
    sim = Simulator(seed=3)
    network = Network(sim, _complete_topology())
    return network, SimRuntime(sim, network)


def _queue_world():
    runtime = AsyncioRuntime(seed=3)
    return AsyncioTransport(runtime, _complete_topology()), runtime


def _tcp_world():
    runtime = AsyncioRuntime(seed=3)
    return TcpTransport(runtime, _complete_topology(), local_nodes=[2]), runtime


@pytest.mark.parametrize("world", [_sim_world, _queue_world, _tcp_world])
class TestHostHandlerParking:
    #: The node every world hosts (the TCP world hosts only this one).
    NODE = 2

    def _host(self, world):
        transport, runtime = world()
        host = ReplicaHost(
            runtime, transport, transport.topology, None, None, [self.NODE], None
        )
        stack = _Stack()
        host.nodes[self.NODE] = stack  # stands in for a built stack
        return host, transport, stack

    def test_leave_then_join_restores_the_parked_handler(self, world):
        host, transport, stack = self._host(world)

        def custom(src, message):
            pass

        transport.attach(self.NODE, custom)
        assert host.fault(leave(0.0, self.NODE))
        assert transport.handler_for(self.NODE) is None
        assert not transport.links.node_is_up(self.NODE)
        assert host.fault(join(0.0, self.NODE))
        assert transport.handler_for(self.NODE) is custom
        assert transport.links.node_is_up(self.NODE)

    def test_leave_then_node_up_restores_the_parked_handler(self, world):
        host, transport, stack = self._host(world)

        def custom(src, message):
            pass

        transport.attach(self.NODE, custom)
        host.fault(leave(0.0, self.NODE))
        host.fault(node_up(0.0, self.NODE))
        assert transport.handler_for(self.NODE) is custom
        assert transport.links.node_is_up(self.NODE)
        # A second join finds nothing parked and a handler attached.
        host.fault(join(0.0, self.NODE))
        assert transport.handler_for(self.NODE) is custom

    def test_join_without_leave_attaches_the_stack_only_if_detached(self, world):
        host, transport, stack = self._host(world)
        host.fault(join(0.0, self.NODE))
        assert transport.handler_for(self.NODE) == stack.on_message

        def custom(src, message):
            pass

        transport.attach(self.NODE, custom)
        host.fault(join(0.0, self.NODE))
        assert transport.handler_for(self.NODE) is custom

    def test_node_up_never_attaches_the_stack(self, world):
        host, transport, stack = self._host(world)
        host.fault(node_up(0.0, self.NODE))
        assert transport.handler_for(self.NODE) is None
        assert transport.links.node_is_up(self.NODE)

    def test_churn_of_a_node_hosted_elsewhere_only_moves_the_model(self, world):
        host, transport, stack = self._host(world)
        other = 4
        host.fault(leave(0.0, other))
        assert not transport.links.node_is_up(other)
        host.fault(join(0.0, other))  # no stack for it here: nothing to attach
        assert transport.links.node_is_up(other)
        assert transport.handler_for(other) is None
