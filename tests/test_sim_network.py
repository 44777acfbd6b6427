"""Tests for the message network (repro.sim.network)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import SimulationError
from repro.port.trace import Tracer
from repro.sim.network import (
    BandwidthLatency,
    DistanceLatency,
    FixedLatency,
    JitteredLatency,
    Network,
)


@dataclass(frozen=True)
class Ping:
    payload: str = "x"
    kind = "ping"

    def size_bytes(self) -> int:
        return 10 + len(self.payload)


def make_net(sim, topo, **kwargs) -> Network:
    return Network(sim, topo, latency=kwargs.pop("latency", FixedLatency(0.1)), **kwargs)


class TestDelivery:
    def test_message_delivered_after_latency(self, sim, triangle):
        net = make_net(sim, triangle)
        got = []
        net.attach(1, lambda src, msg: got.append((sim.now, src, msg)))
        assert net.send(0, 1, Ping()) is True
        sim.run()
        assert got == [(0.1, 0, Ping())]

    def test_send_requires_edge(self, sim, line5):
        net = make_net(sim, line5)
        net.attach(4, lambda s, m: None)
        with pytest.raises(SimulationError):
            net.send(0, 4, Ping())  # not adjacent on a line

    def test_send_to_self_rejected(self, sim, triangle):
        net = make_net(sim, triangle)
        with pytest.raises(SimulationError):
            net.send(0, 0, Ping())

    def test_attach_unknown_node_rejected(self, sim, triangle):
        net = make_net(sim, triangle)
        with pytest.raises(SimulationError):
            net.attach(99, lambda s, m: None)

    def test_delivery_without_handler_is_counted_dropped(self, sim, triangle):
        net = make_net(sim, triangle)
        net.send(0, 1, Ping())
        sim.run()
        assert net.counters.messages_dropped == 1
        assert net.counters.messages_delivered == 0

    def test_counters_track_bytes_and_kinds(self, sim, triangle):
        net = make_net(sim, triangle)
        net.attach(1, lambda s, m: None)
        net.send(0, 1, Ping("abc"))
        net.send(0, 1, Ping("d"))
        sim.run()
        assert net.counters.messages_sent == 2
        assert net.counters.bytes_sent == 13 + 11
        assert net.counters.by_kind == {"ping": 2}
        assert net.counters.bytes_by_kind == {"ping": 24}
        snap = net.counters.snapshot()
        assert snap["messages_delivered"] == 2


class TestLatencyModels:
    def test_fixed_latency(self):
        assert FixedLatency(0.5).delay(0, 1, 99.0) == 0.5

    def test_distance_latency(self):
        model = DistanceLatency(scale=0.01, base=0.1)
        assert model.delay(0, 1, 10.0) == pytest.approx(0.2)

    def test_jittered_latency_bounds(self, sim):
        rng = sim.rng.stream("jitter-test")
        model = JitteredLatency(FixedLatency(0.1), jitter=0.05, rng=rng)
        for _ in range(50):
            d = model.delay(0, 1, 1.0)
            assert 0.1 <= d <= 0.15

    def test_distance_latency_uses_edge_weight(self, sim, triangle):
        triangle_weighted = triangle
        net = Network(sim, triangle_weighted, latency=DistanceLatency(1.0, 0.0))
        got = []
        net.attach(1, lambda s, m: got.append(sim.now))
        net.send(0, 1, Ping())
        sim.run()
        assert got == [1.0]  # default edge weight 1.0


class TestLoss:
    def test_zero_loss_delivers_everything(self, sim, triangle):
        net = make_net(sim, triangle, loss=0.0)
        got = []
        net.attach(1, lambda s, m: got.append(m))
        for _ in range(20):
            net.send(0, 1, Ping())
        sim.run()
        assert len(got) == 20

    def test_loss_drops_fraction(self, sim, triangle):
        net = make_net(sim, triangle, loss=0.5)
        got = []
        net.attach(1, lambda s, m: got.append(m))
        for _ in range(300):
            net.send(0, 1, Ping())
        sim.run()
        assert 80 < len(got) < 220  # ~150 expected
        assert net.counters.messages_dropped == 300 - len(got)

    def test_invalid_loss_rejected(self, sim, triangle):
        with pytest.raises(SimulationError):
            Network(sim, triangle, loss=1.0)


class TestFailures:
    def test_down_node_cannot_send_or_receive(self, sim, triangle):
        net = make_net(sim, triangle)
        got = []
        net.attach(1, lambda s, m: got.append(m))
        net.links.set_node_down(1)
        assert net.send(0, 1, Ping()) is False
        net.links.set_node_up(1)
        assert net.send(0, 1, Ping()) is True
        sim.run()
        assert len(got) == 1

    def test_crash_in_flight_drops_message(self, sim, triangle):
        net = make_net(sim, triangle)
        got = []
        net.attach(1, lambda s, m: got.append(m))
        net.send(0, 1, Ping())
        net.links.set_node_down(1)  # crashes before delivery event fires
        sim.run()
        assert got == []
        assert net.counters.messages_dropped == 1

    def test_link_failure_blocks_both_directions(self, sim, triangle):
        net = make_net(sim, triangle)
        net.attach(0, lambda s, m: None)
        net.attach(1, lambda s, m: None)
        net.links.set_link_down(0, 1)
        assert net.send(0, 1, Ping()) is False
        assert net.send(1, 0, Ping()) is False
        assert net.links.link_is_up(0, 1) is False
        net.links.set_link_up(1, 0)  # order-insensitive key
        assert net.send(0, 1, Ping()) is True

    def test_partition_blocks_cross_group_traffic(self, sim, line5):
        net = make_net(sim, line5)
        for n in line5.nodes:
            net.attach(n, lambda s, m: None)
        net.links.partition([[0, 1], [2, 3, 4]])
        assert net.send(1, 2, Ping()) is False
        assert net.send(0, 1, Ping()) is True
        net.links.heal_partition()
        assert net.send(1, 2, Ping()) is True


class TestOverlay:
    def test_overlay_link_delivers_with_custom_delay(self, sim, line5):
        net = make_net(sim, line5)
        got = []
        net.attach(4, lambda s, m: got.append(sim.now))
        net.add_overlay_link(0, 4, delay=0.42)
        assert net.send(0, 4, Ping()) is True
        sim.run()
        assert got == [0.42]

    def test_overlay_neighbors_listed(self, sim, line5):
        net = make_net(sim, line5)
        net.add_overlay_link(0, 4, 0.1)
        assert net.overlay_neighbors(0) == (4,)
        assert 4 in net.neighbors(0)
        net.remove_overlay_link(0, 4)
        assert net.overlay_neighbors(0) == ()

    def test_overlay_respects_node_crash(self, sim, line5):
        net = make_net(sim, line5)
        net.attach(4, lambda s, m: None)
        net.add_overlay_link(0, 4, 0.1)
        net.links.set_node_down(4)
        assert net.send(0, 4, Ping()) is False

    def test_overlay_survives_physical_link_failure(self, sim, line5):
        net = make_net(sim, line5)
        got = []
        net.attach(1, lambda s, m: got.append(m))
        net.add_overlay_link(0, 1, 0.2)
        net.links.set_link_down(0, 1)  # physical link down, tunnel is routed around
        assert net.send(0, 1, Ping()) is True
        sim.run()
        assert len(got) == 1


class TestBandwidthLatency:
    def test_transmission_delay_scales_with_size(self):
        model = BandwidthLatency(FixedLatency(0.1), bytes_per_time_unit=1000.0)
        assert model.delay(0, 1, 1.0) == 0.1  # size-less fallback
        assert model.delay_with_size(0, 1, 1.0, 500) == pytest.approx(0.6)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(SimulationError):
            BandwidthLatency(FixedLatency(0.1), bytes_per_time_unit=0.0)

    def test_network_uses_message_size(self, sim, triangle):
        net = Network(
            sim,
            triangle,
            latency=BandwidthLatency(FixedLatency(0.1), bytes_per_time_unit=100.0),
        )
        arrivals = []
        net.attach(1, lambda s, m: arrivals.append(sim.now))
        net.send(0, 1, Ping("x" * 10))   # 20 bytes -> 0.1 + 0.2
        sim.run()
        assert arrivals == [pytest.approx(0.3)]

    def test_big_messages_arrive_after_small_ones(self, sim, triangle):
        net = Network(
            sim,
            triangle,
            latency=BandwidthLatency(FixedLatency(0.01), bytes_per_time_unit=100.0),
        )
        got = []
        net.attach(1, lambda s, m: got.append(len(m.payload)))
        net.send(0, 1, Ping("x" * 50))  # slow, sent first
        net.send(0, 1, Ping("y"))       # fast, sent second
        sim.run()
        assert got == [1, 50]


class TestPartitionEdgeCases:
    """Regression lock on partition/link/detach interaction semantics.

    The fault-injection layer (repro.faults) composes these primitives;
    these tests pin the current behaviour so schedule replays stay
    stable across refactors.
    """

    def test_repartition_while_links_down_keeps_link_state(self, sim, line5):
        # A partition and a failed link are independent filters: healing
        # the partition must not resurrect the failed link, and
        # re-partitioning must not reset it either.
        net = make_net(sim, line5)
        for n in line5.nodes:
            net.attach(n, lambda s, m: None)
        net.links.set_link_down(1, 2)
        net.links.partition([[0, 1], [2, 3, 4]])
        assert net.send(1, 2, Ping()) is False  # both filters block
        net.links.partition([[0, 1, 2], [3, 4]])  # re-partition while split
        assert net.send(1, 2, Ping()) is False  # link still down
        assert net.send(2, 3, Ping()) is False  # new boundary blocks
        net.links.heal_partition()
        assert net.send(1, 2, Ping()) is False  # heal does not fix links
        net.links.set_link_up(1, 2)
        assert net.send(1, 2, Ping()) is True

    def test_repartition_replaces_previous_assignment(self, sim, line5):
        net = make_net(sim, line5)
        for n in line5.nodes:
            net.attach(n, lambda s, m: None)
        net.links.partition([[0, 1], [2, 3, 4]])
        net.links.partition([[0, 1, 2], [3, 4]])  # only the latest split holds
        assert net.send(1, 2, Ping()) is True
        assert net.send(3, 4, Ping()) is True

    def test_detach_of_down_node_then_recovery(self, sim, triangle):
        # Churn leave = down + detach; messages drop as link-down at
        # send time. After recovery + re-attach, delivery resumes.
        net = make_net(sim, triangle)
        got = []
        handler = lambda s, m: got.append(m)
        net.attach(1, handler)
        net.links.set_node_down(1)
        net.detach(1)
        assert net.handler_for(1) is None
        assert net.send(0, 1, Ping()) is False
        assert net.counters.messages_dropped == 1
        net.links.set_node_up(1)
        net.attach(1, handler)
        assert net.handler_for(1) is handler
        assert net.send(0, 1, Ping()) is True
        sim.run()
        assert len(got) == 1

    def test_detached_up_node_drops_at_delivery_not_send(self, sim, triangle):
        # Without the crash, a detached node still accepts the message
        # into the channel; it drops at delivery time as "no-handler".
        net = make_net(sim, triangle)
        net.attach(1, lambda s, m: None)
        net.detach(1)
        assert net.send(0, 1, Ping()) is True
        sim.run()
        assert net.counters.messages_delivered == 0
        assert net.counters.messages_dropped == 1

    def test_set_link_up_does_not_cross_partition(self, sim, line5):
        # "Self-healing" a link inside an active partition: the link
        # filter clears but the partition filter still blocks until
        # heal_partition() — partitions are strictly stronger.
        net = make_net(sim, line5)
        for n in line5.nodes:
            net.attach(n, lambda s, m: None)
        net.links.partition([[0, 1], [2, 3, 4]])
        net.links.set_link_down(1, 2)
        net.links.set_link_up(1, 2)
        assert net.links.link_is_up(1, 2) is True
        assert net.send(1, 2, Ping()) is False
        net.links.heal_partition()
        assert net.send(1, 2, Ping()) is True

    def test_partition_ignores_unlisted_nodes(self, sim, line5):
        # Nodes absent from every group share the "None" side: they can
        # talk to each other but not to any listed group.
        net = make_net(sim, line5)
        for n in line5.nodes:
            net.attach(n, lambda s, m: None)
        net.links.partition([[0, 1]])
        assert net.send(0, 1, Ping()) is True
        assert net.send(1, 2, Ping()) is False  # listed <-> unlisted
        assert net.send(2, 3, Ping()) is True  # unlisted <-> unlisted


class TestZeroCostTracing:
    """Disabled/filtered tracing must cost the hot path nothing.

    A ``record()`` call builds a kwargs dict before the category filter
    can reject it, so every hot call site guards with ``wants()`` first.
    The bomb tracer proves ``record`` is never even invoked.
    """

    class BombTracer(Tracer):
        def record(self, time, category, **fields):
            raise AssertionError(
                f"record({category!r}) called despite the category being off"
            )

    def test_network_send_skips_record_when_filtered(self, sim, triangle):
        sim.trace = self.BombTracer()
        sim.trace.enable_only(["something-else"])
        net = make_net(sim, triangle)
        net.attach(1, lambda src, msg: None)
        assert net.send(0, 1, Ping()) is True
        sim.run()
        assert net.counters.messages_delivered == 1

    def test_network_drop_skips_record_when_filtered(self, sim, triangle):
        sim.trace = self.BombTracer()
        sim.trace.enable_only(["something-else"])
        net = make_net(sim, triangle)
        net.links.set_node_down(1)
        net.attach(0, lambda src, msg: None)
        assert net.send(0, 1, Ping()) is False
        assert net.counters.messages_dropped == 1

    def test_full_protocol_run_never_calls_record_when_filtered(self):
        # End-to-end: sessions, fast updates and deliveries all run with
        # every category filtered out — no call site may reach record().
        from repro.core.system import ReplicationSystem
        from repro.core.variants import fast_consistency
        from repro.demand.static import UniformRandomDemand
        from repro.sim.engine import Simulator
        from repro.topology.simple import ring

        tracer = self.BombTracer()
        tracer.enable_only([])
        sim = Simulator(seed=7, trace=tracer)
        system = ReplicationSystem(
            topology=ring(6),
            demand=UniformRandomDemand(seed=7),
            config=fast_consistency(),
            seed=7,
            sim=sim,
        )
        system.start()
        update = system.inject_write(0)
        assert system.run_until_replicated(update.uid, max_time=60.0) is not None
