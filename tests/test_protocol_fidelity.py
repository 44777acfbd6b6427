"""Protocol-fidelity tests: golden message sequences and cascade depths.

These tests pin the wire behaviour to the paper's §2.1 step list: the
exact message kinds, their order, and the depth bookkeeping of the
valley-flooding cascade.
"""

from __future__ import annotations

import pytest

from repro.core.metrics import cascade_histogram, cascade_hops
from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency, weak_consistency
from repro.demand.static import ExplicitDemand
from repro.topology.simple import line


def sent_messages(system, kinds=None):
    """(src, dst, kind) tuples in send order from the trace."""
    records = system.sim.trace.select("net.send")
    out = []
    for rec in records:
        kind = rec.get("kind")
        if kinds is None or kind in kinds:
            out.append((rec.get("src"), rec.get("dst"), kind))
    return out


class TestGoldenSessionSequence:
    """One anti-entropy exchange must follow steps 1-12 exactly."""

    def test_session_message_order(self):
        topo = line(2)
        system = ReplicationSystem(
            topo, ExplicitDemand({0: 1.0, 1: 2.0}), weak_consistency(), seed=1
        )
        system.sim.trace.enable_only(["net.send"])
        system.servers[0].local_write("k", "v")
        # Drive exactly one session deterministically.
        system.nodes[0].anti_entropy.initiate_with(1)
        system.run_until(1.0)
        sequence = sent_messages(system)
        assert sequence == [
            (0, 1, "session-request"),   # step 2
            (1, 0, "summary"),           # step 4 (responder's summary)
            (0, 1, "summary"),           # step 6 (initiator's summary)
            (0, 1, "update-batch"),      # step 8 (initiator's missing)
            (1, 0, "update-batch"),      # step 11 (responder's missing)
        ]
        # Step 12: the responder integrated the new message.
        assert system.servers[1].has_update((0, 1))

    def test_fast_update_message_order(self):
        # A write at 0 with a hotter neighbour 1 triggers steps 13-17.
        topo = line(2)
        system = ReplicationSystem(
            topo, ExplicitDemand({0: 1.0, 1: 5.0}), fast_consistency(), seed=1
        )
        system.sim.trace.enable_only(["net.send"])
        system.inject_write(0)
        system.run_until(0.2)
        sequence = sent_messages(system, kinds={"fast-offer", "fast-reply", "fast-payload"})
        assert sequence == [
            (0, 1, "fast-offer"),    # step 13
            (1, 0, "fast-reply"),    # step 15 (YES)
            (0, 1, "fast-payload"),  # step 17
        ]

    def test_fast_update_no_answer_sends_nothing(self):
        # Step 18: "If the answer of D is NO, B sends nothing."
        topo = line(2)
        system = ReplicationSystem(
            topo, ExplicitDemand({0: 1.0, 1: 5.0}), fast_consistency(), seed=1
        )
        update = system.inject_write(0)
        # The write's one offer is in flight to node 1. Pre-load node 1
        # with the update before the offer lands, so its answer is NO.
        system.servers[1].integrate([update], "session", sender=0)
        system.sim.trace.enable_only(["net.send"])
        system.run_until(0.2)
        kinds = [k for _, _, k in sent_messages(system)]
        assert kinds == ["fast-offer", "fast-reply"]  # NO -> no payload


class TestCascadeDepth:
    def slope_system(self, n=6):
        topo = line(n)
        demand = ExplicitDemand({i: float(2**i) for i in range(n)})
        return ReplicationSystem(topo, demand, fast_consistency(), seed=2)

    def test_cascade_depth_counts_push_hops(self):
        system = self.slope_system()
        system.start()
        system.inject_write(0)
        system.run_until(0.8)
        hops = sorted(cascade_hops(system.sim.trace))
        # A 6-node slope floods 5 hops deep: depths 1..5, one each.
        assert hops == [1, 2, 3, 4, 5]
        histogram = cascade_histogram(system.sim.trace)
        assert histogram == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}

    def test_max_cascade_stat_tracked(self):
        system = self.slope_system()
        system.start()
        system.inject_write(0)
        system.run_until(0.8)
        deepest = max(n.fast.stats.max_cascade_hops for n in system.nodes.values())
        assert deepest == 5

    def test_session_delivery_resets_depth(self):
        # An update that travelled by session starts a fresh cascade:
        # depth restarts at 1 for the next push hop.
        topo = line(4)
        demand = ExplicitDemand({0: 8.0, 1: 1.0, 2: 2.0, 3: 4.0})
        system = ReplicationSystem(topo, demand, fast_consistency(), seed=3)
        system.start()
        # Write at 1: pushes nowhere uphill except 2 (2 > 1)... then 3.
        system.inject_write(1)
        system.run_until(0.5)
        hops = cascade_hops(system.sim.trace)
        assert hops and max(hops) <= 2  # 1->2 (hop 1), 2->3 (hop 2)
