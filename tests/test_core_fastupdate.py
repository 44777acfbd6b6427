"""Tests for the fast-update push agent (repro.core.fastupdate)."""

from __future__ import annotations

import pytest

from repro.core.fastupdate import FastUpdateAgent
from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency, weak_consistency
from repro.demand.static import ConstantDemand, ExplicitDemand
from repro.topology.simple import line, star


def slope_line_system(config=None, seed=3):
    """A 5-node line whose demand increases along the line.

    0(1) - 1(2) - 2(4) - 3(8) - 4(16): a write at node 0 should cascade
    downhill all the way to node 4 at link speed.
    """
    topo = line(5)
    demand = ExplicitDemand({0: 1.0, 1: 2.0, 2: 4.0, 3: 8.0, 4: 16.0})
    return ReplicationSystem(
        topology=topo,
        demand=demand,
        config=config if config is not None else fast_consistency(),
        seed=seed,
    )


class TestDownhillCascade:
    def test_write_floods_the_valley_at_link_speed(self):
        system = slope_line_system()
        system.start()
        update = system.inject_write(0)
        # Run a tiny bit of time: far less than one session interval but
        # enough for 4 hops of offer/reply/payload (3 * link_delay each).
        system.run_until(0.5)
        times = system.apply_times(update.uid)
        assert set(times) == {0, 1, 2, 3, 4}
        assert times[4] < 0.5  # reached the valley floor without a session
        # Monotone arrival along the slope.
        assert times[1] < times[2] < times[3] < times[4]

    def test_cascade_stops_at_local_maximum(self):
        # Demand peaks at node 2; a write at 0 pushes 1 -> 2 but not
        # further (3 and 4 are lower demand than 2).
        topo = line(5)
        demand = ExplicitDemand({0: 1.0, 1: 2.0, 2: 9.0, 3: 2.0, 4: 1.0})
        system = ReplicationSystem(
            topology=topo, demand=demand, config=fast_consistency(), seed=4
        )
        system.start()
        update = system.inject_write(0)
        system.run_until(0.5)
        times = system.apply_times(update.uid)
        assert 2 in times
        assert 3 not in times  # beyond the peak: must wait for sessions
        assert 4 not in times

    def test_flat_demand_never_pushes(self):
        # §8: "when all the replicas possess the same demand ... the
        # algorithm behaves like a normal weak consistency algorithm."
        system = ReplicationSystem(
            topology=line(5),
            demand=ConstantDemand(5.0),
            config=fast_consistency(),
            seed=5,
        )
        system.start()
        system.inject_write(0)
        system.run_until(10.0)
        counters = system.network.counters.by_kind
        assert counters.get("fast-offer", 0) == 0

    def test_always_rule_pushes_on_flat_demand(self):
        system = ReplicationSystem(
            topology=line(5),
            demand=ConstantDemand(5.0),
            config=fast_consistency(push_rule="always"),
            seed=5,
        )
        system.start()
        update = system.inject_write(0)
        system.run_until(0.5)
        assert system.network.counters.by_kind.get("fast-offer", 0) > 0
        assert len(system.apply_times(update.uid)) == 5  # flooded everywhere

    def test_push_triggered_by_session_arrivals_too(self):
        # Write at the valley (node 4). Fast push never goes uphill, so
        # node 0 receives only via sessions; when node 1 later gets the
        # update by session, it must re-push downhill if a higher-demand
        # neighbour still lacks it — exercised implicitly by convergence.
        system = slope_line_system(seed=11)
        system.start()
        update = system.inject_write(4)
        done = system.run_until_replicated(update.uid, max_time=60.0)
        assert done is not None


class TestOfferProtocol:
    def test_no_duplicate_offers_to_same_neighbor(self):
        system = slope_line_system()
        system.start()
        system.inject_write(0)
        system.run_until(5.0)
        # Each node offered each update to each downhill neighbour at
        # most once: on a line with a single write, offers <= 4.
        assert system.network.counters.by_kind.get("fast-offer", 0) <= 4

    def test_reply_no_when_already_known(self):
        system = slope_line_system()
        system.start()
        update = system.inject_write(0)
        system.run_until_replicated(update.uid, max_time=60.0)
        system.run_until(system.sim.now + 10.0)
        replies_no = sum(
            n.fast.stats.replies_no for n in system.nodes.values() if n.fast
        )
        replies_yes = sum(
            n.fast.stats.replies_yes for n in system.nodes.values() if n.fast
        )
        # The single write travelled each edge at most once via push.
        assert replies_yes >= 1
        assert replies_no >= 0  # NOs occur when sessions beat the push

    def test_fast_messages_absent_in_weak_variant(self):
        system = ReplicationSystem(
            topology=star(6),
            demand=ExplicitDemand({i: float(i) for i in range(6)}),
            config=weak_consistency(),
            seed=2,
        )
        system.start()
        system.inject_write(0)
        system.run_until(10.0)
        kinds = system.network.counters.by_kind
        assert "fast-offer" not in kinds
        assert "fast-payload" not in kinds

    def test_fanout_two_offers_two_neighbors(self):
        # Star hub (node 0, demand 1) with leaves of demand 5..8: with
        # fanout 2 the hub pushes to the two hottest leaves immediately.
        topo = star(5)
        demand = ExplicitDemand({0: 1.0, 1: 5.0, 2: 6.0, 3: 7.0, 4: 8.0})
        system = ReplicationSystem(
            topology=topo,
            demand=demand,
            config=fast_consistency(fast_fanout=2),
            seed=9,
        )
        system.start()
        update = system.inject_write(0)
        system.run_until(0.2)
        times = system.apply_times(update.uid)
        assert 4 in times and 3 in times  # two hottest leaves
        assert 1 not in times  # fanout capped at 2

    def test_offers_of_one_batch_share_their_entries(self, monkeypatch):
        received = []
        handle_offer = FastUpdateAgent._handle_offer

        def recording(agent, src, message):
            received.append((agent.node, message))
            return handle_offer(agent, src, message)

        monkeypatch.setattr(FastUpdateAgent, "_handle_offer", recording)
        demand = ExplicitDemand({0: 1.0, 1: 5.0, 2: 6.0, 3: 7.0, 4: 8.0})
        system = ReplicationSystem(
            topology=star(5), demand=demand, config=fast_consistency(fast_fanout=2), seed=9
        )
        system.start()
        update = system.inject_write(0)
        system.run_until(0.2)
        (to_3,), (to_4,) = (
            [m for node, m in received if node == leaf] for leaf in (3, 4)
        )
        assert to_3.entries == ((update.uid, update.timestamp),)
        # Offers are immutable: one tuple per batch, not one per target.
        assert to_3.entries is to_4.entries

    def test_stats_track_pushes(self):
        system = slope_line_system()
        system.start()
        system.inject_write(0)
        system.run_until(1.0)
        pushed = sum(n.fast.stats.updates_pushed for n in system.nodes.values())
        received = sum(n.fast.stats.updates_received for n in system.nodes.values())
        assert pushed == received == 4  # one hop at a time down the line
