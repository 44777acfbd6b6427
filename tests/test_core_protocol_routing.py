"""Tests for per-node message routing (repro.core.protocol)."""

from __future__ import annotations

import pytest

from repro.core.system import ReplicationSystem
from repro.core.variants import (
    dynamic_fast_consistency,
    fast_consistency,
    weak_consistency,
)
from repro.demand.advertisement import DemandAdvert
from repro.demand.static import ConstantDemand, ExplicitDemand
from repro.errors import ReplicationError
from repro.replica.messages import FastUpdateOffer, SessionRequest, SummaryMessage
from repro.replica.versions import SummaryVector
from repro.topology.simple import line


def build(config, demand=None, n=2, seed=1):
    return ReplicationSystem(
        line(n),
        demand if demand is not None else ConstantDemand(1.0),
        config,
        seed=seed,
    )


class TestRouting:
    def test_session_messages_reach_anti_entropy_agent(self):
        system = build(weak_consistency())
        node = system.nodes[1]
        node.on_message(0, SessionRequest(session_id=42, initiator=0))
        # The responder created a session and answered with its summary.
        assert node.anti_entropy.active_sessions == 1
        assert system.network.counters.by_kind.get("summary", 0) == 1

    def test_fast_messages_ignored_by_weak_node(self):
        # A mixed deployment: a fast peer pushes at a plain-weak node.
        system = build(weak_consistency())
        node = system.nodes[1]
        node.on_message(0, FastUpdateOffer(sender=0, entries=()))
        ignored = system.sim.trace.select("node.ignored-fast")
        assert len(ignored) == 1
        assert ignored[0].get("node") == 1

    def test_fast_messages_reach_fast_agent(self):
        system = build(fast_consistency(), ExplicitDemand({0: 1.0, 1: 2.0}))
        node = system.nodes[1]
        node.on_message(0, FastUpdateOffer(sender=0, entries=()))
        assert node.fast.stats.offers_received == 1

    def test_adverts_reach_advertiser(self):
        system = build(dynamic_fast_consistency())
        node = system.nodes[1]
        node.on_message(0, DemandAdvert(sender=0, value=7.0))
        assert system.tables[1].believed(0) == 7.0

    def test_adverts_dropped_without_advertiser(self):
        system = build(weak_consistency())
        # Must not raise: adverts from dynamic peers are simply ignored.
        system.nodes[1].on_message(0, DemandAdvert(sender=0, value=7.0))

    def test_unroutable_message_raises(self):
        system = build(weak_consistency())
        with pytest.raises(ReplicationError):
            system.nodes[1].on_message(0, object())

    def test_double_start_rejected(self):
        system = build(weak_consistency())
        system.start()
        with pytest.raises(ReplicationError):
            system.nodes[0].start()

    def test_bridge_targets_require_fast_agent(self):
        system = build(weak_consistency())
        with pytest.raises(ReplicationError):
            system.nodes[0].add_bridge_targets([1])


class Ping:
    """A message type of some component riding on the replication transport."""


class TestRoute:
    def test_routed_type_reaches_its_handler_on_that_node_only(self):
        system = build(fast_consistency(), n=3)
        got = []
        system.nodes[1].route(Ping, lambda src, message: got.append((src, message)))
        ping = Ping()
        system.nodes[1].on_message(0, ping)
        assert got == [(0, ping)]
        for other in (0, 2):
            with pytest.raises(ReplicationError):
                system.nodes[other].on_message(1, ping)
        # The node's own protocol traffic still arrives.
        system.nodes[1].on_message(0, SessionRequest(session_id=42, initiator=0))
        assert system.nodes[1].anti_entropy.active_sessions == 1

    def test_unrouted_nodes_share_one_table_and_allocate_none(self):
        system = build(fast_consistency(), n=4)
        shared = system.nodes[0]._routes
        assert all(node._routes is shared for node in system.nodes.values())
        system.nodes[2].route(Ping, lambda src, message: None)
        assert system.nodes[2]._routes is not shared
        assert Ping not in shared
        assert all(system.nodes[n]._routes is shared for n in (0, 1, 3))
        # A second route goes into the node's own table, not a new copy.
        own = system.nodes[2]._routes
        system.nodes[2].route(SessionRequest, lambda src, message: None)
        assert system.nodes[2]._routes is own
        assert shared[SessionRequest] is not own[SessionRequest]
        # Plain-protocol nodes share a table too, a different one.
        weak = build(weak_consistency(), n=2)
        assert weak.nodes[0]._routes is weak.nodes[1]._routes is not shared

    def test_subclassed_message_takes_its_base_route_cached_on_the_node(self):
        class TaggedSummary(SummaryMessage):
            pass

        system = build(weak_consistency(), n=3)
        shared = system.nodes[0]._routes
        node = system.nodes[1]
        node.on_message(0, SessionRequest(session_id=7, initiator=0))
        tagged = TaggedSummary(7, 0, SummaryVector(), is_reply=True)
        node.on_message(0, tagged)
        # The responder answered the initiator's summary with its batch.
        assert system.network.counters.by_kind.get("update-batch", 0) == 1
        assert node._routes[TaggedSummary] is shared[SummaryMessage]
        assert TaggedSummary not in shared
        assert system.nodes[2]._routes is shared
