"""Tests for the anti-entropy session agent (repro.core.antientropy)."""

from __future__ import annotations

import pytest

from repro.core.system import ReplicationSystem
from repro.core.variants import weak_consistency
from repro.demand.static import ConstantDemand
from repro.replica.messages import SessionBusy, SessionRequest, SummaryMessage
from repro.topology.simple import line, star


def two_node_system(**overrides):
    config = weak_consistency(**overrides)
    return ReplicationSystem(
        topology=line(2), demand=ConstantDemand(1.0), config=config, seed=3
    )


class TestSessionExchange:
    def test_session_transfers_updates_both_ways(self):
        system = two_node_system()
        a = system.servers[0].local_write("ka", "va")
        b = system.servers[1].local_write("kb", "vb")
        system.start()
        system.run_until(5.0)
        assert system.servers[0].has_update(b.uid)
        assert system.servers[1].has_update(a.uid)
        assert system.servers[0].is_consistent_with(system.servers[1])

    def test_sessions_complete_and_are_counted(self):
        system = two_node_system()
        system.start()
        system.run_until(10.0)
        stats = system.session_stats_total()
        assert stats["initiated"] > 5
        completed = stats["completed_initiator"]
        assert completed > 0
        assert stats["completed_responder"] == completed

    def test_empty_sessions_still_complete(self):
        # No writes at all: summary vectors are empty, batches are empty,
        # but the session protocol must still terminate cleanly.
        system = two_node_system()
        system.start()
        system.run_until(5.0)
        stats = system.session_stats_total()
        assert stats["completed_initiator"] > 0
        assert stats["timeouts"] == 0
        assert stats["updates_sent"] == 0

    def test_initiation_rate_matches_interval_mean(self):
        system = two_node_system()
        system.start()
        system.run_until(100.0)
        stats = system.session_stats_total()
        # Two nodes, mean one initiation per unit each -> ~200 total.
        assert 140 < stats["initiated"] < 260

    def test_agents_cannot_start_twice(self):
        system = two_node_system()
        system.start()
        from repro.errors import ReplicationError

        with pytest.raises(ReplicationError):
            system.nodes[0].anti_entropy.start()


class TestSessionMessageFlow:
    def test_message_sequence_per_session(self):
        # One completed session = request + 2 summaries + 2 batches.
        system = two_node_system()
        system.start()
        system.run_until(30.0)
        counters = system.network.counters.by_kind
        completed = system.session_stats_total()["completed_initiator"]
        assert counters["session-request"] >= completed
        assert counters["summary"] == 2 * counters["session-request"]
        assert counters["update-batch"] == counters["summary"]

    def test_trace_records_sessions(self):
        system = two_node_system()
        system.start()
        system.run_until(5.0)
        starts = system.sim.trace.select("session.start")
        ends = system.sim.trace.select("session.end")
        assert len(starts) > 0
        assert len(ends) == 2 * system.session_stats_total()["completed_initiator"]


class TestLossTolerance:
    def test_sessions_time_out_under_loss_but_system_converges(self):
        system = ReplicationSystem(
            topology=line(2),
            demand=ConstantDemand(1.0),
            config=weak_consistency(),
            seed=5,
            loss=0.3,
        )
        update = system.servers[0].local_write("k", "v")
        system.start()
        done = system.run_until_replicated(update.uid, max_time=60.0)
        assert done is not None
        assert system.session_stats_total()["timeouts"] > 0

    def test_no_leaked_sessions_after_timeouts(self):
        system = ReplicationSystem(
            topology=line(2),
            demand=ConstantDemand(1.0),
            config=weak_consistency(session_timeout=0.3),
            seed=6,
            loss=0.4,
        )
        system.start()
        system.run_until(40.0)
        for node in system.nodes.values():
            # All sessions either completed or were reaped by timeout;
            # only very recent ones (within the timeout window) may linger.
            assert node.anti_entropy.active_sessions <= 2


class TestBusyRefusal:
    def test_refusals_counted_when_enabled(self):
        system = ReplicationSystem(
            topology=line(3),
            demand=ConstantDemand(1.0),
            config=weak_consistency(refuse_when_busy=True, session_interval_mean=0.2),
            seed=8,
        )
        system.start()
        system.run_until(30.0)
        stats = system.session_stats_total()
        assert stats["refused_sent"] > 0
        assert stats["refused_received"] == stats["refused_sent"]
        # Refused sessions still leave the system functional.
        assert stats["completed_initiator"] > 0

    def test_no_refusals_by_default(self):
        system = two_node_system()
        system.start()
        system.run_until(20.0)
        assert system.session_stats_total()["refused_sent"] == 0


class TestSessionRoles:
    def test_each_node_counts_the_role_it_completed_in(self):
        """On a star every leaf's only partner is the hub, so the hub
        answers far more sessions than it starts; no node can complete
        more sessions as initiator than it initiated."""
        system = ReplicationSystem(
            topology=star(9), demand=ConstantDemand(1.0),
            config=weak_consistency(), seed=3,
        )
        system.start()
        system.run_until(30.0)
        hub = system.nodes[0].anti_entropy.stats
        assert hub.completed_responder > 4 * hub.initiated > 0
        for node, stack in system.nodes.items():
            stats = stack.anti_entropy.stats
            assert 0 < stats.completed_initiator <= stats.initiated, node
        leaves = [system.nodes[n].anti_entropy.stats for n in range(1, 9)]
        assert hub.completed_responder == sum(s.completed_initiator for s in leaves)


class TestOutOfProtocolMessages:
    """A session message that breaks the protocol — bytes off a socket
    can carry one — sends nothing and completes nothing."""

    def test_reply_summary_to_an_initiator_is_ignored(self):
        system = two_node_system()
        system.servers[0].local_write("k", "v")
        initiator = system.nodes[0].anti_entropy
        assert initiator.initiate_with(1)
        [state] = initiator._sessions.values()
        sent = system.network.counters.messages_sent
        system.nodes[0].on_message(
            1, SummaryMessage(state.sid, 1, system.servers[1].summary(), is_reply=True)
        )
        assert system.network.counters.messages_sent == sent
        assert not state.sent_batch and not state.received_batch
        # The session still runs its ordinary course afterwards.
        system.run_until(1.0)
        assert initiator.stats.completed_initiator == 1
        assert system.servers[1].is_consistent_with(system.servers[0])

    def test_request_summary_to_a_responder_is_ignored(self):
        system = two_node_system()
        system.servers[1].local_write("k", "v")
        responder = system.nodes[1].anti_entropy
        system.nodes[1].on_message(0, SessionRequest(7, 0))
        [state] = responder._sessions.values()
        sent = system.network.counters.messages_sent
        system.nodes[1].on_message(
            0, SummaryMessage(7, 0, system.servers[0].summary(), is_reply=False)
        )
        assert system.network.counters.messages_sent == sent
        assert not state.sent_batch
        assert responder.stats.completed_responder == 0
        assert responder.stats.updates_sent == 0

    def test_summary_for_no_session_or_from_a_stranger_is_ignored(self):
        system = ReplicationSystem(
            topology=line(3), demand=ConstantDemand(1.0),
            config=weak_consistency(), seed=3,
        )
        system.servers[1].local_write("k", "v")
        responder = system.nodes[1].anti_entropy
        system.nodes[1].on_message(0, SessionRequest(7, 0))
        [state] = responder._sessions.values()
        sent = system.network.counters.messages_sent
        summary = system.servers[2].summary()
        system.nodes[1].on_message(2, SummaryMessage(7, 2, summary, is_reply=True))
        system.nodes[1].on_message(2, SummaryMessage(8, 2, summary, is_reply=True))
        assert system.network.counters.messages_sent == sent
        assert not state.sent_batch
        assert responder.stats.updates_sent == 0

    def test_busy_for_no_session_or_to_a_responder_is_ignored(self):
        system = two_node_system()
        responder = system.nodes[1].anti_entropy
        system.nodes[1].on_message(0, SessionRequest(7, 0))
        system.nodes[1].on_message(0, SessionBusy(7, 0))
        system.nodes[1].on_message(0, SessionBusy(8, 0))
        assert list(responder._sessions) == [7]
        assert responder.stats.refused_received == 0
