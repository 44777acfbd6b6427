"""Long-run memory bounding of the fast-update push bookkeeping.

The fast-update agent keeps one piece of per-write state, ``_push_depth``
(the push hops each update had taken when it arrived, stamped on the
offers and payloads that carry it onward): per origin, a byte per
sequence number. These tests pin what it may cost: under keep-all a byte
a write and no entry of any dict; with ``log_truncation="max-entries"``
no more bytes than the live log has entries, which log truncation evicts
in lock-step; and a payload for a write that was already truncated
leaves nothing behind, since no later purge would ever evict it.
"""

from __future__ import annotations

import sys

from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency
from repro.demand.static import ExplicitDemand, UniformRandomDemand
from repro.replica.messages import FastUpdatePayload
from repro.topology.brite import internet_like
from repro.topology.simple import line

NODES = 12
WRITES = 150
WRITE_SPACING = 0.2
SETTLE = 20.0
MAX_LOG = 24


def run_workload(config):
    """Drive ``WRITES`` writes from rotating origins over a long horizon."""
    system = ReplicationSystem(
        topology=internet_like(NODES, seed=3),
        demand=UniformRandomDemand(seed=3),
        config=config,
        seed=5,
    )
    system.sim.trace.disable()
    system.start()
    for index in range(WRITES):
        system.run_until(index * WRITE_SPACING)
        system.inject_write(index % NODES)
    system.run_until(WRITES * WRITE_SPACING + SETTLE)
    return system


def push_state_bytes(agent) -> int:
    """Depth cells the agent holds, one byte each, over all origins."""
    return sum(len(depths) for depths in agent._push_depth.values())


def test_keep_all_push_state_is_a_byte_a_write():
    # The contrast case: without truncation the state keeps growing, but
    # by a cell of a per-origin bytearray and not by a dict entry.
    system = run_workload(fast_consistency())
    pushed = 0
    for node in system.nodes.values():
        agent = node.fast
        assert len(node.server.log) == WRITES  # full convergence
        assert set(agent._push_depth) <= set(range(NODES))  # keyed by origin
        assert push_state_bytes(agent) <= WRITES
        held = sum(sys.getsizeof(depths) for depths in agent._push_depth.values())
        assert held <= 2 * WRITES + 80 * NODES  # slack of bytearray growth
        pushed += sum(
            agent._depth_of(update.uid) > 0 for update in node.server.log.all_updates()
        )
    assert pushed > WRITES  # the cascades did deliver, and were recorded


def test_truncation_bounds_push_state_by_live_log():
    system = run_workload(
        fast_consistency(
            log_truncation="max-entries", max_log_entries=MAX_LOG
        )
    )
    for node in system.nodes.values():
        agent = node.fast
        log = node.server.log
        # Anti-entropy purges at session end, so the settled log obeys
        # the configured bound...
        assert len(log) <= MAX_LOG
        # ...and the push bookkeeping was evicted in lock-step: no cell
        # outlives its log entry, so the state is bounded by the live
        # log instead of the write history (WRITES >> MAX_LOG).
        for origin, depths in agent._push_depth.items():
            live = [u.seq for u in log.all_updates() if u.origin == origin]
            assert len(depths) <= len(live)
            if depths:
                assert depths.first >= live[0]
                assert depths.first + len(depths) - 1 <= live[-1]
        assert push_state_bytes(agent) <= len(log)


def test_a_payload_for_a_truncated_write_leaves_no_push_state():
    # The write came by session and was truncated; the same write then
    # arrives by push. The log answers has() for it, nothing is
    # integrated, and no purge will ever name it again: state recorded
    # for it now would stay for ever.
    demand = ExplicitDemand({n: float(n + 1) for n in range(3)})
    system = ReplicationSystem(
        topology=line(3),
        demand=demand,
        config=fast_consistency(log_truncation="max-entries", max_log_entries=1),
        seed=1,
    )
    first = system.inject_write(0, key="a")
    second = system.inject_write(0, key="b")
    target = system.nodes[2]
    target.server.integrate([first, second], "session", sender=1)
    assert target.server.log.purge() == 1
    assert target.server.log.has(first.uid)
    assert [u.uid for u in target.server.log.all_updates()] == [second.uid]
    target.fast._handle_payload(1, FastUpdatePayload(1, (first,), depth=0))
    assert push_state_bytes(target.fast) == 0
    assert target.fast._depth_of(first.uid) == 0
    assert target.fast.stats.updates_received == 0


def test_truncated_run_still_converges_every_write():
    # Eviction must be behaviour-neutral: the same workload under
    # aggressive truncation still applies every write everywhere.
    system = run_workload(
        fast_consistency(
            log_truncation="max-entries", max_log_entries=MAX_LOG
        )
    )
    for node in system.nodes.values():
        summary = node.server.log.summary
        applied = sum(
            summary.get(origin) for origin in range(NODES)
        )
        assert applied == WRITES
