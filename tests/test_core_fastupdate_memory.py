"""Long-run memory bounding of the fast-update push bookkeeping.

The fast-update agent keeps one piece of per-uid state, ``_push_depth``
(the push hops each update had taken when it arrived, stamped on the
offers and payloads that carry it onward). Before log truncation was
wired to evict it, that state grew with every write ever integrated — a
slow leak on long horizons. These tests pin the fix: with
``log_truncation="max-entries"`` the bookkeeping stays bounded by the
live log, while a keep-all run on the same workload shows the unbounded
growth the eviction removes.
"""

from __future__ import annotations

from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency
from repro.demand.static import UniformRandomDemand
from repro.topology.brite import internet_like

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


def test_keep_all_push_state_grows_with_every_write():
    # The contrast case: without truncation the per-uid dict retains an
    # entry for every write ever integrated, on every node.
    system = run_workload(fast_consistency())
    depths = [len(node.fast._push_depth) for node in system.nodes.values()]
    assert max(depths) == WRITES
    assert min(depths) == WRITES  # full convergence: every node saw all


def test_truncation_bounds_push_state_by_live_log():
    system = run_workload(
        fast_consistency(
            log_truncation="max-entries", max_log_entries=MAX_LOG
        )
    )
    for node in system.nodes.values():
        agent = node.fast
        live = {u.uid for u in node.server.log.all_updates()}
        # Anti-entropy purges at session end, so the settled log obeys
        # the configured bound...
        assert len(live) <= MAX_LOG
        # ...and the push bookkeeping was evicted in lock-step: no
        # entry outlives its log entry, so the dict is bounded by the
        # live log instead of the write history (WRITES >> MAX_LOG).
        assert set(agent._push_depth) <= live


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
