"""A node ranks its neighbours once per change of belief or neighbours.

(a) Partner selection and push-target choice, which share one
    :class:`NeighborRanking` per node, answer what the code answered when
    it sorted on every call (kept below as the oracle) over generated
    histories that interleave both calls with everything that can move
    the order: adverts into a :class:`DemandTable`, the clock passing
    :class:`ScheduledDemand` change points, :class:`ShockableDemand`
    shocks and edges added and removed.
(b) In a run under a time-invariant model each node reads each
    neighbour's believed demand once, and not while the system is built.
(c) A repeated advert is not a change: a table's version, the epoch of
    the advertised view, moves only when a believed value does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PUSH_ALWAYS, PUSH_DOWNHILL
from repro.core.fastupdate import FastUpdateAgent
from repro.core.policies import DemandOrderedPolicy
from repro.core.system import ReplicationSystem
from repro.core.variants import (
    dynamic_fast_consistency,
    fast_consistency,
    push_only_consistency,
)
from repro.demand.dynamic import ScheduledDemand
from repro.demand.static import ExplicitDemand, UniformRandomDemand
from repro.demand.views import (
    DemandTable,
    OracleDemandView,
    SnapshotDemandView,
    TableDemandView,
)
from repro.faults.process import ShockableDemand
from repro.replica.server import ReplicaServer
from repro.replica.workload import start_workloads
from repro.runtime.simulation import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.topology.brite import internet_like
from repro.topology.graph import Topology

NODES = 6
#: The node whose choices are checked; the others are its candidates.
ME = 0
DEMANDS = (0.0, 1.0, 2.0, 3.0)  # few values, so ties by id are common
OTHERS = tuple(range(1, NODES))

# ---------------------------------------------------------------------------
# The oracle: both choices as they stood, sorting on every call
# ---------------------------------------------------------------------------


def parent_rank(view, nodes):
    return sorted(nodes, key=lambda n: (-view.demand_of(n), n))


class ParentPolicy:
    """``DemandOrderedPolicy`` before the ranking: a visited set per
    node, the remaining neighbours sorted on every selection."""

    def __init__(self, view):
        self.view = view
        self.visited = set()

    def select(self, neighbors):
        if not neighbors:
            return None
        remaining = [n for n in neighbors if n not in self.visited]
        if not remaining:
            self.visited.clear()
            remaining = list(neighbors)
        choice = parent_rank(self.view, remaining)[0]
        self.visited.add(choice)
        return choice


def parent_choose_targets(view, neighbors, sender, rule, fanout, mine, extra_targets):
    """``FastUpdateAgent._choose_targets`` before the ranking."""
    ranked = parent_rank(view, [n for n in neighbors if n != sender])
    if rule == PUSH_DOWNHILL:
        ranked = [n for n in ranked if view.demand_of(n) > mine]
    targets = ranked[:fanout]
    for extra in sorted(extra_targets):
        if extra != sender and extra not in targets:
            targets.append(extra)
    return targets


# ---------------------------------------------------------------------------
# (a) cached choices equal the oracle's on generated histories
# ---------------------------------------------------------------------------


class World:
    """One topology and clock; a policy + push agent per knowledge model,
    each next to the oracle's policy on the same view."""

    def __init__(self, initial, changes):
        self.now = 0.0
        self.own = 1.0
        self.topology = Topology()
        for node in range(NODES):
            self.topology.add_node(node)
        for a, b in ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (4, 5)):
            self.topology.add_edge(a, b)
        table = {node: initial[node] for node in range(NODES)}
        self.table = DemandTable()
        for node in OTHERS:
            self.table.update(node, table[node], 0.0)
        self.shockable = ShockableDemand(ExplicitDemand(table))
        clock = lambda: self.now  # noqa: E731 - the views' clock
        self.views = {
            "advertised": TableDemandView(self.table),
            "scheduled": OracleDemandView(ScheduledDemand(table, changes), clock),
            "shocked": OracleDemandView(self.shockable, clock),
            "static": OracleDemandView(ExplicitDemand(table), clock),
            "snapshot": SnapshotDemandView(ExplicitDemand(table), range(NODES)),
        }
        sim = Simulator(seed=1)
        runtime = SimRuntime(sim, Network(sim, self.topology))
        self.policies = {}
        self.agents = {}
        self.oracles = {}
        for name, view in self.views.items():
            policy = DemandOrderedPolicy(view)
            # The agent shares the policy as its ranking, as a node does.
            self.agents[name] = FastUpdateAgent(
                runtime, ReplicaServer(ME), fast_consistency(), policy, lambda: self.own
            )
            self.policies[name] = policy
            self.oracles[name] = ParentPolicy(view)

    def neighbors(self):
        return self.topology.neighbors(ME)

    def step(self, op):
        kind = op[0]
        if kind == "select":
            for name, policy in self.policies.items():
                expected = self.oracles[name].select(self.neighbors())
                assert policy.select(self.neighbors()) == expected, name
        elif kind == "push":
            _, sender, rule, fanout, bridges = op
            config = fast_consistency(push_rule=rule, fast_fanout=fanout)
            for name, agent in self.agents.items():
                agent.config = config
                agent.extra_targets = bridges
                expected = parent_choose_targets(
                    self.views[name], self.neighbors(), sender, rule, fanout,
                    self.own, bridges,
                )
                assert agent._choose_targets(sender) == expected, name
        elif kind == "advert":
            self.table.update(op[1], op[2], self.now)
        elif kind == "tick":
            self.now += op[1]
        elif kind == "shock":
            self.shockable.apply_shock(op[1], op[2], at=self.now)
        elif kind == "own":
            self.own = op[1]
        else:  # "edge": toggle one link, at the checked node or elsewhere
            a, b = op[1]
            if self.topology.has_edge(a, b):
                self.topology.remove_edge(a, b)
            else:
                self.topology.add_edge(a, b)


demand = st.sampled_from(DEMANDS)
other = st.sampled_from(OTHERS)
operation = st.one_of(
    st.just(("select",)),
    st.tuples(
        st.just("push"),
        st.sampled_from((None,) + OTHERS),
        st.sampled_from([PUSH_DOWNHILL, PUSH_ALWAYS]),
        st.integers(1, 3),
        st.frozensets(other, max_size=2),
    ),
    st.tuples(st.just("advert"), other, demand),
    st.tuples(st.just("tick"), st.sampled_from([0.25, 0.5, 1.0])),
    st.tuples(
        st.just("shock"), st.frozensets(other, min_size=1, max_size=3),
        st.sampled_from([0.0, 0.5, 2.0]),
    ),
    st.tuples(st.just("own"), demand),
    st.tuples(
        st.just("edge"),
        st.sampled_from([(a, b) for a in range(NODES) for b in range(a + 1, NODES)]),
    ),
)


class TestCachedChoicesEqualSortingEveryCall:
    @given(
        initial=st.lists(demand, min_size=NODES, max_size=NODES),
        changes=st.dictionaries(
            other,
            st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.5]), demand), max_size=3),
        ),
        ops=st.lists(operation, max_size=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_select_and_push_targets_after_every_step(self, initial, changes, ops):
        world = World(initial, changes)
        for op in ops:
            world.step(op)

    def test_a_mid_cycle_reorder_walks_a_visited_set_until_it_is_a_prefix(self):
        # B's neighbours A, C, D of Fig. 4 under advertised beliefs.
        table = DemandTable()
        for node, value in ((1, 2.0), (2, 0.0), (3, 13.0)):
            table.update(node, value, 0.0)
        policy = DemandOrderedPolicy(TableDemandView(table))
        neighbors = (1, 2, 3)
        assert [policy.select(neighbors), policy.select(neighbors)] == [3, 1]
        assert policy._visited is None  # a cursor two into (D, A, C)
        table.update(2, 30.0, 1.0)  # C jumps ahead of both visited
        assert policy.select(neighbors) == 2  # the one not visited
        assert policy._visited == {1, 2, 3}  # not a prefix of (C, D, A)
        assert policy.select(neighbors) == 2  # a new cycle, from the top
        assert policy._visited is None  # a cursor again
        assert policy.select(neighbors) == 3


# ---------------------------------------------------------------------------
# (b) demand is read once per node per epoch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config", [fast_consistency(), push_only_consistency()], ids=["fast", "push-only"]
)
def test_a_run_reads_each_neighbours_demand_once(monkeypatch, config):
    reads = [0]
    demand_of = OracleDemandView.demand_of

    def counted(view, node):
        reads[0] += 1
        return demand_of(view, node)

    monkeypatch.setattr(OracleDemandView, "demand_of", counted)
    topology = internet_like(30, seed=3)
    demand = UniformRandomDemand(seed=3)
    system = ReplicationSystem(topology=topology, demand=demand, config=config, seed=1)
    system.sim.trace.disable()
    system.start()
    start_workloads(
        system.runtime, system.servers, demand, max_rate=20.0, write_fraction=0.5
    )
    assert reads[0] == 0  # rankings are built on first use
    system.run_until(10.0)
    offers = sum(node.fast.stats.offers_sent for node in system.nodes.values())
    assert offers > 1000 and system.session_stats_total()["initiated"] > 200
    # Each node ranks its neighbours once: one read per edge end.
    assert reads[0] <= 2 * topology.num_edges


# ---------------------------------------------------------------------------
# (c) a repeated advert is not a change
# ---------------------------------------------------------------------------


class TestARepeatedAdvertIsNotAChange:
    def test_version_moves_only_with_a_believed_value(self):
        table = DemandTable(default=0.0)
        table.update(1, 0.0, 0.0)  # believed 0.0 already: the default
        assert table.version == 0 and table.staleness(1, 1.0) == 1.0
        table.update(1, 4.0, 1.0)
        table.update(2, 3.0, 1.0)
        assert table.version == 2
        table.update(1, 4.0, 5.0)  # the same advert again
        assert table.version == 2
        assert table.staleness(1, 6.0) == 1.0  # but it was heard
        table.update(1, 5.0, 6.0)
        assert table.version == 3 and table.believed(1) == 5.0

    def test_a_static_advertised_run_keeps_every_table_version(self):
        system = ReplicationSystem(
            topology=internet_like(20, seed=2),
            demand=UniformRandomDemand(seed=2),
            config=dynamic_fast_consistency(),
            seed=2,
        )
        versions = {node: table.version for node, table in system.tables.items()}
        system.start()
        system.inject_write(node=0)
        system.run_until(6.0)
        heard = [node.advertiser.adverts_received for node in system.nodes.values()]
        assert min(heard) >= 4  # several advert rounds reached every node
        assert {node: t.version for node, t in system.tables.items()} == versions
