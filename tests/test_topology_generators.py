"""Tests for topology generators (repro.topology.simple / .brite)."""

from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.brite import (
    PLACEMENT_HEAVY_TAIL,
    PLACEMENT_RANDOM,
    BriteConfig,
    barabasi_albert,
    internet_like,
    place_nodes,
    waxman,
)
from repro.topology.graph import Topology
from repro.topology.simple import (
    balanced_tree,
    complete,
    grid,
    hypercube,
    line,
    ring,
    star,
    torus,
)


class TestSimpleTopologies:
    def test_line_structure(self):
        topo = line(5)
        assert topo.num_nodes == 5
        assert topo.num_edges == 4
        assert topo.degree(0) == 1
        assert topo.degree(2) == 2
        assert topo.is_connected()

    def test_line_single_node(self):
        assert line(1).num_edges == 0

    def test_ring_structure(self):
        topo = ring(6)
        assert topo.num_edges == 6
        assert all(topo.degree(n) == 2 for n in topo.nodes)
        assert topo.is_connected()

    def test_ring_too_small(self):
        with pytest.raises(TopologyError):
            ring(2)

    def test_star_structure(self):
        topo = star(6)
        assert topo.degree(0) == 5
        assert all(topo.degree(n) == 1 for n in range(1, 6))

    def test_grid_structure(self):
        topo = grid(3, 4)
        assert topo.num_nodes == 12
        # edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8
        assert topo.num_edges == 17
        assert topo.is_connected()
        # corner, edge, interior degrees
        assert topo.degree(0) == 2
        assert topo.degree(1) == 3
        assert topo.degree(5) == 4

    def test_torus_all_degree_four(self):
        topo = torus(3, 4)
        assert all(topo.degree(n) == 4 for n in topo.nodes)
        assert topo.num_edges == 2 * 12

    def test_torus_minimum_size(self):
        with pytest.raises(TopologyError):
            torus(2, 5)

    def test_complete_edges(self):
        topo = complete(6)
        assert topo.num_edges == 15
        assert all(topo.degree(n) == 5 for n in topo.nodes)

    def test_balanced_tree_counts(self):
        topo = balanced_tree(2, 3)
        assert topo.num_nodes == 1 + 2 + 4 + 8
        assert topo.num_edges == topo.num_nodes - 1
        assert topo.is_connected()
        assert topo.degree(0) == 2

    def test_balanced_tree_height_zero(self):
        assert balanced_tree(3, 0).num_nodes == 1

    def test_hypercube(self):
        topo = hypercube(4)
        assert topo.num_nodes == 16
        assert all(topo.degree(n) == 4 for n in topo.nodes)
        assert topo.is_connected()

    def test_all_simple_topologies_have_positions(self):
        for topo in (line(4), ring(4), star(4), grid(2, 3), complete(4)):
            for node in topo.nodes:
                assert topo.position(node) is not None

    def test_invalid_sizes_rejected(self):
        for factory in (line, star, complete):
            with pytest.raises(TopologyError):
                factory(0)


class TestBriteConfig:
    def test_validation_catches_bad_params(self):
        with pytest.raises(TopologyError):
            BriteConfig(n=1).validate()
        with pytest.raises(TopologyError):
            BriteConfig(n=10, m=0).validate()
        with pytest.raises(TopologyError):
            BriteConfig(n=5, m=5).validate()
        with pytest.raises(TopologyError):
            BriteConfig(placement="bogus").validate()
        with pytest.raises(TopologyError):
            BriteConfig(waxman_alpha=0.0).validate()

    def test_placement_within_plane(self):
        config = BriteConfig(n=100, plane_size=500.0)
        for x, y in place_nodes(config, random.Random(0)):
            assert 0 <= x <= 500
            assert 0 <= y <= 500

    def test_heavy_tail_placement_clusters(self):
        config = BriteConfig(
            n=400, plane_size=100.0, placement=PLACEMENT_HEAVY_TAIL, squares=10
        )
        points = place_nodes(config, random.Random(1))
        # Count points per cell; heavy-tailed placement should make the
        # busiest cell far denser than uniform expectation (~4).
        cells = {}
        for x, y in points:
            key = (int(x // 10), int(y // 10))
            cells[key] = cells.get(key, 0) + 1
        assert max(cells.values()) >= 12


class TestBarabasiAlbert:
    def test_connected_and_correct_edge_count(self):
        topo = barabasi_albert(BriteConfig(n=60, m=2), random.Random(3))
        assert topo.num_nodes == 60
        assert topo.is_connected()
        # seed clique edges + m per additional node
        expected = 3 + 2 * (60 - 3)
        assert topo.num_edges == expected

    def test_determinism(self):
        a = barabasi_albert(BriteConfig(n=40, m=2), random.Random(5))
        b = barabasi_albert(BriteConfig(n=40, m=2), random.Random(5))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_hubs_emerge(self):
        topo = barabasi_albert(BriteConfig(n=200, m=2), random.Random(7))
        degrees = sorted(topo.degrees().values(), reverse=True)
        assert degrees[0] >= 4 * degrees[len(degrees) // 2]

    def test_keyword_overrides(self):
        topo = barabasi_albert(n=30, m=3)
        assert topo.num_nodes == 30

    def test_config_and_overrides_conflict(self):
        with pytest.raises(TopologyError):
            barabasi_albert(BriteConfig(n=30), n=40)

    def test_internet_like_wrapper(self):
        topo = internet_like(25, seed=9)
        assert topo.num_nodes == 25
        assert topo.is_connected()
        again = internet_like(25, seed=9)
        assert sorted(topo.edges()) == sorted(again.edges())


def reference_barabasi_albert(config: BriteConfig, rng: random.Random) -> Topology:
    """The quadratic BA generator as it stood before the Fenwick tree.

    Kept here, and only here, as the oracle: every joiner rebuilds the
    candidate and weight lists over all earlier nodes and each draw
    scans them linearly, popping the winner so it cannot be drawn twice.
    """
    points = place_nodes(config, rng)
    topo = Topology(f"ba-{config.n}-m{config.m}")
    for node, point in enumerate(points):
        topo.add_node(node, point)
    core = list(range(config.m + 1))
    for i in core:
        for j in core[i + 1 :]:
            topo.add_edge(i, j)
    degrees = {node: topo.degree(node) for node in core}
    for new in range(config.m + 1, config.n):
        pool = list(degrees)
        pool_weights = [degrees[node] for node in pool]
        targets = []
        for _ in range(min(config.m, len(pool))):
            total = sum(pool_weights)
            r = rng.random() * total
            acc = 0.0
            index = len(pool) - 1
            for i, w in enumerate(pool_weights):
                acc += w
                if r <= acc:
                    index = i
                    break
            targets.append(pool.pop(index))
            pool_weights.pop(index)
        degrees[new] = 0
        for target in targets:
            topo.add_edge(new, target)
            degrees[new] += 1
            degrees[target] += 1
    return topo


class ZeroDrawRandom(random.Random):
    """Returns exactly 0.0 from ``random()`` on chosen calls.

    A real generator does so once in 2**53 draws; the Fenwick descent
    must then still skip the nodes already taken by this joiner.
    """

    def __init__(self, seed, zero_every):
        super().__init__(seed)
        self._calls = 0
        self._zero_every = zero_every

    def random(self):
        self._calls += 1
        value = super().random()
        return 0.0 if self._calls % self._zero_every == 0 else value


def assert_same_graph(a: Topology, b: Topology) -> None:
    assert a.name == b.name
    assert a.nodes == b.nodes
    assert list(a.edges()) == list(b.edges())
    for node in a.nodes:
        assert a.neighbors(node) == b.neighbors(node)
        assert a.position(node) == b.position(node)


class TestBarabasiAlbertEquivalence:
    """The O(n·m·log n) generator equals the quadratic one, draw for draw."""

    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=1, max_value=395),
        placement=st.sampled_from([PLACEMENT_RANDOM, PLACEMENT_HEAVY_TAIL]),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    @example(m=1, extra=1, placement=PLACEMENT_RANDOM, seed=0)  # n = m + 1
    @example(m=5, extra=1, placement=PLACEMENT_HEAVY_TAIL, seed=1)  # n = m + 1
    @example(m=5, extra=395, placement=PLACEMENT_HEAVY_TAIL, seed=2)  # n = 400
    def test_equals_reference(self, m, extra, placement, seed):
        config = BriteConfig(n=m + extra, m=m, placement=placement)
        rng_new, rng_ref = random.Random(seed), random.Random(seed)
        assert_same_graph(
            barabasi_albert(config, rng_new), reference_barabasi_albert(config, rng_ref)
        )
        # Same number of draws consumed: whatever the caller seeds next
        # from this generator is unchanged too.
        assert rng_new.getstate() == rng_ref.getstate()

    @pytest.mark.parametrize("zero_every", [1, 2, 3, 7])
    def test_equals_reference_when_a_draw_is_exactly_zero(self, zero_every):
        config = BriteConfig(n=40, m=3)
        assert_same_graph(
            barabasi_albert(config, ZeroDrawRandom(5, zero_every)),
            reference_barabasi_albert(config, ZeroDrawRandom(5, zero_every)),
        )

    def test_internet_like_edge_list_is_pinned(self):
        # sha256 of the edge list at the commit before the Fenwick tree.
        topo = internet_like(2000, seed=7)
        digest = hashlib.sha256(repr(list(topo.edges())).encode()).hexdigest()
        assert digest == (
            "2138c0c907ee185072e69a59d6b86a4c489d246a1530b9a45f15568743211f5f"
        )

    def test_build_time_grows_near_linearly(self):
        # A ratio of two timings on the same machine, so its speed
        # cancels: 4x the nodes costs ~16x when quadratic and ~4.5x when
        # linearithmic.  Best of 3 sheds interference, which only adds.
        # CPU time of this process, so another process sharing the CPU
        # does not count, and the sizes alternate, so a slow spell
        # falls on both of them.
        best = {2000: float("inf"), 8000: float("inf")}
        for _ in range(3):
            for n in best:
                started = time.process_time()
                internet_like(n, seed=3)
                best[n] = min(best[n], time.process_time() - started)

        assert best[8000] / best[2000] < 8.0


class TestWaxman:
    def test_connected_and_placed(self):
        topo = waxman(BriteConfig(n=50, m=2), random.Random(11))
        assert topo.num_nodes == 50
        assert topo.is_connected()
        for node in topo.nodes:
            assert topo.position(node) is not None

    def test_prefers_close_neighbours(self):
        topo = waxman(BriteConfig(n=150, m=2, waxman_beta=0.08), random.Random(2))
        # Mean edge length should be well below the mean random-pair
        # distance (~521 on a 1000-plane) because Waxman penalises
        # distance exponentially.
        lengths = [w for _, _, w in topo.edges()]
        assert sum(lengths) / len(lengths) < 400.0

    def test_determinism(self):
        a = waxman(BriteConfig(n=30, m=2), random.Random(4))
        b = waxman(BriteConfig(n=30, m=2), random.Random(4))
        assert sorted(a.edges()) == sorted(b.edges())
