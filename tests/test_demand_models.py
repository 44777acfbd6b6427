"""Tests for demand models (repro.demand.base/.static/.field/.dynamic)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.demand.base import (
    DemandModel,
    demand_percentile,
    normalize_snapshot,
    validate_demand_value,
)
from repro.demand.dynamic import (
    FIG4_REPLICAS,
    FlashCrowdDemand,
    RandomWalkDemand,
    ScheduledDemand,
    paper_fig4_demand,
)
from repro.demand.field import SurfaceDemand, Valley, random_valleys, two_valley_field
from repro.demand.static import (
    SECTION2_REPLICAS,
    ConstantDemand,
    ExplicitDemand,
    UniformRandomDemand,
    ZipfDemand,
    paper_section2_demand,
)
from repro.errors import DemandError
from repro.topology.simple import grid


class TestBaseHelpers:
    def test_validate_rejects_negative(self):
        with pytest.raises(DemandError):
            validate_demand_value(-1.0, 0)

    def test_validate_rejects_nan_inf(self):
        with pytest.raises(DemandError):
            validate_demand_value(float("nan"), 0)
        with pytest.raises(DemandError):
            validate_demand_value(float("inf"), 0)

    def test_snapshot_and_ranked(self, slope_demand):
        snap = slope_demand.snapshot(range(5))
        assert snap == {0: 4.0, 1: 6.0, 2: 3.0, 3: 8.0, 4: 7.0}
        assert slope_demand.ranked(range(5)) == [3, 4, 1, 0, 2]

    def test_ranked_breaks_ties_by_id(self):
        model = ExplicitDemand({0: 5.0, 1: 5.0, 2: 9.0})
        assert model.ranked([0, 1, 2]) == [2, 0, 1]

    def test_top_fraction(self, slope_demand):
        assert slope_demand.top_fraction(list(range(5)), 0.2) == [3]
        assert slope_demand.top_fraction(list(range(5)), 0.4) == [3, 4]
        assert slope_demand.top_fraction(list(range(5)), 1.0) == [3, 4, 1, 0, 2]

    def test_top_fraction_bad_fraction(self, slope_demand):
        with pytest.raises(DemandError):
            slope_demand.top_fraction([0], 0.0)

    def test_total(self, slope_demand):
        assert slope_demand.total(range(5)) == 28.0

    def test_normalize_snapshot(self):
        out = normalize_snapshot({0: 1.0, 1: 3.0}, target_total=8.0)
        assert out == {0: 2.0, 1: 6.0}

    def test_normalize_all_zero_spreads_uniformly(self):
        out = normalize_snapshot({0: 0.0, 1: 0.0}, target_total=10.0)
        assert out == {0: 5.0, 1: 5.0}

    def test_percentile(self):
        snap = {i: float(i) for i in range(11)}  # 0..10
        assert demand_percentile(snap, 0) == 0.0
        assert demand_percentile(snap, 50) == 5.0
        assert demand_percentile(snap, 100) == 10.0
        with pytest.raises(DemandError):
            demand_percentile({}, 50)


class TestStaticModels:
    def test_explicit_default(self):
        model = ExplicitDemand({1: 2.0}, default=0.5)
        assert model.demand(1, 0.0) == 2.0
        assert model.demand(9, 0.0) == 0.5

    def test_constant(self):
        model = ConstantDemand(3.0)
        assert model.demand(0, 0.0) == model.demand(7, 99.0) == 3.0

    def test_uniform_random_in_range_and_stable(self):
        model = UniformRandomDemand(10.0, 20.0, seed=4)
        first = model.demand(3, 0.0)
        assert 10.0 <= first <= 20.0
        assert model.demand(3, 50.0) == first  # time-invariant
        # Query order must not matter.
        other = UniformRandomDemand(10.0, 20.0, seed=4)
        other.demand(7, 0.0)
        assert other.demand(3, 0.0) == first

    def test_uniform_random_invalid_range(self):
        with pytest.raises(DemandError):
            UniformRandomDemand(5.0, 1.0)

    def test_zipf_follows_rank_law(self):
        model = ZipfDemand(range(10), exponent=1.0, scale=100.0, seed=2)
        values = sorted((model.demand(n, 0) for n in range(10)), reverse=True)
        assert values[0] == 100.0
        assert values[1] == pytest.approx(50.0)
        assert values[9] == pytest.approx(10.0)

    def test_zipf_outside_population(self):
        model = ZipfDemand(range(3), seed=0)
        with pytest.raises(DemandError):
            model.demand(99, 0)

    def test_paper_section2_table(self):
        model = paper_section2_demand()
        assert model.demand(SECTION2_REPLICAS["D"], 0) == 8.0
        assert model.total(range(5)) == 28.0


class TestSurfaceDemand:
    def test_valley_contribution_peaks_at_center(self):
        valley = Valley(center=(0.0, 0.0), peak=100.0, radius=2.0)
        assert valley.contribution((0.0, 0.0)) == 100.0
        assert valley.contribution((2.0, 0.0)) < 100.0
        assert valley.contribution((20.0, 0.0)) < 1e-6

    def test_invalid_valley(self):
        with pytest.raises(DemandError):
            Valley(center=(0, 0), peak=-1.0, radius=1.0)
        with pytest.raises(DemandError):
            Valley(center=(0, 0), peak=1.0, radius=0.0)

    def test_surface_from_topology(self):
        topo = grid(5, 5)
        field = SurfaceDemand.from_topology(
            topo, [Valley(center=(0.0, 0.0), peak=50.0, radius=1.5)], base=1.0
        )
        assert field.demand(0, 0.0) == pytest.approx(51.0)
        # Far corner (4, 4) barely sees the valley.
        far = topo.num_nodes - 1
        assert field.demand(far, 0.0) == pytest.approx(1.0, abs=0.1)

    def test_surface_unknown_node(self):
        field = SurfaceDemand({0: (0.0, 0.0)}, [], base=1.0)
        with pytest.raises(DemandError):
            field.demand(9, 0.0)

    def test_two_valley_field_creates_two_hotspots(self):
        topo = grid(9, 9)
        field = two_valley_field(topo, plane_size=8.0, peak=100.0, base=1.0)
        snap = field.snapshot(topo.nodes)
        hot = [n for n, v in snap.items() if v > 50.0]
        # Hot nodes exist near both (2,2) and (6,6).
        assert any(topo.position(n) == (2.0, 2.0) for n in hot)
        assert any(topo.position(n) == (6.0, 6.0) for n in hot)

    def test_fig1_landscape_valleys_are_deep_and_ridge_low(self):
        # Fig. 1's two-valley field (the one `repro surface` draws).
        field = SurfaceDemand(
            {0: (0.0, 0.0), 1: (100.0, 100.0)},
            [
                Valley(center=(25.0, 25.0), peak=100.0, radius=12.0),
                Valley(center=(75.0, 70.0), peak=80.0, radius=10.0),
            ],
            base=1.0,
        )
        assert field.demand_at((25.0, 25.0)) > 100.0
        assert field.demand_at((75.0, 70.0)) > 80.0
        assert field.demand_at((50.0, 47.5)) < 30.0  # the ridge between
        assert field.demand_at((0.0, 100.0)) < 3.0  # a corner hill

    def test_deepest_valley(self):
        valleys = [
            Valley(center=(0, 0), peak=10.0, radius=1.0),
            Valley(center=(1, 1), peak=90.0, radius=1.0),
        ]
        field = SurfaceDemand({0: (0.0, 0.0)}, valleys)
        assert field.deepest_valley().peak == 90.0
        assert SurfaceDemand({0: (0.0, 0.0)}, []).deepest_valley() is None

    def test_random_valleys_within_plane(self):
        valleys = random_valleys(5, plane_size=100.0, seed=3)
        assert len(valleys) == 5
        for v in valleys:
            assert 0 <= v.center[0] <= 100
            assert 0 <= v.center[1] <= 100


class TestDynamicModels:
    def test_scheduled_demand_steps(self):
        model = ScheduledDemand(
            initial={0: 2.0}, changes={0: [(2.0, 0.0), (5.0, 7.0)]}
        )
        assert model.demand(0, 0.0) == 2.0
        assert model.demand(0, 1.99) == 2.0
        assert model.demand(0, 2.0) == 0.0
        assert model.demand(0, 4.9) == 0.0
        assert model.demand(0, 5.0) == 7.0

    def test_scheduled_unknown_node_is_zero(self):
        assert ScheduledDemand(initial={}).demand(9, 0.0) == 0.0

    def test_change_times(self):
        model = ScheduledDemand(
            initial={0: 1.0, 1: 1.0},
            changes={0: [(2.0, 0.0)], 1: [(2.0, 5.0), (4.0, 1.0)]},
        )
        assert model.change_times() == [2.0, 4.0]

    def test_paper_fig4_scenario(self):
        model = paper_fig4_demand()
        a, c = FIG4_REPLICAS["A"], FIG4_REPLICAS["C"]
        d = FIG4_REPLICAS["D"]
        assert model.demand(a, 1.0) == 2.0
        assert model.demand(c, 1.0) == 0.0
        assert model.demand(d, 1.0) == 13.0
        # After the shift at t=2 (A' and C' in the figure):
        assert model.demand(a, 2.5) == 0.0
        assert model.demand(c, 2.5) == 9.0

    def test_flash_crowd_window(self):
        inner = ConstantDemand(2.0)
        model = FlashCrowdDemand(inner, hot_nodes=[1], start=5.0, end=10.0, factor=10.0)
        assert model.demand(1, 4.9) == 2.0
        assert model.demand(1, 5.0) == 20.0
        assert model.demand(1, 9.9) == 20.0
        assert model.demand(1, 10.0) == 2.0
        assert model.demand(2, 7.0) == 2.0  # cold node unaffected

    def test_flash_crowd_invalid_window(self):
        with pytest.raises(DemandError):
            FlashCrowdDemand(ConstantDemand(1.0), [0], start=5.0, end=5.0)

    def test_random_walk_bounds_and_determinism(self):
        model = RandomWalkDemand({0: 50.0}, step=10.0, low=0.0, high=100.0, seed=1)
        values = [model.demand(0, float(t)) for t in range(30)]
        assert all(0.0 <= v <= 100.0 for v in values)
        again = RandomWalkDemand({0: 50.0}, step=10.0, low=0.0, high=100.0, seed=1)
        assert [again.demand(0, float(t)) for t in range(30)] == values

    def test_random_walk_constant_within_unit_interval(self):
        model = RandomWalkDemand({0: 50.0}, step=5.0, seed=2)
        assert model.demand(0, 3.1) == model.demand(0, 3.9)

    def test_random_walk_query_order_independent(self):
        a = RandomWalkDemand({0: 50.0}, step=5.0, seed=3)
        at10 = a.demand(0, 10.0)
        b = RandomWalkDemand({0: 50.0}, step=5.0, seed=3)
        b.demand(0, 3.0)  # earlier query first
        assert b.demand(0, 10.0) == at10

    def test_random_walk_negative_time_rejected(self):
        with pytest.raises(DemandError):
            RandomWalkDemand({0: 1.0}).demand(0, -1.0)

    def test_scheduled_duplicate_change_times_last_wins(self):
        # Two changes at t=2.0: the later entry in the input wins.
        # (Previously the pair sort resolved duplicates by *value*,
        # so (2.0, 5.0) would shadow (2.0, 1.0).)
        model = ScheduledDemand(
            initial={0: 3.0}, changes={0: [(2.0, 5.0), (2.0, 1.0)]}
        )
        assert model.demand(0, 1.9) == 3.0
        assert model.demand(0, 2.0) == 1.0
        assert model.demand(0, 9.0) == 1.0

    def test_scheduled_duplicate_times_last_wins_unsorted_input(self):
        # Input order (not time order) decides among duplicates, even
        # when the schedule arrives unsorted.
        model = ScheduledDemand(
            initial={0: 0.0},
            changes={0: [(4.0, 9.0), (2.0, 5.0), (2.0, 1.0)]},
        )
        assert model.demand(0, 3.0) == 1.0
        assert model.demand(0, 4.0) == 9.0
        assert model.schedules[0] == [(2.0, 1.0), (4.0, 9.0)]
        assert model.change_times() == [2.0, 4.0]

    def test_scheduled_change_times_precomputed(self):
        # The bisect key array is built once in __init__, not rebuilt
        # on every demand() query.
        model = ScheduledDemand(
            initial={0: 2.0}, changes={0: [(2.0, 0.0), (5.0, 7.0)]}
        )
        times = model._times[0]
        assert times == [2.0, 5.0]
        model.demand(0, 3.0)
        assert model._times[0] is times

    def test_random_walk_extension_draws_each_increment_once(self, monkeypatch):
        # A sequential scan of k steps must cost exactly k RNG draws.
        # The pre-fix code re-derived the whole path on every
        # extension, so k sequential queries drew k*(k+1)/2 times.
        from repro.demand import dynamic

        draws = {"count": 0}

        class CountingRandom(random.Random):
            def uniform(self, a, b):
                draws["count"] += 1
                return super().uniform(a, b)

        monkeypatch.setattr(dynamic.random, "Random", CountingRandom)
        model = RandomWalkDemand({0: 50.0}, step=5.0, seed=4)
        steps = 100
        for t in range(1, steps + 1):
            model.demand(0, float(t))
        assert draws["count"] == steps
        # Re-querying an already-materialised step draws nothing.
        model.demand(0, 37.0)
        assert draws["count"] == steps

    @settings(max_examples=25, deadline=None)
    @given(perm=st.permutations(list(range(20))))
    def test_random_walk_shuffled_query_order_identical(self, perm):
        initial = {0: 40.0, 1: 60.0}
        reference = RandomWalkDemand(initial, step=7.0, seed=9)
        expected = {
            (n, t): reference.demand(n, float(t))
            for n in (0, 1)
            for t in range(20)
        }
        shuffled = RandomWalkDemand(initial, step=7.0, seed=9)
        for t in perm:
            for n in (1, 0):
                assert shuffled.demand(n, float(t)) == expected[(n, t)]
