"""Tests for protocol config and partner-selection policies."""

from __future__ import annotations

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.core.policies import (
    DemandOrderedPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    WeightedRandomPolicy,
    make_policy,
)
from repro.core.variants import (
    dynamic_fast_consistency,
    fast_consistency,
    high_demand_consistency,
    push_only_consistency,
    static_table_consistency,
    weak_consistency,
)
from repro.demand.static import ExplicitDemand
from repro.demand.views import SnapshotDemandView
from repro.errors import ConfigurationError


class TestProtocolConfig:
    def test_default_validates(self):
        ProtocolConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"partner_policy": "bogus"},
            {"demand_knowledge": "psychic"},
            {"push_rule": "sideways"},
            {"session_interval_distribution": "cauchy"},
            {"fast_fanout": 0},
            {"session_interval_mean": 0.0},
            {"session_timeout": 0.0},
            {"advert_period": -1.0},
            {"link_delay": -0.1},
            {"link_delay": 2.0},  # must be << session interval
            {"update_payload_bytes": -5},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(**overrides).validate()

    def test_with_overrides_returns_validated_copy(self):
        base = ProtocolConfig()
        changed = base.with_overrides(fast_update=True, fast_fanout=2)
        assert changed.fast_update and changed.fast_fanout == 2
        assert base.fast_update is False  # frozen original untouched

    def test_describe_mentions_components(self):
        label = fast_consistency().describe()
        assert "demand" in label
        assert "fast" in label


class TestVariants:
    def test_weak_is_random_no_push(self):
        cfg = weak_consistency()
        assert cfg.partner_policy == "random"
        assert cfg.fast_update is False

    def test_high_demand_is_ordered_no_push(self):
        cfg = high_demand_consistency()
        assert cfg.partner_policy == "demand"
        assert cfg.fast_update is False

    def test_fast_has_both_optimisations(self):
        cfg = fast_consistency()
        assert cfg.partner_policy == "demand"
        assert cfg.fast_update is True
        assert cfg.push_rule == "downhill"

    def test_push_only(self):
        cfg = push_only_consistency()
        assert cfg.partner_policy == "random"
        assert cfg.fast_update is True

    def test_dynamic_uses_advertisements(self):
        assert dynamic_fast_consistency().demand_knowledge == "advertised"

    def test_static_table_uses_snapshot(self):
        assert static_table_consistency().demand_knowledge == "snapshot"

    def test_variant_overrides_flow_through(self):
        cfg = weak_consistency(session_interval_mean=2.0)
        assert cfg.session_interval_mean == 2.0


def slope_view():
    model = ExplicitDemand({0: 4.0, 1: 6.0, 2: 3.0, 3: 8.0, 4: 7.0})
    return SnapshotDemandView(model, nodes=range(5))


class TestRandomPolicy:
    def test_selects_from_neighbors(self):
        policy = RandomPolicy(random.Random(0))
        for _ in range(20):
            assert policy.select([1, 2, 3]) in (1, 2, 3)

    def test_empty_neighbors_gives_none(self):
        assert RandomPolicy(random.Random(0)).select([]) is None

    def test_covers_all_neighbors_eventually(self):
        policy = RandomPolicy(random.Random(1))
        seen = {policy.select([1, 2, 3]) for _ in range(100)}
        assert seen == {1, 2, 3}


class TestDemandOrderedPolicy:
    def test_visits_in_decreasing_demand_order(self):
        policy = DemandOrderedPolicy(slope_view())
        # B's neighbours in the §2 example: A(4) C(3) D(8) E(7).
        order = [policy.select([0, 2, 3, 4]) for _ in range(4)]
        assert order == [3, 4, 0, 2]  # D, E, A, C — the paper's best case

    def test_cycle_restarts_after_all_visited(self):
        policy = DemandOrderedPolicy(slope_view())
        first_cycle = [policy.select([0, 2]) for _ in range(2)]
        second_cycle = [policy.select([0, 2]) for _ in range(2)]
        assert first_cycle == second_cycle == [0, 2]

    def test_reranks_remaining_on_demand_change(self):
        # The §4 dynamic behaviour: beliefs shift between selections.
        model = ExplicitDemand({0: 2.0, 2: 0.0, 3: 13.0})
        table = dict(model.table)

        class MutableView(SnapshotDemandView):
            def __init__(self):
                self._table = table

        view = MutableView()
        policy = DemandOrderedPolicy(view)
        assert policy.select([0, 2, 3]) == 3  # D first
        # Demand shifts: A 2->0, C 0->9 (Fig. 4's A' and C').
        table[0] = 0.0
        table[2] = 9.0
        assert policy.select([0, 2, 3]) == 2  # now C'
        assert policy.select([0, 2, 3]) == 0  # A' last

    def test_reset_clears_cycle(self):
        policy = DemandOrderedPolicy(slope_view())
        assert policy.select([0, 2]) == 0
        policy.reset()
        assert policy.select([0, 2]) == 0

    def test_empty_neighbors(self):
        assert DemandOrderedPolicy(slope_view()).select([]) is None


class TestRoundRobinPolicy:
    def test_cycles_in_id_order(self):
        policy = RoundRobinPolicy()
        picks = [policy.select([3, 1, 2]) for _ in range(6)]
        assert picks == [1, 2, 3, 1, 2, 3]

    def test_reset(self):
        policy = RoundRobinPolicy()
        policy.select([1, 2])
        policy.reset()
        assert policy.select([1, 2]) == 1


class TestWeightedRandomPolicy:
    def test_prefers_high_demand(self):
        policy = WeightedRandomPolicy(slope_view(), random.Random(0))
        picks = [policy.select([2, 3]) for _ in range(300)]
        # D (8) should be picked far more often than C (3).
        assert picks.count(3) > picks.count(2)

    def test_zero_demand_still_selectable(self):
        view = SnapshotDemandView(ExplicitDemand({1: 0.0, 2: 0.0}), nodes=[1, 2])
        policy = WeightedRandomPolicy(view, random.Random(0))
        assert {policy.select([1, 2]) for _ in range(50)} == {1, 2}

    def test_invalid_epsilon(self):
        with pytest.raises(ConfigurationError):
            WeightedRandomPolicy(slope_view(), random.Random(0), epsilon=0.0)


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("random", RandomPolicy),
            ("demand", DemandOrderedPolicy),
            ("round-robin", RoundRobinPolicy),
            ("weighted-random", WeightedRandomPolicy),
        ],
    )
    def test_factory_builds_each(self, name, cls):
        config = ProtocolConfig(partner_policy=name)
        policy = make_policy(config, slope_view(), random.Random(0))
        assert isinstance(policy, cls)

    @pytest.mark.parametrize("name", ["demand", "round-robin"])
    def test_policies_that_never_draw_need_no_rng(self, name):
        config = ProtocolConfig(partner_policy=name)
        assert make_policy(config, slope_view()).select([1, 2]) in (1, 2)

    @pytest.mark.parametrize("name", ["random", "weighted-random"])
    def test_policies_that_draw_refuse_a_missing_rng(self, name):
        with pytest.raises(ConfigurationError, match="rng"):
            make_policy(ProtocolConfig(partner_policy=name), slope_view())
