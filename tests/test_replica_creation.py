"""Tests for donor selection and runtime replica creation."""

from __future__ import annotations

import pytest

from repro.core.system import ReplicationSystem
from repro.core.variants import fast_consistency, weak_consistency
from repro.demand.static import ConstantDemand, UniformRandomDemand
from repro.errors import ConfigurationError, ReplicationError
from repro.replica.creation import (
    DonorInfo,
    FreshestDonor,
    MostCompleteLog,
    NearestDonor,
    WeightedDonorScore,
)
from repro.topology.simple import line, ring


def info(node, writes=0, log=0, hops=1, staleness=0.0, demand=1.0):
    return DonorInfo(
        node=node,
        total_writes=writes,
        log_length=log,
        hops=hops,
        staleness=staleness,
        demand=demand,
    )


class TestDonorPolicies:
    def test_most_complete_log(self):
        candidates = {1: info(1, writes=5), 2: info(2, writes=9), 3: info(3, writes=9)}
        # Tie between 2 and 3 -> fewest hops, then lowest id.
        assert MostCompleteLog().choose(candidates) == 2

    def test_most_complete_breaks_ties_by_hops(self):
        candidates = {1: info(1, writes=9, hops=3), 2: info(2, writes=9, hops=1)}
        assert MostCompleteLog().choose(candidates) == 2

    def test_nearest_donor(self):
        candidates = {1: info(1, writes=9, hops=4), 2: info(2, writes=2, hops=1)}
        assert NearestDonor().choose(candidates) == 2

    def test_freshest_donor(self):
        candidates = {
            1: info(1, staleness=5.0, writes=9),
            2: info(2, staleness=0.5, writes=2),
        }
        assert FreshestDonor().choose(candidates) == 2

    def test_weighted_score_prefers_balanced_candidate(self):
        candidates = {
            1: info(1, writes=10, hops=10, demand=1.0),
            2: info(2, writes=9, hops=1, demand=1.0),
        }
        # Node 2 misses one write but is 10x closer.
        assert WeightedDonorScore().choose(candidates) == 2

    def test_weighted_score_rejects_negative_weights(self):
        with pytest.raises(ReplicationError):
            WeightedDonorScore(hops_weight=-1.0)

    def test_empty_candidates_rejected(self):
        for policy in (
            MostCompleteLog(),
            NearestDonor(),
            FreshestDonor(),
            WeightedDonorScore(),
        ):
            with pytest.raises(ReplicationError):
                policy.choose({})

    def test_most_complete_final_tie_breaks_by_id(self):
        candidates = {
            7: info(7, writes=9, hops=2),
            3: info(3, writes=9, hops=2),
            5: info(5, writes=9, hops=2),
        }
        assert MostCompleteLog().choose(candidates) == 3

    def test_nearest_breaks_ties_by_completeness_then_id(self):
        candidates = {
            1: info(1, writes=2, hops=1),
            2: info(2, writes=9, hops=1),
        }
        assert NearestDonor().choose(candidates) == 2
        candidates = {
            4: info(4, writes=9, hops=1),
            2: info(2, writes=9, hops=1),
        }
        assert NearestDonor().choose(candidates) == 2

    def test_freshest_breaks_ties_by_completeness(self):
        candidates = {
            1: info(1, staleness=1.0, writes=2),
            2: info(2, staleness=1.0, writes=9),
        }
        assert FreshestDonor().choose(candidates) == 2

    def test_weighted_score_breaks_exact_ties_by_id(self):
        candidates = {9: info(9, writes=5), 4: info(4, writes=5)}
        assert WeightedDonorScore().choose(candidates) == 4

    def test_weighted_score_all_zero_maxima(self):
        # A pool where every component max is zero must not divide by
        # zero; scores tie at the completeness weight and the lowest id
        # wins.
        candidates = {
            6: info(6, writes=0, hops=0, staleness=0.0, demand=0.0),
            2: info(2, writes=0, hops=0, staleness=0.0, demand=0.0),
        }
        assert WeightedDonorScore().choose(candidates) == 2

    def test_weighted_score_zero_max_writes_keeps_other_components(self):
        # With no writes anywhere the hops term still discriminates.
        candidates = {
            1: info(1, writes=0, hops=4, staleness=0.0, demand=0.0),
            2: info(2, writes=0, hops=1, staleness=0.0, demand=0.0),
        }
        assert WeightedDonorScore().choose(candidates) == 2

    def test_weighted_score_zero_staleness_and_demand_maxima(self):
        # staleness/demand maxima of zero fall back to a 1.0 divisor;
        # the completeness gap decides.
        candidates = {
            1: info(1, writes=9, hops=1, staleness=0.0, demand=0.0),
            2: info(2, writes=1, hops=1, staleness=0.0, demand=0.0),
        }
        assert WeightedDonorScore().choose(candidates) == 1

    def test_weighted_score_single_candidate(self):
        assert WeightedDonorScore().choose({8: info(8)}) == 8


class TestAddReplica:
    def make_system(self, **config_overrides):
        system = ReplicationSystem(
            ring(5),
            ConstantDemand(1.0),
            weak_consistency(**config_overrides),
            seed=3,
        )
        return system

    def test_new_replica_bootstraps_from_donor(self):
        system = self.make_system()
        system.start()
        update = system.inject_write(0, key="old")
        system.run_until_replicated(update.uid, max_time=60.0)
        donor = system.add_replica(100, attach_to=[0, 2])
        assert donor in (0, 2)
        system.run_until(system.sim.now + 5.0)
        assert system.servers[100].has_update(update.uid)
        assert system.servers[100].store.value("old") == "v1"

    def test_a_late_joiner_gets_a_column_in_every_apply_time_row(self):
        system = self.make_system()
        system.start()
        old = [system.inject_write(node, key=f"k{node}") for node in (0, 3)]
        for update in old:
            system.run_until_replicated(update.uid, max_time=60.0)
        before = [system.apply_times(update.uid) for update in old]
        system.add_replica(100, attach_to=[0, 2])
        new = system.inject_write(100, key="new")
        assert system.run_until_replicated(new.uid, max_time=80.0) is not None
        for update, times in zip(old, before):
            after = system.apply_times(update.uid)
            assert after.pop(100) >= max(times.values())
            assert after == times  # the re-stride moved no earlier cell
            assert system.all_have(update.uid)
        assert set(system.apply_times(new.uid)) == set(system.servers)

    def test_new_replica_participates_afterwards(self):
        system = self.make_system()
        system.start()
        system.add_replica(100, attach_to=[1])
        system.run_until(2.0)
        update = system.inject_write(100, key="from-new")
        done = system.run_until_replicated(update.uid, max_time=80.0)
        assert done is not None

    def test_donor_policy_most_complete_wins(self):
        system = self.make_system()
        system.start()
        # Make node 0 strictly more complete than node 2 and keep the
        # new writes local (no sessions yet -> run_until small).
        for i in range(3):
            system.servers[0].local_write(f"k{i}", i)
        donor = system.add_replica(
            100, attach_to=[0, 2], donor_policy=MostCompleteLog()
        )
        assert donor == 0

    def test_add_replica_validations(self):
        system = self.make_system()
        with pytest.raises(ConfigurationError):
            system.add_replica(100, attach_to=[])
        with pytest.raises(ConfigurationError):
            system.add_replica(100, attach_to=[99])
        with pytest.raises(ConfigurationError):
            system.add_replica(0, attach_to=[1])  # already exists

    def test_add_replica_rejected_under_acked_truncation(self):
        system = self.make_system(log_truncation="acked")
        with pytest.raises(ConfigurationError):
            system.add_replica(100, attach_to=[0])

    def test_add_replica_before_start(self):
        system = self.make_system()
        system.add_replica(100, attach_to=[0])
        system.start()
        update = system.inject_write(0)
        done = system.run_until_replicated(update.uid, max_time=80.0)
        assert done is not None
        assert system.servers[100].has_update(update.uid)

    def test_bootstrap_uses_real_messages(self):
        system = self.make_system()
        system.start()
        update = system.inject_write(0, key="old")
        system.run_until_replicated(update.uid, max_time=60.0)
        before = system.network.counters.messages_sent
        system.add_replica(100, attach_to=[0])
        system.run_until(system.sim.now + 1.0)
        assert system.network.counters.messages_sent > before

    def test_works_with_fast_consistency_too(self):
        system = ReplicationSystem(
            line(4),
            UniformRandomDemand(seed=4),
            fast_consistency(),
            seed=4,
        )
        system.start()
        update = system.inject_write(0)
        system.run_until_replicated(update.uid, max_time=60.0)
        system.add_replica(50, attach_to=[3])
        system.run_until(system.sim.now + 5.0)
        assert system.servers[50].has_update(update.uid)
