"""Tests for timestamps and summary vectors (repro.replica)."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReplicationError
from repro.replica.timestamps import ZERO, LamportClock, Timestamp
from repro.replica.versions import ENTRY_BYTES, SummaryVector, elementwise_min


class TestTimestamp:
    def test_total_order(self):
        assert Timestamp(1, 0) < Timestamp(2, 0)
        assert Timestamp(1, 0) < Timestamp(1, 1)  # node breaks ties
        assert Timestamp(3, 5) > Timestamp(2, 9)

    @given(st.tuples(st.integers(0, 3), st.integers(0, 3)),
           st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_compares_and_hashes_as_its_counter_node_pair(self, a, b):
        left, right = Timestamp(*a), Timestamp(*b)
        for compare in (operator.eq, operator.ne, operator.lt, operator.le,
                        operator.gt, operator.ge):
            assert compare(left, right) == compare(a, b)
        assert hash(left) == hash(a)

    def test_orders_only_against_timestamps(self):
        assert Timestamp(1, 0) != (1, 0)
        with pytest.raises(TypeError):
            Timestamp(1, 0) < (2, 0)

    def test_zero_is_minimal(self):
        assert ZERO <= Timestamp(0, 0)
        assert ZERO < Timestamp(1, 0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ReplicationError):
            Timestamp(-1, 0)
        with pytest.raises(ReplicationError):
            Timestamp(0, -2)

    def test_next_for(self):
        ts = Timestamp(4, 2).next_for(7)
        assert ts == Timestamp(5, 7)


class TestLamportClock:
    def test_tick_monotonic(self):
        clock = LamportClock(3)
        a = clock.tick()
        b = clock.tick()
        assert a < b
        assert a.node == b.node == 3

    def test_witness_advances(self):
        clock = LamportClock(0)
        clock.witness(Timestamp(10, 5))
        assert clock.tick() == Timestamp(11, 0)

    def test_witness_never_regresses(self):
        clock = LamportClock(0)
        clock.tick()
        clock.tick()
        clock.witness(Timestamp(1, 9))
        assert clock.counter == 2

    def test_cross_clock_causality(self):
        a, b = LamportClock(0), LamportClock(1)
        t1 = a.tick()
        b.witness(t1)
        t2 = b.tick()
        assert t1 < t2

    def test_peek_does_not_advance(self):
        clock = LamportClock(0)
        clock.tick()
        assert clock.peek().counter == 1
        assert clock.peek().counter == 1


class TestSummaryVector:
    def test_empty_vector(self):
        vec = SummaryVector()
        assert vec.get(5) == 0
        assert len(vec) == 0
        assert vec.total_writes() == 0

    def test_construction_drops_zero_entries(self):
        vec = SummaryVector({1: 0, 2: 3})
        assert len(vec) == 1
        assert vec.get(2) == 3

    def test_negative_entry_rejected(self):
        with pytest.raises(ReplicationError):
            SummaryVector({1: -1})

    def test_covers(self):
        vec = SummaryVector({1: 3})
        assert vec.covers(1, 1) and vec.covers(1, 3)
        assert not vec.covers(1, 4)
        assert not vec.covers(2, 1)
        with pytest.raises(ReplicationError):
            vec.covers(1, 0)

    def test_advance_must_be_contiguous(self):
        vec = SummaryVector()
        vec.advance(1, 1)
        vec.advance(1, 2)
        with pytest.raises(ReplicationError):
            vec.advance(1, 4)
        with pytest.raises(ReplicationError):
            vec.advance(1, 2)  # replay

    def test_merge_elementwise_max(self):
        a = SummaryVector({1: 3, 2: 1})
        b = SummaryVector({1: 2, 3: 5})
        a.merge(b)
        assert a.as_dict() == {1: 3, 2: 1, 3: 5}

    def test_dominates(self):
        a = SummaryVector({1: 3, 2: 2})
        b = SummaryVector({1: 2})
        assert a.dominates(b)
        assert not b.dominates(a)
        assert a.dominates(SummaryVector())

    def test_equality_and_hash(self):
        assert SummaryVector({1: 2}) == SummaryVector({1: 2})
        assert SummaryVector({1: 2}) != SummaryVector({1: 3})
        assert hash(SummaryVector({1: 2})) == hash(SummaryVector({1: 2}))

    def test_copy_is_independent(self):
        a = SummaryVector({1: 1})
        b = a.copy()
        b.advance(1, 2)
        assert a.get(1) == 1

    def test_size_bytes(self):
        assert SummaryVector({1: 2, 5: 9}).size_bytes() == 2 * ENTRY_BYTES

    def test_items_sorted(self):
        vec = SummaryVector({5: 1, 2: 3})
        assert list(vec.items()) == [(2, 3), (5, 1)]

    def test_repr(self):
        assert "2:3" in repr(SummaryVector({2: 3}))


class TestElementwiseMin:
    def test_min_across_vectors(self):
        vecs = [SummaryVector({1: 3, 2: 5}), SummaryVector({1: 2, 2: 7})]
        ack = elementwise_min(vecs)
        assert ack.as_dict() == {1: 2, 2: 5}

    def test_missing_origin_gives_zero(self):
        vecs = [SummaryVector({1: 3}), SummaryVector({2: 5})]
        ack = elementwise_min(vecs)
        assert ack.get(1) == 0
        assert ack.get(2) == 0

    def test_empty_input(self):
        assert len(elementwise_min([])) == 0
