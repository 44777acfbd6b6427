"""Tests for RNG streams (repro.sim.rng) and tracing (repro.sim.trace)."""

from __future__ import annotations

import csv
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import CHUNK, RngRegistry, derive_seed
from repro.sim.trace import Tracer


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_differs_by_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_differs_by_master(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_result_fits_64_bits(self):
        assert 0 <= derive_seed(123, "stream") < 2**64


class TestRngRegistry:
    def test_streams_are_cached(self):
        rngs = RngRegistry(0)
        assert rngs.stream("s", 1) is rngs.stream("s", 1)

    def test_streams_are_independent(self):
        rngs = RngRegistry(0)
        a = rngs.stream("a")
        b = rngs.stream("b")
        seq_a = [a.random() for _ in range(3)]
        # Draws on b must not perturb a fresh registry's a stream.
        fresh = RngRegistry(0)
        fresh.stream("b").random()
        assert [fresh.stream("a").random() for _ in range(3)] == seq_a

    def test_empty_stream_name_rejected(self):
        with pytest.raises(ValueError):
            RngRegistry(0).stream()

    def test_multipart_names(self):
        rngs = RngRegistry(0)
        assert rngs.stream("a", 1) is not rngs.stream("a", 2)
        # ("a", 1) and ("a/1",) name the same stream by design.
        assert rngs.stream("a", 1) is rngs.stream("a/1")

    def test_spawn_derives_child_registry(self):
        parent = RngRegistry(7)
        child_a = parent.spawn("rep", 0)
        child_b = parent.spawn("rep", 1)
        assert child_a.master_seed != child_b.master_seed
        # Reproducible
        again = RngRegistry(7).spawn("rep", 0)
        assert again.master_seed == child_a.master_seed

    def test_stream_names_listed(self):
        rngs = RngRegistry(0)
        rngs.stream("x")
        rngs.stream("y", 2)
        assert set(rngs.stream_names()) == {"x", "y/2"}


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
nonzero_rate = finite.filter(lambda lambd: lambd != 0.0)
draw_call = st.one_of(
    st.tuples(st.just("uniform"), st.tuples(finite, finite)),
    st.tuples(st.just("expovariate"), st.tuples(nonzero_rate)),
)


def drawn(stream, calls):
    # repr: equal bits, and a nan (inf * 0.0 where b - a overflows)
    # compares equal to itself.
    return [repr(getattr(stream, method)(*args)) for method, args in calls]


class TestDrawStream:
    """``draws(name)`` returns what ``stream(name)`` returns, value for value."""

    @settings(max_examples=300, deadline=None)
    @given(
        master=st.integers(min_value=-(2**70), max_value=2**70),
        name=st.text(min_size=1, max_size=12),
        # A length drawn first, so most cases cross the chunk boundary.
        calls=st.integers(0, 200).flatmap(
            lambda n: st.lists(draw_call, min_size=n, max_size=n)
        ),
    )
    def test_every_value_equals_the_generators(self, master, name, calls):
        replay = RngRegistry(master).draws(name)
        reference = RngRegistry(master).stream(name)
        assert drawn(replay, calls) == drawn(reference, calls)

    @pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_the_chunk_boundary_and_the_kept_generator(self, count):
        replay = RngRegistry(7).draws("session-interval", 3)
        reference = random.Random(derive_seed(7, "session-interval/3"))
        for index in range(count):
            if index % 2:
                assert replay.expovariate(1.5) == reference.expovariate(1.5)
            else:
                assert replay.uniform(0.5, 1.5) == reference.uniform(0.5, 1.5)
        if count > CHUNK:
            assert replay._rng.getstate() == reference.getstate()

    def test_a_long_stream_holds_a_generator_and_no_chunk(self):
        replay = RngRegistry(1).draws("s")
        assert replay._rng is None and len(replay._chunk) == CHUNK
        for _ in range(10 * CHUNK):
            replay.random()
        assert replay._chunk is None
        assert isinstance(replay._rng, random.Random)

    def test_draws_are_a_fresh_replay_and_not_registered(self):
        rngs = RngRegistry(3)
        value = rngs.draws("a", 1).random()
        assert rngs.draws("a", 1).random() == value == rngs.stream("a/1").random()
        assert rngs.stream_names() == ("a/1",)
        with pytest.raises(ValueError):
            rngs.draws()


class TestTracer:
    def test_records_are_stored(self):
        tracer = Tracer()
        tracer.record(1.0, "session.start", node=3)
        assert len(tracer) == 1
        rec = tracer.records[0]
        assert rec.time == 1.0
        assert rec.category == "session.start"
        assert rec.get("node") == 3
        assert rec.get("missing", "dflt") == "dflt"

    def test_disable_stops_recording(self):
        tracer = Tracer()
        tracer.disable()
        tracer.record(1.0, "x")
        assert len(tracer) == 0
        tracer.enable()
        tracer.record(2.0, "x")
        assert len(tracer) == 1

    def test_enable_only_filters_by_prefix(self):
        tracer = Tracer()
        tracer.enable_only(["session"])
        tracer.record(1.0, "session.start")
        tracer.record(1.0, "session.end")
        tracer.record(1.0, "net.drop")
        assert len(tracer) == 2
        assert tracer.wants("session.anything")
        assert not tracer.wants("net.drop")

    def test_select_by_category_prefix(self):
        tracer = Tracer()
        tracer.record(1.0, "a.x")
        tracer.record(2.0, "a.y")
        tracer.record(3.0, "b")
        assert len(tracer.select("a")) == 2
        assert len(tracer.select("b")) == 1
        assert tracer.select("a.x")[0].time == 1.0

    def test_listeners_fire_on_record(self):
        tracer = Tracer()
        seen = []
        tracer.on_record(lambda rec: seen.append(rec.category))
        tracer.record(0.0, "x")
        assert seen == ["x"]

    def test_clear(self):
        tracer = Tracer()
        tracer.record(0.0, "x")
        tracer.clear()
        assert len(tracer) == 0

    def test_csv_export_contains_fields(self):
        tracer = Tracer()
        tracer.record(1.5, "cat", a=1, b="two")
        text = tracer.to_csv()
        assert "time,category,fields" in text
        assert "1.500000" in text
        rows = list(csv.reader(io.StringIO(text)))
        assert json.loads(rows[1][2]) == {"a": 1, "b": "two"}

    def test_csv_rows_keep_fixed_three_columns(self):
        # Header-driven consumers (DictReader, pandas) rely on every
        # data row matching the 3-column header no matter how many
        # fields a record carries.
        tracer = Tracer()
        tracer.record(1.0, "none")
        tracer.record(2.0, "many", a=1, b=2, c=3, d=4)
        rows = list(csv.reader(io.StringIO(tracer.to_csv())))
        assert all(len(row) == 3 for row in rows)

    def test_csv_fields_round_trip_awkward_values(self):
        # Values containing the old packing's separators (';', '='), the
        # CSV delimiter, quotes and newlines must survive unambiguously:
        # the fields cell is a JSON object, CSV-escaped as one cell.
        tracer = Tracer()
        awkward = {
            "semi": "a;b=c",
            "eq": "x=y=z",
            "comma": "1,2",
            "quote": 'say "hi"',
            "newline": "two\nlines",
        }
        tracer.record(2.0, "cat", **awkward)
        rows = list(csv.reader(io.StringIO(tracer.to_csv())))
        assert rows[0] == ["time", "category", "fields"]
        time_cell, category, packed = rows[1]
        assert time_cell == "2.000000"
        assert category == "cat"
        assert json.loads(packed) == awkward

    def test_wants_cache_tracks_reconfiguration(self):
        tracer = Tracer()
        tracer.enable_only(["session"])
        assert tracer.wants("session.start")
        assert not tracer.wants("net.drop")
        # Reconfiguring must invalidate the memoised verdicts.
        tracer.enable_only(["net"])
        assert tracer.wants("net.drop")
        assert not tracer.wants("session.start")
        tracer.disable()
        assert not tracer.wants("net.drop")
        tracer.enable()
        assert tracer.wants("net.drop")

    def test_select_uses_index_after_clear(self):
        tracer = Tracer()
        tracer.record(1.0, "a.x")
        tracer.clear()
        tracer.record(2.0, "a.x")
        tracer.record(3.0, "a.y")
        tracer.record(4.0, "b")
        selected = tracer.select("a")
        assert [r.time for r in selected] == [2.0, 3.0]

    def test_select_preserves_insertion_order_across_categories(self):
        tracer = Tracer()
        tracer.record(1.0, "a.y")
        tracer.record(2.0, "a.x")
        tracer.record(3.0, "a.y")
        assert [r.time for r in tracer.select("a")] == [1.0, 2.0, 3.0]

    def test_trace_record_has_no_instance_dict(self):
        tracer = Tracer()
        tracer.record(0.0, "x", a=1)
        rec = tracer.records[0]
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_iteration(self):
        tracer = Tracer()
        tracer.record(0.0, "x")
        tracer.record(1.0, "y")
        assert [r.category for r in tracer] == ["x", "y"]
