"""Tests for the discrete-event engine (repro.sim.engine)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import (
    RUN_EXHAUSTED,
    RUN_MAX_EVENTS,
    RUN_STOPPED,
    RUN_UNTIL,
    Simulator,
)


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.run() == RUN_EXHAUSTED
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_insertion_order(self, sim):
        fired = []
        for label in "abcd":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcd")

    def test_priority_breaks_same_time_ties(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "late", priority=10)
        sim.schedule(1.0, fired.append, "early", priority=-10)
        sim.run()
        assert fired == ["early", "late"]

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_scheduling_in_the_past_raises(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_non_callable_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(1.0, "not-callable")

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_zero_delay_event_fires_at_same_time(self, sim):
        times = []

        def outer():
            sim.schedule(0.0, lambda: times.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        assert sim.cancel(handle) is True
        sim.run()
        assert fired == []

    def test_cancel_twice_returns_false(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False

    def test_cancel_after_fire_returns_false(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.cancel(handle) is False

    def test_pending_count_tracks_cancellations(self, sim):
        handles = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        assert sim.pending_count() == 3
        sim.cancel(handles[0])
        assert sim.pending_count() == 2

    def test_cancel_foreign_handle_returns_false(self, sim):
        other = Simulator(seed=99)
        fired = []
        handle = other.schedule(1.0, fired.append, "x")
        assert sim.cancel(handle) is False
        assert sim.pending_count() == 0
        assert other.pending_count() == 1
        other.run()
        assert fired == ["x"]

    def test_handle_holds_no_payload_references(self, sim):
        # Handles carry only scalars and state flags — a retained handle
        # can never keep a fired callback or its arguments alive.
        fired_handle = sim.schedule(1.0, lambda: None)
        cancelled_handle = sim.schedule(2.0, lambda: None)
        sim.cancel(cancelled_handle)
        sim.run()
        assert fired_handle.fired and not fired_handle.cancelled
        assert cancelled_handle.cancelled and not cancelled_handle.fired
        payload_slots = set(type(fired_handle).__slots__)
        assert payload_slots == {
            "time", "priority", "seq", "sim", "cancelled", "fired", "in_lane"
        }

    def test_schedule_fast_fires_in_order_without_handle(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "handled")
        assert sim.schedule_fast(0.5, fired.append, "fast") is None
        assert sim.pending_count() == 2
        sim.run()
        assert fired == ["fast", "handled"]
        assert sim.pending_count() == 0

    def test_cancel_churn_keeps_heap_bounded(self, sim):
        # A session-timeout-style schedule/cancel loop must not grow the
        # heap without bound: cancelled events are compacted away once
        # they dominate the heap.
        for i in range(5000):
            handle = sim.schedule(10.0 + i, lambda: None)
            sim.cancel(handle)
            assert len(sim._heap) <= 200, f"heap grew to {len(sim._heap)} at {i}"
        assert sim.pending_count() == 0
        assert sim.run() == "exhausted"

    def test_compaction_preserves_fire_order(self, sim):
        fired = []
        for i in range(100):
            sim.schedule(float(i), fired.append, i)
        # Cancel enough interleaved timers that the dead entries come to
        # dominate the heap and trigger a compaction mid-stream.
        doomed = [
            sim.schedule(float(i % 100) + 0.5, fired.append, -1) for i in range(500)
        ]
        for handle in doomed:
            sim.cancel(handle)
        assert len(sim._heap) < 600  # compaction actually ran
        assert sim.pending_count() == 100
        assert sim.run() == "exhausted"
        assert fired == list(range(100))


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        assert sim.run(until=2.0) == RUN_UNTIL
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_run_until_advances_clock_when_no_events(self, sim):
        assert sim.run(until=7.0) == RUN_EXHAUSTED
        assert sim.now == 7.0

    def test_run_resumes_after_until(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_max_events_budget(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        assert sim.run(max_events=4) == RUN_MAX_EVENTS
        assert fired == [0, 1, 2, 3]

    def test_stop_from_callback(self, sim):
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, fired.append, "after")
        assert sim.run() == RUN_STOPPED
        assert fired == ["stop"]
        sim.run()
        assert fired == ["stop", "after"]

    def test_reentrant_run_raises(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_executes_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_events_executed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestPubSub:
    def test_publish_reaches_subscribers(self, sim):
        got = []
        sim.subscribe("topic", lambda **kw: got.append(kw))
        count = sim.publish("topic", value=1)
        assert count == 1
        assert got == [{"value": 1}]

    def test_publish_without_subscribers_is_noop(self, sim):
        assert sim.publish("nobody", x=1) == 0

    def test_unsubscribe(self, sim):
        got = []
        handler = lambda **kw: got.append(kw)  # noqa: E731
        sim.subscribe("t", handler)
        sim.unsubscribe("t", handler)
        sim.publish("t", a=1)
        assert got == []

    def test_multiple_subscribers_all_fire(self, sim):
        got = []
        sim.subscribe("t", lambda **kw: got.append("a"))
        sim.subscribe("t", lambda **kw: got.append("b"))
        assert sim.publish("t") == 2
        assert got == ["a", "b"]


class TestDeterminism:
    def test_same_seed_same_rng_sequences(self):
        a = Simulator(seed=9).rng.stream("x")
        b = Simulator(seed=9).rng.stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).rng.stream("x")
        b = Simulator(seed=2).rng.stream("x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]
