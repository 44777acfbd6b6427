"""Property tests: the kernel fires in sorted ``(time, priority, seq)`` order.

The engine queues ``(time, priority, seq, handle, callback, args)``
tuples in a heap and a sorted timer lane; before that it stored
:class:`~repro.sim.events.Event` objects ordered by ``Event.__lt__``
over ``(time, priority, seq)``.  These properties pin both refactors:
on arbitrary schedule/cancel/step/run interleavings the firing order
must equal what sorting the equivalent keys produces, ties and all,
whichever structure an entry landed in.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    RUN_EXHAUSTED,
    RUN_MAX_EVENTS,
    RUN_UNTIL,
    Simulator,
)
from repro.sim.events import DEFAULT_PRIORITY, Event

# A coarse grid of delays and priorities forces plenty of exact
# (time, priority) collisions, so the seq tie-break actually decides.
delays = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
priorities = st.sampled_from([-1, 0, 1])

schedule_op = st.tuples(st.just("schedule"), delays, priorities)
cancel_op = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=500))
run_op = st.tuples(st.just("run"), st.integers(min_value=1, max_value=4))

interleavings = st.lists(
    st.one_of(schedule_op, cancel_op, run_op), min_size=1, max_size=60
)


class ModelEntry:
    """One scheduled event mirrored outside the engine."""

    def __init__(self, event_id, handle, priority):
        self.id = event_id
        self.handle = handle
        # The Event wraps the real handle, so Event.__lt__ compares the
        # genuine (time, priority, seq) keys — the pre-refactor order.
        self.event = Event(handle, lambda: None, (), label=str(event_id))
        self.cancelled = False
        self.fired = False

    @property
    def live(self):
        return not self.cancelled and not self.fired


def model_order(entries):
    """Firing order per the pre-refactor semantics: Event.__lt__ sort."""
    return [
        entry.id
        for entry in sorted(
            (e for e in entries if e.live), key=lambda e: e.event
        )
    ]


class EventKey:
    """Adapter so sorted(key=...) goes through Event.__lt__ itself."""

    def __init__(self, event):
        self.event = event

    def __lt__(self, other):
        return self.event < other.event


@settings(max_examples=60, deadline=None)
@given(interleavings)
def test_firing_order_matches_event_lt_model(ops):
    sim = Simulator(seed=0)
    sim.trace.disable()
    fired = []
    entries = []
    expected_fired = []

    for op in ops:
        if op[0] == "schedule":
            _, delay, priority = op
            event_id = len(entries)
            handle = sim.schedule(delay, fired.append, event_id, priority=priority)
            entries.append(ModelEntry(event_id, handle, priority))
        elif op[0] == "cancel":
            if not entries:
                continue
            entry = entries[op[1] % len(entries)]
            expected = entry.live
            assert sim.cancel(entry.handle) == expected
            if expected:
                entry.cancelled = True
        else:  # run up to n events
            _, budget = op
            expected_now = [e for e in entries if e.live]
            expected_now.sort(key=lambda e: EventKey(e.event))
            for entry in expected_now[:budget]:
                entry.fired = True
                expected_fired.append(entry.id)
            sim.run(max_events=budget)

    expected_fired.extend(model_order(entries))
    sim.run()
    assert fired == expected_fired


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), delays, priorities), min_size=1, max_size=40
    )
)
def test_schedule_fast_shares_the_ordering(mix):
    """schedule_fast entries slot into the same total order as schedule.

    The fast path skips handle allocation but draws from the same
    sequence counter, so a fast event scheduled after a handled event
    at the same (time, priority) fires after it — exactly the Event
    model with insertion order as the tie-break.
    """
    sim = Simulator(seed=0)
    sim.trace.disable()
    fired = []
    expected = []

    for index, (fast, delay, priority) in enumerate(mix):
        if fast:
            # schedule_fast has no priority parameter: DEFAULT_PRIORITY.
            sim.schedule_fast(delay, fired.append, index)
            expected.append((delay, DEFAULT_PRIORITY, index))
        else:
            sim.schedule(delay, fired.append, index, priority=priority)
            expected.append((delay, priority, index))

    expected.sort()
    sim.run()
    assert fired == [event_id for _t, _p, event_id in expected]


# ---------------------------------------------------------------------------
# Every entry point against one sorted-key model
# ---------------------------------------------------------------------------

# Nested actions a firing event performs from inside the drain loop.
nested_op = st.one_of(
    st.tuples(st.just("schedule"), delays, priorities),
    st.tuples(st.just("fast"), delays),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=500)),
)
kernel_op = st.one_of(
    st.tuples(st.just("schedule"), delays, priorities, st.lists(nested_op, max_size=3)),
    st.tuples(st.just("schedule_at"), delays, priorities, st.lists(nested_op, max_size=3)),
    st.tuples(st.just("fast"), delays),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=500)),
    st.tuples(st.just("step")),
    st.tuples(
        st.just("run"),
        st.none() | st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]),
        st.none() | st.integers(min_value=0, max_value=4),
    ),
)


class KernelModel:
    """Sorted-key mirror of one Simulator, checked from inside each callback.

    Every scheduled event calls :meth:`on_fire`, which asserts that the
    event firing *now* is the smallest live ``(time, priority,
    insertion)`` key the model holds — so a misordered, skipped, doubled
    or resurrected event fails at the moment it happens.
    """

    def __init__(self):
        self.sim = Simulator(seed=0)
        self.sim.trace.disable()
        self.entries = []  # dicts: key, handle, live, nested
        self.fired = 0

    def live(self):
        return [e for e in self.entries if e["live"]]

    def head(self):
        return min(self.live(), key=lambda e: e["key"], default=None)

    def add(self, how, delay, priority=DEFAULT_PRIORITY, nested=()):
        sim = self.sim
        event_id = len(self.entries)
        time = sim.now + delay
        if how == "schedule":
            handle = sim.schedule(delay, self.on_fire, event_id, priority=priority)
        elif how == "schedule_at":
            handle = sim.schedule_at(time, self.on_fire, event_id, priority=priority)
        else:
            handle = sim.schedule_fast(delay, self.on_fire, event_id)
        self.entries.append(
            {
                "id": event_id,
                # Insertion index stands in for seq: both only grow.
                "key": (time, priority, event_id),
                "handle": handle,
                "live": True,
                "nested": list(nested),
            }
        )

    def cancel(self, pick):
        handled = [e for e in self.entries if e["handle"] is not None]
        if not handled:
            return
        entry = handled[pick % len(handled)]
        # Late cancels (already fired or cancelled) must report False.
        assert self.sim.cancel(entry["handle"]) == entry["live"]
        entry["live"] = False

    def on_fire(self, event_id):
        head = self.head()
        assert head is not None and head["id"] == event_id
        assert self.sim.now == head["key"][0]
        head["live"] = False
        self.fired += 1
        for op in head["nested"]:
            if op[0] == "cancel":
                self.cancel(op[1])
            else:
                self.add(*op)

    def check(self):
        sim = self.sim
        assert sim.pending_count() == len(self.live())
        head, peek = self.head(), sim._drain(-math.inf, None)[1]
        if head is None:
            assert peek is None
        else:
            assert peek[:2] == head["key"][:2] and peek[5] == (head["id"],)
        # The lane is sorted and its head is live.
        keys = [entry[:3] for entry in sim._lane]
        assert keys == sorted(keys)
        assert not sim._lane or not sim._lane[0][3].cancelled


@settings(max_examples=200, deadline=None)
@given(st.lists(kernel_op, min_size=1, max_size=60))
def test_every_entry_point_follows_the_sorted_key_model(ops):
    model = KernelModel()
    sim = model.sim
    for op in ops:
        if op[0] in ("schedule", "schedule_at"):
            model.add(op[0], op[1], op[2], op[3])
        elif op[0] == "fast":
            model.add("fast", op[1])
        elif op[0] == "cancel":
            model.cancel(op[1])
        elif op[0] == "step":
            expect = model.head() is not None
            before = model.fired
            assert sim.step() is expect
            assert model.fired - before == int(expect)
        else:
            _, until, max_events = op
            before, start = model.fired, sim.now
            reason = sim.run(until=until, max_events=max_events)
            executed = model.fired - before
            head = model.head()
            if reason == RUN_MAX_EVENTS:
                assert executed == max_events
            else:
                assert max_events is None or executed < max_events
                if reason == RUN_UNTIL:
                    assert head is not None and head["key"][0] > until
                    assert sim.now == until
                else:
                    assert reason == RUN_EXHAUSTED and head is None
                    if until is not None:
                        assert sim.now == max(until, start)
        model.check()
    assert sim.run() == RUN_EXHAUSTED
    assert model.live() == [] and sim.pending_count() == 0


def test_compaction_from_inside_a_callback_keeps_the_drain_loop_sound():
    # cancel() may rebuild the heap while run() is in the middle of it.
    sim = Simulator(seed=0)
    sim.trace.disable()
    fired = []
    sim.schedule(100.0, fired.append, "tail")  # lane tail: the rest go to the heap
    doomed = [sim.schedule(50.0 + i * 0.01, fired.append, -1) for i in range(300)]
    keep = [sim.schedule(60.0 + i, fired.append, i) for i in range(5)]

    def cancel_all():
        for handle in doomed:
            assert sim.cancel(handle)
        # Pushed after the rebuild: the loop must be looking at the
        # rebuilt heap, not at a stale copy, to see it.
        sim.schedule(53.0, fired.append, "late")

    sim.schedule(1.0, cancel_all)
    assert len(sim._heap) > 300
    assert sim.run() == RUN_EXHAUSTED
    assert len(sim._heap) == 0 and sim.pending_count() == 0
    assert fired == ["late", 0, 1, 2, 3, 4, "tail"]
    assert all(handle.fired for handle in keep)
