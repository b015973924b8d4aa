"""Tests for the event queue primitives."""

from __future__ import annotations

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.events import Event, EventQueue


def test_push_and_pop_in_time_order():
    queue = EventQueue()
    fired = []
    queue.push(2.0, lambda sim: fired.append("b"), name="b")
    queue.push(1.0, lambda sim: fired.append("a"), name="a")
    queue.push(3.0, lambda sim: fired.append("c"), name="c")
    assert queue.pop().name == "a"
    assert queue.pop().name == "b"
    assert queue.pop().name == "c"


def test_pop_empty_queue_raises():
    queue = EventQueue()
    with pytest.raises(IndexError):
        queue.pop()


def test_same_time_events_fire_in_insertion_order():
    queue = EventQueue()
    queue.push(1.0, lambda sim: None, name="first")
    queue.push(1.0, lambda sim: None, name="second")
    assert queue.pop().name == "first"
    assert queue.pop().name == "second"


def test_priority_breaks_ties_before_insertion_order():
    queue = EventQueue()
    queue.push(1.0, lambda sim: None, priority=5, name="low-priority")
    queue.push(1.0, lambda sim: None, priority=0, name="high-priority")
    assert queue.pop().name == "high-priority"


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    event = queue.push(1.0, lambda sim: None, name="cancelled")
    queue.push(2.0, lambda sim: None, name="kept")
    event.cancel()
    assert len(queue) == 1
    assert queue.pop().name == "kept"


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1.0, lambda sim: None)
    queue.push(5.0, lambda sim: None)
    first.cancel()
    assert queue.peek_time() == 5.0


def test_negative_time_rejected():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.push(-0.1, lambda sim: None)


def test_len_and_bool_reflect_live_events():
    queue = EventQueue()
    assert not queue
    event = queue.push(1.0, lambda sim: None)
    assert queue
    assert len(queue) == 1
    event.cancel()
    assert not queue
    assert len(queue) == 0


def test_clear_empties_queue():
    queue = EventQueue()
    queue.push(1.0, lambda sim: None)
    queue.push(2.0, lambda sim: None)
    queue.clear()
    assert queue.peek_time() is None


def test_event_ordering_dataclass():
    early = Event(time=1.0, priority=0, sequence=0)
    late = Event(time=2.0, priority=0, sequence=1)
    assert early < late


def test_cancel_releases_the_callback():
    # Cancellation is lazy, so the event stays queued until it is popped;
    # what its callback captured must not stay alive with it.
    class Callback:
        def __call__(self, sim):
            pass

    queue = EventQueue()
    callback = Callback()
    captured = weakref.ref(callback)
    event = queue.push(1.0, callback)
    queue.push(2.0, lambda sim: None, name="kept")
    del callback
    event.cancel()
    assert event.callback is None
    assert captured() is None
    assert queue.pop().name == "kept"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.sampled_from([-1, 0, 1]),
            st.booleans(),
        ),
        max_size=40,
    )
)
def test_pop_order_matches_sorted_reference(draws):
    # Times on a coarse grid so that ties occur; live events must pop in
    # (time, priority, push index) order, cancelled ones never.
    queue = EventQueue()
    events = [
        queue.push(grid * 0.5, lambda sim: None, priority=priority, name=str(index))
        for index, (grid, priority, _cancel) in enumerate(draws)
    ]
    for event, (_grid, _priority, cancel) in zip(events, draws):
        if cancel:
            event.cancel()
    expected = sorted(
        (grid * 0.5, priority, index)
        for index, (grid, priority, cancel) in enumerate(draws)
        if not cancel
    )
    popped = []
    while queue:
        event = queue.pop()
        popped.append((event.time, event.priority, int(event.name)))
    assert popped == expected
    assert queue.peek_time() is None
