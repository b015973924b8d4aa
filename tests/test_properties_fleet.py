"""Differential tests for the fleet's fault path.

Two structures answer their queries from an index instead of a scan, and
each must decide exactly as the scan does:

* ``LivenessTracker.sweep`` walks its cameras oldest heartbeat first and
  stops at the first recent one; the oracle is
  :class:`tests.oracles.FullWalkLivenessTracker`, whose sweep walks every
  camera.
* ``FaultPlan`` reads each query's windows from an index by kind and
  camera; the oracle is a scan over ``plan.events``.
"""

from __future__ import annotations

import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.faults import BURST, DROPOUT, FAULT_KINDS, JITTER, LOSS, FaultEvent, FaultPlan
from repro.fleet.liveness import DEAD, RECONNECTING, LivenessTracker
from repro.simulation.engine import Simulator
from tests.oracles import FullWalkLivenessTracker

#: Tier-1 keeps the search to about a second; ``RUN_CHAOS=1`` runs a
#: deeper one.
CHAOS = bool(os.environ.get("RUN_CHAOS"))
EXAMPLES = 1500 if CHAOS else 60
MAX_STEPS = 300 if CHAOS else 80
MAX_EVENTS = 40 if CHAOS else 16


# ------------------------------------------------------------------ liveness
@st.composite
def liveness_runs(draw):
    """Timeouts on a quarter-second grid, 1-40 cameras, and a schedule of
    ``(time step, operation, camera)`` whose steps include each timeout,
    so silences land exactly on the thresholds, plus off-grid steps."""
    suspect_after = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    dead_after = suspect_after + draw(st.sampled_from([0.25, 0.5, 1.0]))
    reconnect_settle = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    cameras = [f"cam-{index}" for index in range(draw(st.integers(1, 40)))]
    registered = draw(st.integers(0, len(cameras)))
    steps = st.sampled_from(
        [0.0, 0.1, 0.25, 0.3, suspect_after, dead_after, reconnect_settle,
         dead_after - suspect_after]
    )
    operations = st.sampled_from(["register", "heartbeat", "heartbeat", "sweep", "sweep"])
    schedule = draw(
        st.lists(
            st.tuples(steps, operations, st.sampled_from(cameras)), max_size=MAX_STEPS
        )
    )
    timeouts = dict(
        suspect_after=suspect_after, dead_after=dead_after, reconnect_settle=reconnect_settle
    )
    return timeouts, cameras, cameras[:registered], schedule


def _observe(tracker: LivenessTracker, cameras):
    return (
        [tracker.state(camera) for camera in cameras],
        tracker.counts,
        dict(tracker.transitions),
    )


def _replay(tracker_class, timeouts, cameras, registered, schedule):
    """Drive one tracker through ``schedule``; the observations after
    registration and after every step."""
    simulator = Simulator()
    tracker = tracker_class(simulator, **timeouts)
    for camera in registered:
        tracker.register(camera)
    seen = [_observe(tracker, cameras)]
    for step, operation, camera in schedule:
        simulator.run(until=simulator.now + step)
        if operation == "sweep":
            tracker.sweep()
        else:
            getattr(tracker, operation)(camera)
        seen.append(_observe(tracker, cameras))
    return seen


@settings(max_examples=EXAMPLES, deadline=None)
@given(liveness_runs())
def test_sweep_decides_as_a_full_walk(run):
    timeouts, cameras, registered, schedule = run
    fast = _replay(LivenessTracker, timeouts, cameras, registered, schedule)
    full = _replay(FullWalkLivenessTracker, timeouts, cameras, registered, schedule)
    for index, (got, want) in enumerate(zip(fast, full)):
        assert got == want, f"diverged after step {index}: {schedule[:index]}"


def test_reconnecting_camera_that_falls_silent_dies_again():
    # A camera revived by one heartbeat re-enters the walk, so the sweeps
    # that follow its next silence find it.
    schedule = [
        (1.5, "sweep", "cam-0"),
        (0.5, "heartbeat", "cam-0"),
        (1.5, "sweep", "cam-0"),
        (0.5, "heartbeat", "cam-0"),
        (1.5, "sweep", "cam-0"),
    ]
    timeouts = dict(suspect_after=0.5, dead_after=1.5, reconnect_settle=0.25)
    args = (timeouts, ["cam-0", "cam-1"], ["cam-0", "cam-1"], schedule)
    fast = _replay(LivenessTracker, *args)
    assert fast == _replay(FullWalkLivenessTracker, *args)
    states, _counts, transitions = fast[-1]
    assert states == [DEAD, DEAD]
    assert transitions[DEAD] == 4 and transitions[RECONNECTING] == 2


# ---------------------------------------------------------------- fault plan
CAMERAS = ("cam-0", "cam-1", "cam-2")
#: Queried too, but owns no window.
BYSTANDER = "cam-9"


#: The magnitudes drawn per kind: each kind's valid range, which
#: :class:`FaultEvent` enforces.  A dropout reads no magnitude.
MAGNITUDES = {
    DROPOUT: (0.0, 0.05, 0.5, 1.0, 2.0, 3.0),
    LOSS: (0.0, 0.05, 0.5, 1.0),
    JITTER: (0.0, 0.05, 0.5, 1.0, 2.0, 3.0),
    BURST: (1.0, 1.5, 2.0, 3.0),
}


@st.composite
def fault_events(draw) -> FaultEvent:
    """Windows of every kind on a half-second grid, fleet-wide or scoped
    to one camera; zero-length windows and equal magnitudes included."""
    start = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]))
    kind = draw(st.sampled_from(FAULT_KINDS))
    return FaultEvent(
        kind=kind,
        start=start,
        end=start + draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        magnitude=draw(st.sampled_from(MAGNITUDES[kind])),
        camera_id=draw(st.sampled_from((None,) + CAMERAS)),
    )


def _covers(event: FaultEvent, kind: str, camera_id: str, now: float) -> bool:
    return (
        event.kind == kind
        and event.start <= now < event.end
        and event.camera_id in (None, camera_id)
    )


def _scan(plan: FaultPlan, kind: str, camera_id: str, now: float, default: float) -> float:
    return max(
        (e.magnitude for e in plan.events if _covers(e, kind, camera_id, now)),
        default=default,
    )


def _query_times(events):
    """Every window edge, its two float neighbours, and a grid."""
    edges = {edge for event in events for edge in (event.start, event.end)}
    times = {0.25 * step for step in range(-1, 24)}
    for edge in edges:
        times.update((edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)))
    return sorted(times)


def _check_plan(plan: FaultPlan) -> None:
    for now in _query_times(plan.events):
        # The arrival multiplier counts every burst, camera-scoped ones too.
        bursts = [
            e.magnitude for e in plan.events if e.kind == BURST and e.start <= now < e.end
        ]
        assert plan.burst_multiplier(now) == max(bursts, default=1.0), now
        for camera in CAMERAS + (BYSTANDER,):
            down = any(_covers(e, DROPOUT, camera, now) for e in plan.events)
            assert plan.camera_down(camera, now) == down, (camera, now)
            loss = _scan(plan, LOSS, camera, now, 0.0)
            jitter = _scan(plan, JITTER, camera, now, 0.0)
            assert plan.loss_probability(camera, now) == loss, (camera, now)
            assert plan.extra_jitter(camera, now) == jitter, (camera, now)
            assert plan.loss_dial(camera)(now) == loss, (camera, now)
            assert plan.jitter_dial(camera)(now) == jitter, (camera, now)


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.lists(fault_events(), max_size=MAX_EVENTS))
def test_fault_plan_queries_equal_a_scan_of_its_events(events):
    _check_plan(FaultPlan(seed=0, duration=5.0, events=tuple(events)))


def test_camera_scoped_burst_raises_the_fleet_multiplier():
    # Only ``cam-1`` owns this burst, yet the arrival multiplier, which
    # takes no camera, has always counted it.
    plan = FaultPlan(
        seed=0,
        duration=5.0,
        events=(FaultEvent(kind=BURST, start=1.0, end=2.0, magnitude=3.0, camera_id="cam-1"),),
    )
    assert plan.burst_multiplier(1.0) == 3.0
    assert plan.burst_multiplier(2.0) == 1.0
    _check_plan(plan)
