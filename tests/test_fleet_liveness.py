"""Tests for the heartbeat liveness state machine."""

from __future__ import annotations

import pytest

from repro.fleet.liveness import ALIVE, DEAD, RECONNECTING, SUSPECT, LivenessTracker
from repro.simulation.engine import Simulator


def _tracker(simulator, **kwargs):
    defaults = dict(suspect_after=1.0, dead_after=3.0, reconnect_settle=0.5)
    defaults.update(kwargs)
    return LivenessTracker(simulator, **defaults)


def _at(simulator, when, action):
    simulator.schedule_at(when, lambda _sim: action())


class TestTransitions:
    def test_registered_camera_starts_alive(self):
        simulator = Simulator()
        tracker = _tracker(simulator)
        tracker.register("cam-0")
        assert tracker.state("cam-0") == ALIVE

    def test_unknown_camera_reported_alive(self):
        tracker = _tracker(Simulator())
        assert tracker.state("nobody") == ALIVE
        assert not tracker.is_dead("nobody")

    def test_silence_walks_alive_suspect_dead(self):
        simulator = Simulator()
        tracker = _tracker(simulator)
        tracker.register("cam-0")
        states = {}
        _at(simulator, 0.5, lambda: (tracker.sweep(),
                 states.update(early=tracker.state("cam-0"))))
        _at(simulator, 1.5, lambda: (tracker.sweep(),
                 states.update(mid=tracker.state("cam-0"))))
        _at(simulator, 3.5, lambda: (tracker.sweep(),
                 states.update(late=tracker.state("cam-0"))))
        simulator.run()
        assert states == {"early": ALIVE, "mid": SUSPECT, "late": DEAD}

    def test_heartbeat_rescues_suspect(self):
        simulator = Simulator()
        tracker = _tracker(simulator)
        tracker.register("cam-0")
        _at(simulator, 1.5, tracker.sweep)
        _at(simulator, 2.0, lambda: tracker.heartbeat("cam-0"))
        simulator.run()
        assert tracker.state("cam-0") == ALIVE

    def test_dead_camera_reconnects_through_settle_period(self):
        simulator = Simulator()
        tracker = _tracker(simulator)
        tracker.register("cam-0")
        seen = []
        _at(simulator, 3.5, tracker.sweep)
        _at(simulator, 4.0, lambda: seen.append(tracker.heartbeat("cam-0")))
        _at(simulator, 4.2, lambda: seen.append(tracker.heartbeat("cam-0")))
        _at(simulator, 4.6, lambda: seen.append(tracker.heartbeat("cam-0")))
        simulator.run()
        # First heartbeat only re-opens the connection; alive needs the
        # settle period of sustained heartbeats.
        assert seen == [RECONNECTING, RECONNECTING, ALIVE]

    def test_blip_during_reconnect_redeclared_dead(self):
        simulator = Simulator()
        tracker = _tracker(simulator)
        tracker.register("cam-0")
        _at(simulator, 3.5, tracker.sweep)
        _at(simulator, 4.0, lambda: tracker.heartbeat("cam-0"))
        _at(simulator, 8.0, tracker.sweep)
        simulator.run()
        assert tracker.state("cam-0") == DEAD

    def test_on_dead_hook_fires_once_per_death(self):
        simulator = Simulator()
        deaths = []
        tracker = _tracker(simulator)
        tracker.on_dead = deaths.append
        tracker.register("cam-0")
        tracker.register("cam-1")
        _at(simulator, 1.0, lambda: tracker.heartbeat("cam-1"))
        _at(simulator, 3.5, tracker.sweep)
        _at(simulator, 3.6, tracker.sweep)
        simulator.run()
        assert deaths == ["cam-0"]

    def test_counts_and_transition_totals(self):
        simulator = Simulator()
        tracker = _tracker(simulator)
        for index in range(3):
            tracker.register(f"cam-{index}")
        _at(simulator, 1.5, lambda: tracker.heartbeat("cam-0"))
        _at(simulator, 3.5, lambda: (tracker.heartbeat("cam-0"), tracker.sweep()))
        simulator.run()
        counts = tracker.counts
        assert counts[ALIVE] == 1
        assert counts[DEAD] == 2
        assert tracker.transitions[DEAD] == 2


class TestValidation:
    def test_rejects_nonpositive_timeouts(self):
        with pytest.raises(ValueError):
            LivenessTracker(Simulator(), suspect_after=0.0)
        with pytest.raises(ValueError):
            LivenessTracker(Simulator(), reconnect_settle=-1.0)
        for name in ("suspect_after", "dead_after", "reconnect_settle"):
            with pytest.raises(ValueError):
                LivenessTracker(Simulator(), **{name: float("nan")})

    def test_rejects_dead_before_suspect(self):
        with pytest.raises(ValueError):
            LivenessTracker(Simulator(), suspect_after=2.0, dead_after=1.0)
