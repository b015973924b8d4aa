"""Tests for the fleet's admission filter."""

from __future__ import annotations

from repro.core.patches import Patch
from repro.fleet.ingest import FleetIngestor
from repro.fleet.liveness import LivenessTracker
from repro.simulation.engine import Simulator
from repro.video.geometry import Box


class StubScheduler:
    """Records admissions."""

    def __init__(self) -> None:
        self.received = []

    def receive_patch(self, patch: Patch) -> None:
        self.received.append(patch)


def _patch(camera="cam-0", frame=0, generation=0.0, slo=1.0, slot=0):
    return Patch(
        camera_id=camera,
        frame_index=frame,
        region=Box(0.0, float(slot), 10.0, 10.0),
        generation_time=generation,
        slo=slo,
    )


def _ingestor(simulator, scheduler, **kwargs):
    return FleetIngestor(simulator, scheduler, **kwargs)


class TestAdmission:
    def test_fresh_delivery_reaches_the_scheduler_before_offer_returns(self):
        simulator = Simulator()
        scheduler = StubScheduler()
        ingestor = _ingestor(simulator, scheduler)
        patches = [_patch(camera=f"cam-{i}", slo=3.0 - i) for i in range(3)]
        for patch in patches:
            assert ingestor.offer(patch) == "admitted"
            assert scheduler.received[-1] is patch
        # Arrival order, not deadline order: the filter holds nothing.
        assert scheduler.received == patches
        assert ingestor.stats == {"admitted": 3, "expired_stale": 0, "expired_dead": 0}

    def test_stale_patch_expired_before_scheduler_sees_it(self):
        simulator = Simulator()
        scheduler = StubScheduler()
        ingestor = _ingestor(simulator, scheduler)
        stale = _patch(generation=0.0, slo=0.5)
        simulator.schedule_at(1.0, lambda _sim: ingestor.offer(stale))
        simulator.run()
        assert scheduler.received == []
        assert ingestor.expired_stale == 1


class TestDeadCameras:
    def test_delivery_from_dead_camera_rejected(self):
        simulator = Simulator()
        scheduler = StubScheduler()
        tracker = LivenessTracker(
            simulator, suspect_after=0.5, dead_after=1.0, reconnect_settle=0.2
        )
        tracker.register("cam-gone")
        ingestor = _ingestor(simulator, scheduler, liveness=tracker)
        verdicts = []
        simulator.schedule_at(
            2.0,
            lambda _sim: verdicts.append(
                ingestor.offer(_patch(camera="cam-gone", generation=1.9, slo=5.0))
            ),
        )
        simulator.run()
        assert verdicts == ["expired_dead"]

    def test_reconnected_camera_admits_again(self):
        simulator = Simulator()
        scheduler = StubScheduler()
        tracker = LivenessTracker(
            simulator, suspect_after=0.5, dead_after=1.0, reconnect_settle=0.1
        )
        tracker.register("cam-back")
        ingestor = _ingestor(simulator, scheduler, liveness=tracker)
        simulator.schedule_at(2.0, lambda _sim: tracker.sweep())
        simulator.schedule_at(2.1, lambda _sim: tracker.heartbeat("cam-back"))
        simulator.schedule_at(2.3, lambda _sim: tracker.heartbeat("cam-back"))
        verdicts = []
        simulator.schedule_at(
            2.4,
            lambda _sim: verdicts.append(
                ingestor.offer(_patch(camera="cam-back", generation=2.3, slo=5.0))
            ),
        )
        simulator.run()
        assert verdicts == ["admitted"]
        assert len(scheduler.received) == 1


class TestValidation:
    def test_stats_shape(self):
        ingestor = FleetIngestor(Simulator(), StubScheduler())
        assert set(ingestor.stats) == {"admitted", "expired_stale", "expired_dead"}
