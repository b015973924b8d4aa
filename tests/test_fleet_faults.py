"""Tests for the seeded fault-plan generator."""

from __future__ import annotations

import pytest

from repro.fleet.faults import (
    BURST,
    DROPOUT,
    JITTER,
    LOSS,
    FaultEvent,
    FaultFreePlan,
    FaultPlan,
)

CAMERAS = [f"cam-{i:03d}" for i in range(16)]


_NAN = float("nan")
_INF = float("inf")


def _plan(intensity=1.0, seed=29, duration=10.0, **kwargs):
    defaults = dict(
        dropout_fraction=0.5,
        loss_probability=0.2,
        jitter_s=0.05,
        burst_count=4,
        burst_multiplier=3.0,
    )
    defaults.update(kwargs)
    return FaultPlan.generate(
        seed=seed, camera_ids=CAMERAS, duration=duration, intensity=intensity, **defaults
    )


def _event(kind, magnitude):
    return FaultEvent(kind=kind, start=0.0, end=1.0, magnitude=magnitude)


class TestGeneration:
    def test_same_seed_same_plan(self):
        assert _plan() == _plan()

    def test_different_seed_different_plan(self):
        assert _plan(seed=29) != _plan(seed=30)

    def test_zero_intensity_is_fault_free(self):
        plan = _plan(intensity=0.0)
        assert plan.events == ()
        assert plan.describe()["events"] == {k: 0 for k in (DROPOUT, LOSS, JITTER, BURST)}

    def test_intensity_nests_dropout_cameras(self):
        previous = set()
        for intensity in (0.2, 0.4, 0.6, 0.8, 1.0):
            current = set(_plan(intensity=intensity).dropout_cameras())
            assert previous <= current
            previous = current
        assert previous  # full intensity with fraction 0.5 selects someone

    def test_intensity_scales_magnitudes(self):
        half = _plan(intensity=0.5)
        full = _plan(intensity=1.0)
        assert half.loss_probability("cam-000", 5.0) == pytest.approx(0.1)
        assert full.loss_probability("cam-000", 5.0) == pytest.approx(0.2)
        assert half.extra_jitter("cam-000", 5.0) == pytest.approx(0.025)
        assert full.burst_multiplier(
            next(e.start for e in full.events if e.kind == BURST)
        ) == pytest.approx(3.0)

    def test_burst_candidates_are_a_prefix(self):
        half = [e for e in _plan(intensity=0.5).events if e.kind == BURST]
        full = [e for e in _plan(intensity=1.0).events if e.kind == BURST]
        assert len(half) == 2 and len(full) == 4
        assert {e.start for e in half} <= {e.start for e in full}

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.generate(seed=1, camera_ids=CAMERAS, duration=0.0)
        with pytest.raises(ValueError):
            _plan(intensity=1.5)
        with pytest.raises(ValueError):
            _plan(dropout_fraction=2.0)
        with pytest.raises(ValueError):
            _plan(loss_probability=1.5)
        with pytest.raises(ValueError):
            FaultEvent(kind="meteor", start=0.0, end=1.0)
        with pytest.raises(ValueError):
            FaultEvent(kind=DROPOUT, start=2.0, end=1.0)

    @pytest.mark.parametrize(
        "build",
        [
            # Each was accepted: it either built NaN or infinite windows
            # or silently dropped the fault.
            pytest.param(lambda: _plan(duration=_NAN), id="duration-nan"),
            pytest.param(lambda: _plan(duration=_INF), id="duration-inf"),
            pytest.param(lambda: _plan(dropout_duration=_NAN), id="dropout_duration-nan"),
            pytest.param(lambda: _plan(burst_duration=_NAN), id="burst_duration-nan"),
            pytest.param(lambda: _plan(jitter_s=-0.1), id="jitter-negative"),
            pytest.param(lambda: _plan(jitter_s=_NAN), id="jitter-nan"),
            pytest.param(lambda: _plan(burst_multiplier=0.5), id="burst_multiplier-below-one"),
            pytest.param(lambda: _plan(burst_multiplier=_NAN), id="burst_multiplier-nan"),
            pytest.param(lambda: _plan(burst_count=-1), id="burst_count-negative"),
            pytest.param(lambda: FaultEvent(kind=DROPOUT, start=_NAN, end=1.0), id="start-nan"),
            pytest.param(lambda: FaultEvent(kind=DROPOUT, start=0.0, end=_NAN), id="end-nan"),
            # Hand-built windows: a NaN loss lost nothing, a loss above 1
            # was a certain loss, and a NaN burst raised mid-run.
            pytest.param(lambda: _event(LOSS, _NAN), id="loss-nan"),
            pytest.param(lambda: _event(LOSS, -0.1), id="loss-negative"),
            pytest.param(lambda: _event(LOSS, 1.5), id="loss-above-one"),
            pytest.param(lambda: _event(JITTER, _NAN), id="jitter-magnitude-nan"),
            pytest.param(lambda: _event(JITTER, -0.1), id="jitter-magnitude-negative"),
            pytest.param(lambda: _event(JITTER, _INF), id="jitter-magnitude-inf"),
            pytest.param(lambda: _event(BURST, _NAN), id="burst-magnitude-nan"),
            pytest.param(lambda: _event(BURST, 0.5), id="burst-magnitude-below-one"),
            pytest.param(lambda: _event(BURST, _INF), id="burst-magnitude-inf"),
        ],
    )
    def test_malformed_plans_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_magnitude_range_edges_accepted(self):
        for kind, magnitude in ((LOSS, 0.0), (LOSS, 1.0), (JITTER, 0.0), (BURST, 1.0)):
            assert _event(kind, magnitude).magnitude == magnitude
        # A dropout reads no magnitude, so none is rejected.
        _event(DROPOUT, _NAN)


class TestQueries:
    def test_camera_down_only_inside_window(self):
        plan = _plan(dropout_fraction=1.0, dropout_duration=2.0)
        event = next(e for e in plan.events if e.kind == DROPOUT)
        camera = event.camera_id
        mid = (event.start + event.end) / 2.0
        assert plan.camera_down(camera, mid)
        assert not plan.camera_down(camera, event.end + 0.01)

    def test_dropout_windows_target_single_cameras(self):
        plan = _plan(dropout_fraction=1.0)
        events = [e for e in plan.events if e.kind == DROPOUT]
        assert len(events) == len(CAMERAS)
        assert {e.camera_id for e in events} == set(CAMERAS)

    def test_fleet_wide_events_cover_every_camera(self):
        plan = _plan()
        for camera in CAMERAS:
            assert plan.loss_probability(camera, 5.0) == pytest.approx(0.2)
            assert plan.extra_jitter(camera, 5.0) == pytest.approx(0.05)

    def test_burst_multiplier_outside_windows_is_one(self):
        plan = _plan(burst_count=0)
        assert plan.burst_multiplier(5.0) == 1.0

    def test_dials_are_time_varying_callables(self):
        plan = _plan(dropout_fraction=0.0, burst_count=0)
        dial = plan.loss_dial("cam-000")
        assert dial(5.0) == pytest.approx(0.2)
        assert dial(plan.duration + 1.0) == 0.0  # events end with the run


class TestFaultFreePlan:
    def test_all_queries_healthy(self):
        plan = FaultFreePlan()
        assert not plan.camera_down("cam-000", 1.0)
        assert plan.loss_probability("cam-000", 1.0) == 0.0
        assert plan.extra_jitter("cam-000", 1.0) == 0.0
        assert plan.burst_multiplier(1.0) == 1.0
        assert plan.loss_dial("cam-000") == 0.0
        assert plan.dropout_cameras() == []
        assert plan.describe()["intensity"] == 0.0
