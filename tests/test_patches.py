"""Tests for the Patch record."""

from __future__ import annotations

import pytest

from repro.core.patches import Patch
from repro.video.geometry import Box


def _patch(**kwargs) -> Patch:
    defaults = dict(
        camera_id="camera-0",
        frame_index=3,
        region=Box(100, 200, 300, 400),
        generation_time=10.0,
        slo=1.0,
    )
    defaults.update(kwargs)
    return Patch(**defaults)


def test_dimensions_derive_from_region():
    patch = _patch()
    assert patch.width == 300
    assert patch.height == 400
    assert patch.area == 120000


def test_deadline_is_generation_time_plus_slo():
    patch = _patch(generation_time=5.0, slo=0.8)
    assert patch.deadline == pytest.approx(5.8)


def test_remaining_and_waiting_time():
    patch = _patch(generation_time=10.0, slo=1.0)
    assert patch.remaining_time(10.4) == pytest.approx(0.6)
    assert patch.waiting_time(10.4) == pytest.approx(0.4)


def test_fits_on_canvas():
    patch = _patch(region=Box(0, 0, 800, 900))
    assert patch.fits_on(1024, 1024)
    assert not patch.fits_on(1024, 800)
    assert not patch.fits_on(700, 1024)


def test_patch_ids_are_unique():
    ids = {_patch().patch_id for _ in range(50)}
    assert len(ids) == 50


def test_invalid_slo_rejected():
    with pytest.raises(ValueError):
        _patch(slo=0.0)


def test_negative_generation_time_rejected():
    with pytest.raises(ValueError):
        _patch(generation_time=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("slo", float("nan")),
        ("slo", float("inf")),
        ("generation_time", float("nan")),
        ("generation_time", float("inf")),
    ],
)
def test_non_finite_times_rejected(field, value):
    # Each used to build a patch whose deadline is NaN or infinite.
    with pytest.raises(ValueError):
        _patch(**{field: value})


def test_patch_is_hashable_and_frozen():
    patch = _patch()
    with pytest.raises(AttributeError):
        patch.slo = 2.0  # type: ignore[misc]
