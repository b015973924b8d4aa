"""Tests for the offline-profiled latency estimator."""

from __future__ import annotations

import pytest

from repro.core.latency import LatencyEstimator
from repro.core.stitching import Canvas, equivalent_canvases
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel
from tests.conftest import make_patch


def _estimator(iterations: int = 100, **kwargs) -> LatencyEstimator:
    return LatencyEstimator(
        latency_model=DetectorLatencyModel.serverless(),
        iterations=iterations,
        streams=RandomStreams(3),
        **kwargs,
    )


def _canvases(count: int, size: float = 1024.0) -> list[Canvas]:
    canvases = []
    for index in range(count):
        canvas = Canvas(width=size, height=size, canvas_id=index)
        canvas.try_place(make_patch(300, 300))
        canvases.append(canvas)
    return canvases


def test_profile_records_mean_and_std():
    estimator = _estimator()
    profile = estimator.profile(2)
    assert profile.batch_size == 2
    assert profile.mean > 0
    assert profile.std > 0
    assert profile.samples == 100


def test_profiles_are_cached():
    estimator = _estimator()
    assert estimator.profile(3) is estimator.profile(3)


def test_slack_is_mean_plus_three_sigma():
    estimator = _estimator()
    profile = estimator.profile(4)
    assert estimator.slack_time(4) == pytest.approx(profile.mean + 3 * profile.std)


def test_slack_exceeds_most_sampled_latencies():
    """The whole point of mu + 3 sigma: nearly every execution fits in it."""
    estimator = _estimator(iterations=300)
    slack = estimator.slack_time(4)
    model = DetectorLatencyModel.serverless()
    rng = RandomStreams(99).get("check")
    samples = [model.sample_latency(4, 4 * 1024 * 1024, rng) for _ in range(1000)]
    violations = sum(1 for sample in samples if sample > slack)
    assert violations / len(samples) < 0.02


def test_slack_grows_with_batch_size():
    estimator = _estimator()
    assert estimator.slack_time(8) > estimator.slack_time(2) > estimator.slack_time(1)


def _slack_of(estimator: LatencyEstimator, canvases: list[Canvas]) -> float:
    """The slack the scheduler asks for: that of the packing's
    standard-canvas equivalent count."""
    return estimator.slack_time(equivalent_canvases(canvases, estimator.canvas_pixels))


def test_estimate_counts_canvases(sample_patches):
    estimator = _estimator()
    assert _slack_of(estimator, []) == 0.0
    assert _slack_of(estimator, _canvases(3)) == estimator.slack_time(3)


def test_oversized_canvas_charged_as_multiple_canvases():
    estimator = _estimator()
    oversized = Canvas(width=2048, height=1536, canvas_id=0, oversized=True)
    oversized.try_place(make_patch(2000, 1500))
    # 2048*1536 / (1024*1024) = 3 equivalent canvases.
    assert _slack_of(estimator, [oversized]) == estimator.slack_time(3)


def test_sigma_multiplier_is_configurable():
    cautious = _estimator(sigma_multiplier=5.0)
    standard = _estimator(sigma_multiplier=3.0)
    assert cautious.slack_time(2) > standard.slack_time(2)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        _estimator(iterations=1)
    with pytest.raises(ValueError):
        _estimator().profile(0)
    # Fractional and NaN counts used to fail in ``range()`` at the first
    # profile, mid-run; a NaN multiplier made every slack NaN.
    for iterations in (2.5, float("nan")):
        with pytest.raises(ValueError):
            _estimator(iterations=iterations)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _estimator(sigma_multiplier=sigma)


def test_zero_batch_slack_is_zero():
    assert _estimator().slack_time(0) == 0.0
