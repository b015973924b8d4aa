"""Property-based tests for system-level invariants: partitioning coverage,
billing monotonicity, estimator conservatism, and scheduler accounting."""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning import partition_rois
from repro.serverless.cost import AlibabaCostModel, FunctionResources
from repro.video.geometry import Box

#: Example-count multiplier: tier-1 runs a shallow search, and
#: ``RUN_CHAOS=1`` (CI's chaos job) ten times as many examples.
CHAOS = 10 if os.environ.get("RUN_CHAOS") else 1

roi_boxes = st.builds(
    Box,
    x=st.floats(min_value=0.0, max_value=3700.0, allow_nan=False),
    y=st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
    width=st.floats(min_value=5.0, max_value=300.0, allow_nan=False),
    height=st.floats(min_value=5.0, max_value=400.0, allow_nan=False),
)


@settings(max_examples=60 * CHAOS, deadline=None)
@given(st.lists(roi_boxes, min_size=0, max_size=60), st.integers(min_value=1, max_value=8))
def test_partition_covers_every_roi(rois, zones):
    """Algorithm 1 invariant: every RoI is (almost entirely) inside some
    patch -- the enclosing-rectangle resize never drops an affiliated RoI."""
    patches = partition_rois(3840, 2160, zones, zones, rois)
    for roi in rois:
        clipped = roi.clip_to(3840, 2160)
        if clipped is None or clipped.area <= 0:
            continue
        covered = max(
            (clipped.intersection_area(patch) / clipped.area for patch in patches),
            default=0.0,
        )
        assert covered > 0.99


@settings(max_examples=60 * CHAOS, deadline=None)
@given(st.lists(roi_boxes, min_size=0, max_size=60), st.integers(min_value=1, max_value=8))
def test_partition_patch_count_bounded_by_zone_count(rois, zones):
    patches = partition_rois(3840, 2160, zones, zones, rois)
    assert len(patches) <= zones * zones


@settings(max_examples=60 * CHAOS, deadline=None)
@given(st.lists(roi_boxes, min_size=1, max_size=40))
def test_partition_total_area_not_less_than_roi_area_union_bound(rois):
    """Patches enclose their RoIs, so the patch area is at least the area
    of the largest RoI."""
    patches = partition_rois(3840, 2160, 4, 4, rois)
    largest_roi = max(roi.clip_to(3840, 2160).area for roi in rois if roi.clip_to(3840, 2160))
    assert sum(patch.area for patch in patches) >= largest_roi - 1e-6


@settings(max_examples=100 * CHAOS, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_billing_is_monotone_in_execution_time(t1, t2):
    model = AlibabaCostModel()
    low, high = sorted((t1, t2))
    assert model.invocation_cost(low) <= model.invocation_cost(high) + 1e-12


@settings(max_examples=50 * CHAOS, deadline=None)
@given(
    st.floats(min_value=0.001, max_value=60.0, allow_nan=False),
    st.integers(min_value=1, max_value=8),
)
def test_billed_duration_never_undercharges(execution_time, granularity_ms):
    model = AlibabaCostModel(round_up_to=granularity_ms / 1000.0)
    billed = model.billed_duration(execution_time)
    assert billed >= execution_time - 1e-9
    assert billed <= execution_time + granularity_ms / 1000.0 + 1e-9


@settings(max_examples=50 * CHAOS, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=16.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=16.0, allow_nan=False),
)
def test_one_big_invocation_cheaper_than_two_small(t1, t2):
    """Batching argument: merging two invocations into one of the summed
    duration always saves at least the request fee."""
    model = AlibabaCostModel(round_up_to=0.0)
    merged = model.invocation_cost(t1 + t2)
    separate = model.invocation_cost(t1) + model.invocation_cost(t2)
    assert merged < separate


@settings(max_examples=30 * CHAOS, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_latency_estimator_slack_is_conservative(batch_size):
    """For any batch size, mu + 3 sigma covers the overwhelming majority of
    sampled execution times."""
    from repro.core.latency import LatencyEstimator
    from repro.simulation.random_streams import RandomStreams
    from repro.vision.detector import DetectorLatencyModel

    model = DetectorLatencyModel.serverless()
    estimator = LatencyEstimator(
        latency_model=model, iterations=200, streams=RandomStreams(batch_size)
    )
    slack = estimator.slack_time(batch_size)
    rng = RandomStreams(1000 + batch_size).get("samples")
    pixels = batch_size * 1024 * 1024
    samples = [model.sample_latency(batch_size, pixels, rng) for _ in range(400)]
    violation_rate = sum(1 for sample in samples if sample > slack) / len(samples)
    assert violation_rate < 0.05


@settings(max_examples=25 * CHAOS, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=4.0, max_value=24.0, allow_nan=False),
)
def test_resource_cost_rate_scales_with_gpu_memory(vcpu, gpu_memory):
    base = FunctionResources(vcpu=vcpu, memory_gb=4.0, gpu_memory_gb=gpu_memory)
    bigger = FunctionResources(vcpu=vcpu, memory_gb=4.0, gpu_memory_gb=gpu_memory + 1.0)
    assert bigger.cost_rate_per_second > base.cost_rate_per_second
