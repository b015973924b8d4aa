"""Tests for the simulated detector (accuracy + latency models)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame, GroundTruthObject
from repro.video.geometry import Box
from repro.vision.detector import (
    DetectorAccuracyModel,
    DetectorLatencyModel,
    SimulatedDetector,
    resolution_accuracy_curve,
    visible_objects,
)
from repro.vision.metrics import average_precision


def _object(height: float, contrast: float = 0.9, oid: int = 0) -> GroundTruthObject:
    return GroundTruthObject(
        object_id=oid, box=Box(100 + 400 * oid, 300, height / 2, height), contrast=contrast
    )


def _frame(objects) -> Frame:
    return Frame(
        scene_key="scene_01", frame_index=0, timestamp=0.0,
        width=3840, height=2160, objects=tuple(objects),
    )


class TestLatencyModel:
    def test_latency_grows_with_pixels(self):
        model = DetectorLatencyModel.serverless()
        small = model.mean_latency(1, 0.5e6)
        large = model.mean_latency(1, 4.0e6)
        assert large > small

    def test_latency_grows_with_batch_size(self):
        model = DetectorLatencyModel.serverless()
        one = model.mean_latency(1, 1.05e6)
        four = model.mean_latency(4, 4 * 1.05e6)
        assert four > one

    def test_batching_is_sublinear_per_canvas(self):
        """Batching amortises overhead: 8 canvases cost less than 8x one."""
        model = DetectorLatencyModel.serverless()
        one = model.mean_latency(1, 1.05e6)
        eight = model.mean_latency(8, 8 * 1.05e6)
        assert eight < 8 * one

    def test_zero_batch_is_free(self):
        model = DetectorLatencyModel.serverless()
        assert model.mean_latency(0, 0.0) == 0.0

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError):
            DetectorLatencyModel.serverless().mean_latency(-1, 1e6)

    def test_single_canvas_latency_in_paper_range(self):
        """Fig. 14(a): per-batch execution latencies roughly 0.05-0.6 s."""
        model = DetectorLatencyModel.serverless()
        assert 0.05 <= model.mean_latency(1, 1024 * 1024) <= 0.3
        assert 0.2 <= model.mean_latency(9, 9 * 1024 * 1024) <= 0.8

    def test_iaas_single_camera_latency_near_paper_value(self):
        """Fig. 2(b): ~59 ms for one camera's RoIs on the resident GPU."""
        model = DetectorLatencyModel.iaas()
        latency = model.mean_latency(batch_size=100, total_pixels=0.45e6)
        assert 0.03 <= latency <= 0.09

    def test_sampled_latency_jitters_around_mean(self):
        model = DetectorLatencyModel.serverless()
        rng = np.random.default_rng(0)
        samples = [model.sample_latency(1, 1.05e6, rng) for _ in range(500)]
        assert np.mean(samples) == pytest.approx(model.mean_latency(1, 1.05e6), rel=0.05)
        assert np.std(samples) > 0

    def test_sample_without_rng_returns_mean(self):
        model = DetectorLatencyModel.serverless()
        assert model.sample_latency(2, 2e6) == model.mean_latency(2, 2e6)


class TestDetectionProbability:
    def test_large_high_contrast_object_is_detected_reliably(self):
        detector = SimulatedDetector(streams=RandomStreams(1))
        assert detector.detection_probability(_object(150, contrast=0.95)) > 0.8

    def test_probability_drops_when_input_downsized(self):
        """The Fig. 4(b) downsize effect."""
        detector = SimulatedDetector(streams=RandomStreams(1))
        obj = _object(90, contrast=0.9)
        native = detector.detection_probability(obj, input_scale=1.0)
        downsized = detector.detection_probability(obj, input_scale=480 / 2160)
        assert downsized < native * 0.8

    def test_low_res_model_penalised_on_upsized_input(self):
        """The Fig. 4(b) upsize effect."""
        detector = SimulatedDetector(
            accuracy=DetectorAccuracyModel.yolov8x_480p(), streams=RandomStreams(1)
        )
        obj = _object(90, contrast=0.9)
        at_native = detector.detection_probability(obj, input_scale=480 / 2160)
        at_4k = detector.detection_probability(obj, input_scale=1.0)
        assert at_4k < at_native

    def test_contrast_matters(self):
        detector = SimulatedDetector(streams=RandomStreams(1))
        assert detector.detection_probability(
            _object(120, contrast=0.95)
        ) > detector.detection_probability(_object(120, contrast=0.3))

    def test_zero_scale_gives_zero_probability(self):
        detector = SimulatedDetector(streams=RandomStreams(1))
        assert detector.detection_probability(_object(100), input_scale=0.0) == 0.0


class TestDetectOnRegions:
    def test_objects_outside_regions_are_never_detected(self):
        detector = SimulatedDetector(streams=RandomStreams(2))
        inside = _object(150, oid=0)
        outside = GroundTruthObject(object_id=1, box=Box(3000, 1800, 80, 160), contrast=0.9)
        frame = _frame([inside, outside])
        region = Box(0, 0, 1500, 1500)
        detections = detector.detect_in_regions(frame, [region])
        assert all(det.source_object_id != 1 for det in detections)

    def test_full_frame_detection_scores_reasonable_ap(self, scene01_frames):
        detector = SimulatedDetector(streams=RandomStreams(3))
        detections = []
        ground_truth = []
        for frame in scene01_frames[:8]:
            detections.extend(detector.detect_full_frame(frame))
            ground_truth.extend((frame.frame_index, obj.box) for obj in frame.objects)
        ap = average_precision(detections, ground_truth)
        assert 0.3 < ap < 0.95

    def test_detections_are_stamped_with_frame_id(self):
        detector = SimulatedDetector(streams=RandomStreams(4))
        frame = _frame([_object(200)])
        detections = detector.detect_full_frame(frame, frame_id=77)
        assert all(det.frame_id == 77 for det in detections)

    def test_false_positive_rate_scales_with_processed_area(self):
        detector = SimulatedDetector(streams=RandomStreams(5))
        few = sum(
            1
            for _ in range(50)
            for det in detector.detect_objects([], processed_pixels=0.1e6)
        )
        many = sum(
            1
            for _ in range(50)
            for det in detector.detect_objects([], processed_pixels=8e6)
        )
        assert many > few


class TestVisibleObjects:
    """The one rule for which objects a region carries."""

    def test_object_exactly_half_inside_one_region_is_visible(self):
        half = GroundTruthObject(object_id=0, box=Box(90, 0, 20, 10))
        under_half = GroundTruthObject(object_id=1, box=Box(90.5, 0, 20, 10))
        assert visible_objects([half, under_half], [Box(0, 0, 100, 100)]) == [half]

    def test_best_single_region_counts_not_the_union(self):
        # 40% inside each region, 80% inside the two together: an object
        # cut between two patches is lost, which Table III charges for.
        cut = GroundTruthObject(object_id=0, box=Box(60, 0, 100, 10))
        left, right = Box(0, 0, 100, 10), Box(120, 0, 100, 10)
        assert cut.box.intersection_area(left) == pytest.approx(0.4 * cut.box.area)
        assert cut.box.intersection_area(right) == pytest.approx(0.4 * cut.box.area)
        assert visible_objects([cut], [left, right]) == []
        assert visible_objects([cut], [Box(0, 0, 220, 10)]) == [cut]

    @pytest.mark.parametrize(
        "box",
        [
            Box(10, 10, 0, 10),
            Box(10, 10, 10, 0),
            Box(10, 10, math.inf, 0),
            Box(math.nan, 10, 10, 10),
            Box(10, math.nan, 10, 10),
        ],
        ids=["zero-width", "zero-height", "nan-area", "nan-x", "nan-y"],
    )
    def test_zero_area_or_nan_objects_are_never_visible(self, box):
        obj = GroundTruthObject(object_id=0, box=box)
        regions = [Box(0, 0, 1000, 1000), Box(-math.inf, -math.inf, math.inf, math.inf), box]
        assert visible_objects([obj], regions) == []

    def test_output_keeps_input_order(self):
        left, right = Box(0, 0, 100, 100), Box(500, 0, 100, 100)
        objects = [
            GroundTruthObject(object_id=3, box=Box(510, 10, 20, 20)),
            GroundTruthObject(object_id=1, box=Box(10, 10, 20, 20)),
            GroundTruthObject(object_id=2, box=Box(300, 10, 20, 20)),
            GroundTruthObject(object_id=0, box=Box(50, 50, 20, 20)),
        ]
        visible = visible_objects(objects, [left, right])
        assert [obj.object_id for obj in visible] == [3, 1, 0]


class TestResolutionAccuracyCurve:
    def test_downsize_curve_decreases(self, scene01_frames):
        curve = resolution_accuracy_curve(
            scene01_frames[:6], train_resolution="4K",
            eval_resolutions=["4K", "1080P", "480P"], streams=RandomStreams(6),
        )
        assert curve["4K"] > curve["1080P"] > curve["480P"]

    def test_upsize_curve_increases_toward_native(self, scene01_frames):
        curve = resolution_accuracy_curve(
            scene01_frames[:6], train_resolution="480P",
            eval_resolutions=["4K", "1080P", "480P"], streams=RandomStreams(7),
        )
        assert curve["480P"] > curve["4K"]

    def test_models_cross_over_as_in_fig4b(self, scene01_frames):
        """At 4K input the 4K model wins; at 480P input the 480P model wins."""
        frames = scene01_frames[:6]
        high = resolution_accuracy_curve(
            frames, "4K", ["4K", "480P"], streams=RandomStreams(8)
        )
        low = resolution_accuracy_curve(
            frames, "480P", ["4K", "480P"], streams=RandomStreams(8)
        )
        assert high["4K"] > low["4K"]
        assert low["480P"] > high["480P"]

    def test_unknown_resolution_rejected(self, scene01_frames):
        with pytest.raises(KeyError):
            resolution_accuracy_curve(scene01_frames[:2], train_resolution="8K")
        with pytest.raises(KeyError):
            resolution_accuracy_curve(
                scene01_frames[:2], train_resolution="4K", eval_resolutions=["360P"]
            )
