"""Tests for the analytic RoI extractors (Table IV error models)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame, GroundTruthObject
from repro.video.geometry import Box
from repro.vision.detector import visible_objects
from repro.vision.roi_extractors import (
    EXTRACTOR_PROFILES,
    AnalyticRoIExtractor,
    make_extractor,
)


def _frame_with_objects(objects) -> Frame:
    return Frame(
        scene_key="scene_01",
        frame_index=0,
        timestamp=0.0,
        width=3840,
        height=2160,
        objects=tuple(objects),
    )


def _object(height: float, contrast: float = 0.9, motion: float = 5.0, oid: int = 0):
    width = height / 2
    return GroundTruthObject(
        object_id=oid,
        box=Box(500 + 300 * oid, 500, width, height),
        contrast=contrast,
        motion=motion,
    )


def test_all_four_profiles_exist():
    assert set(EXTRACTOR_PROFILES) == {
        "gmm",
        "optical_flow",
        "ssdlite_mobilenetv2",
        "yolov3_mobilenetv2",
    }


def test_make_extractor_unknown_name_raises():
    with pytest.raises(KeyError):
        make_extractor("resnet")


def test_large_moving_object_almost_always_detected():
    extractor = make_extractor("gmm", streams=RandomStreams(1))
    probability = extractor.detection_probability(_object(height=200, motion=8.0))
    assert probability > 0.85


def test_tiny_object_rarely_detected():
    extractor = make_extractor("gmm", streams=RandomStreams(1))
    probability = extractor.detection_probability(_object(height=12, motion=8.0))
    assert probability < 0.35


def test_stationary_object_penalised_by_motion_based_extractors():
    gmm = make_extractor("gmm", streams=RandomStreams(1))
    flow = make_extractor("optical_flow", streams=RandomStreams(1))
    moving = _object(height=150, motion=8.0)
    stationary = _object(height=150, motion=0.0)
    assert gmm.detection_probability(stationary) < gmm.detection_probability(moving)
    # Optical flow is essentially blind to stationary objects.
    assert flow.detection_probability(stationary) < 0.25


def test_lightweight_detectors_ignore_motion():
    ssd = make_extractor("ssdlite_mobilenetv2", streams=RandomStreams(1))
    moving = _object(height=150, motion=8.0)
    stationary = _object(height=150, motion=0.0)
    assert ssd.detection_probability(stationary) == pytest.approx(
        ssd.detection_probability(moving)
    )


def test_lightweight_detectors_miss_small_objects_more_than_gmm():
    gmm = make_extractor("gmm", streams=RandomStreams(1))
    yolo = make_extractor("yolov3_mobilenetv2", streams=RandomStreams(1))
    small = _object(height=45, motion=8.0)
    assert yolo.detection_probability(small) < gmm.detection_probability(small)


def test_extract_returns_clipped_boxes_inside_frame():
    extractor = make_extractor("optical_flow", streams=RandomStreams(3))
    frame = _frame_with_objects([_object(height=180, oid=i) for i in range(10)])
    for box in extractor.extract(frame):
        assert box.x >= 0 and box.y >= 0
        assert box.x2 <= frame.width + 1e-6
        assert box.y2 <= frame.height + 1e-6


def test_extraction_recall_reasonable_for_gmm(scene01_frames):
    extractor = make_extractor("gmm", streams=RandomStreams(5))
    recalls = []
    for frame in scene01_frames[5:15]:
        rois = extractor.extract(frame)
        recalls.append(len(visible_objects(frame.objects, rois)) / frame.num_objects)
    assert np.mean(recalls) > 0.5


def test_optical_flow_transmits_more_area_than_gmm(scene01_frames):
    """Table IV: optical flow is the least bandwidth-efficient extractor."""
    gmm = make_extractor("gmm", streams=RandomStreams(6))
    flow = make_extractor("optical_flow", streams=RandomStreams(6))
    gmm_area = 0.0
    flow_area = 0.0
    for frame in scene01_frames[:10]:
        gmm_area += sum(b.area for b in gmm.extract(frame))
        flow_area += sum(b.area for b in flow.extract(frame))
    assert flow_area > gmm_area * 0.9


def test_extraction_is_deterministic_for_fixed_seed(scene01_frames):
    frame = scene01_frames[3]
    a = make_extractor("gmm", streams=RandomStreams(9)).extract(frame)
    b = make_extractor("gmm", streams=RandomStreams(9)).extract(frame)
    assert [box.as_tuple() for box in a] == [box.as_tuple() for box in b]


def test_false_positives_possible_on_empty_frame():
    extractor = make_extractor("ssdlite_mobilenetv2", streams=RandomStreams(11))
    empty = _frame_with_objects([])
    # Over many empty frames, at least one spurious RoI should appear
    # (Poisson rate is 3 per frame for this profile).
    total = sum(len(extractor.extract(empty)) for _ in range(20))
    assert total > 0


def test_detection_probability_clipped_to_unit_interval():
    extractor = AnalyticRoIExtractor(EXTRACTOR_PROFILES["gmm"], streams=RandomStreams(2))
    probability = extractor.detection_probability(_object(height=1000, contrast=1.0))
    assert 0.0 <= probability <= 1.0
