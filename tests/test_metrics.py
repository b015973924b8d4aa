"""Tests for the detection evaluation metrics."""

from __future__ import annotations

import pytest

from repro.video.geometry import Box
from repro.vision.metrics import (
    Detection,
    average_precision,
    match_detections,
    precision_recall,
)


def _det(box: Box, confidence: float, frame_id: int = 0) -> Detection:
    return Detection(box=box, confidence=confidence, frame_id=frame_id)


def test_perfect_detections_give_ap_one():
    ground_truth = [(0, Box(0, 0, 10, 10)), (0, Box(50, 50, 10, 10))]
    detections = [_det(Box(0, 0, 10, 10), 0.9), _det(Box(50, 50, 10, 10), 0.8)]
    assert average_precision(detections, ground_truth) == pytest.approx(1.0)


def test_no_detections_give_ap_zero():
    ground_truth = [(0, Box(0, 0, 10, 10))]
    assert average_precision([], ground_truth) == 0.0


def test_no_ground_truth_and_no_detections_is_perfect():
    assert average_precision([], []) == 1.0


def test_no_ground_truth_with_detections_is_zero():
    assert average_precision([_det(Box(0, 0, 5, 5), 0.5)], []) == 0.0


def test_false_positives_lower_ap():
    ground_truth = [(0, Box(0, 0, 10, 10))]
    clean = [_det(Box(0, 0, 10, 10), 0.9)]
    noisy = clean + [_det(Box(100, 100, 10, 10), 0.95)]
    assert average_precision(noisy, ground_truth) < average_precision(clean, ground_truth)


def test_missed_objects_lower_ap():
    ground_truth = [(0, Box(0, 0, 10, 10)), (0, Box(50, 50, 10, 10))]
    detections = [_det(Box(0, 0, 10, 10), 0.9)]
    ap = average_precision(detections, ground_truth)
    assert ap == pytest.approx(0.5, abs=0.01)


def test_detection_in_wrong_frame_does_not_match():
    ground_truth = [(0, Box(0, 0, 10, 10))]
    detections = [_det(Box(0, 0, 10, 10), 0.9, frame_id=1)]
    assert average_precision(detections, ground_truth) == 0.0


def test_iou_threshold_controls_matching():
    ground_truth = [(0, Box(0, 0, 10, 10))]
    shifted = [_det(Box(4, 0, 10, 10), 0.9)]  # IoU = 6/14 ~ 0.43
    assert average_precision(shifted, ground_truth, iou_threshold=0.5) == 0.0
    assert average_precision(shifted, ground_truth, iou_threshold=0.4) == pytest.approx(1.0)


def test_duplicate_detections_count_as_false_positive():
    ground_truth = [(0, Box(0, 0, 10, 10))]
    detections = [_det(Box(0, 0, 10, 10), 0.9), _det(Box(1, 0, 10, 10), 0.8)]
    match = match_detections(detections, ground_truth)
    assert match.true_positives.sum() == 1
    assert match.false_positives.sum() == 1


def test_matching_prefers_higher_confidence_detection():
    ground_truth = [(0, Box(0, 0, 10, 10))]
    detections = [
        _det(Box(0, 0, 10, 10), 0.5),
        _det(Box(0, 0, 10, 10), 0.9),
    ]
    match = match_detections(detections, ground_truth)
    matched_detection_indices = [pair[0] for pair in match.matched_pairs]
    assert matched_detection_indices == [1]


def test_precision_recall_curve_shapes():
    ground_truth = [(0, Box(0, 0, 10, 10)), (0, Box(50, 50, 10, 10))]
    detections = [
        _det(Box(0, 0, 10, 10), 0.9),
        _det(Box(200, 200, 10, 10), 0.7),
        _det(Box(50, 50, 10, 10), 0.6),
    ]
    precision, recall = precision_recall(match_detections(detections, ground_truth))
    assert len(precision) == len(recall) == 3
    assert recall[-1] == pytest.approx(1.0)
    assert precision[0] == pytest.approx(1.0)


def test_ap_is_monotone_in_detection_quality(scene01_frames):
    """Detections from ground truth with noise score higher than random."""
    import numpy as np

    rng = np.random.default_rng(0)
    frame = scene01_frames[0]
    ground_truth = [(frame.frame_index, obj.box) for obj in frame.objects]
    good = [
        Detection(box=obj.box, confidence=float(rng.uniform(0.5, 1.0)), frame_id=frame.frame_index)
        for obj in frame.objects
    ]
    random_boxes = [
        Detection(
            box=Box(float(rng.uniform(0, 3000)), float(rng.uniform(0, 1800)), 60, 120),
            confidence=float(rng.uniform(0.5, 1.0)),
            frame_id=frame.frame_index,
        )
        for _ in frame.objects
    ]
    assert average_precision(good, ground_truth) > average_precision(
        random_boxes, ground_truth
    )
