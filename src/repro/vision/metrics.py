"""Object-detection evaluation metrics.

The paper reports AP@0.5 ("average precision", IoU threshold 0.5) for every
accuracy experiment (Fig. 2(a), Fig. 4(b), Table III, Table IV).  This
module implements the standard evaluation protocol: detections are sorted
by confidence, greedily matched to ground-truth boxes at an IoU threshold,
and the average precision is the area under the resulting interpolated
precision-recall curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.video.geometry import Box


@dataclass(frozen=True)
class Detection:
    """A single detector output."""

    box: Box
    confidence: float
    #: Identifier of the frame the detection belongs to.  Evaluation across
    #: a scene concatenates detections of many frames, so matching must not
    #: cross frame boundaries.
    frame_id: int = 0
    #: Ground-truth object id when the simulated detector produced the
    #: detection from a known object (``None`` for false positives).
    source_object_id: Optional[int] = None


@dataclass
class MatchResult:
    """Outcome of matching detections against ground truth."""

    true_positives: np.ndarray
    false_positives: np.ndarray
    confidences: np.ndarray
    num_ground_truth: int
    matched_pairs: List[Tuple[int, int]] = field(default_factory=list)


def match_detections(
    detections: Sequence[Detection],
    ground_truth: Sequence[Tuple[int, Box]],
    iou_threshold: float = 0.5,
) -> MatchResult:
    """Greedy confidence-ordered matching of detections to ground truth.

    Parameters
    ----------
    detections:
        Detector outputs across one or more frames.
    ground_truth:
        ``(frame_id, box)`` pairs for every annotated object.
    iou_threshold:
        Minimum IoU for a detection to claim a ground-truth box.
    """
    order = np.argsort([-d.confidence for d in detections], kind="stable")
    num_gt = len(ground_truth)
    gt_by_frame: dict[int, list[tuple[int, Box]]] = {}
    for gt_index, (frame_id, box) in enumerate(ground_truth):
        gt_by_frame.setdefault(frame_id, []).append((gt_index, box))

    claimed = np.zeros(num_gt, dtype=bool)
    tp = np.zeros(len(detections), dtype=np.float64)
    fp = np.zeros(len(detections), dtype=np.float64)
    confidences = np.zeros(len(detections), dtype=np.float64)
    matched_pairs: List[Tuple[int, int]] = []

    for rank, det_index in enumerate(order):
        detection = detections[det_index]
        confidences[rank] = detection.confidence
        candidates = gt_by_frame.get(detection.frame_id, [])
        best_iou = 0.0
        best_gt = -1
        for gt_index, gt_box in candidates:
            if claimed[gt_index]:
                continue
            iou = detection.box.iou(gt_box)
            if iou > best_iou:
                best_iou = iou
                best_gt = gt_index
        if best_gt >= 0 and best_iou >= iou_threshold:
            claimed[best_gt] = True
            tp[rank] = 1.0
            matched_pairs.append((det_index, best_gt))
        else:
            fp[rank] = 1.0

    return MatchResult(
        true_positives=tp,
        false_positives=fp,
        confidences=confidences,
        num_ground_truth=num_gt,
        matched_pairs=matched_pairs,
    )


def precision_recall(match: MatchResult) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative precision and recall curves from a match result."""
    tp_cum = np.cumsum(match.true_positives)
    fp_cum = np.cumsum(match.false_positives)
    denominator = np.maximum(tp_cum + fp_cum, 1e-12)
    precision = tp_cum / denominator
    if match.num_ground_truth == 0:
        recall = np.zeros_like(tp_cum)
    else:
        recall = tp_cum / match.num_ground_truth
    return precision, recall


def average_precision(
    detections: Sequence[Detection],
    ground_truth: Sequence[Tuple[int, Box]],
    iou_threshold: float = 0.5,
) -> float:
    """AP@``iou_threshold`` with continuous (all-points) interpolation.

    Returns 0.0 when there is no ground truth and no detections raise no
    error -- an empty scene is trivially scored.
    """
    if not ground_truth:
        return 0.0 if detections else 1.0
    if not detections:
        return 0.0
    match = match_detections(detections, ground_truth, iou_threshold)
    precision, recall = precision_recall(match)

    # Standard VOC-style envelope: make precision monotonically
    # non-increasing, then integrate over recall.
    recall = np.concatenate([[0.0], recall, [recall[-1]]])
    precision = np.concatenate([[1.0], precision, [0.0]])
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    recall_change = np.where(np.diff(recall) > 0)[0]
    return float(np.sum(np.diff(recall)[recall_change] * precision[1:][recall_change]))
