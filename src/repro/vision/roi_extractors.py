"""Analytic RoI extractors emulating the methods compared in Table IV.

The pipeline works on ground-truth geometry at native 4K coordinates and
renders no pixels.  Each extractor applies the characteristic error profile
of its extraction family to the ground-truth boxes:

* **GMM background subtraction** -- misses stationary, tiny and
  low-contrast objects; produces slightly loose boxes; occasionally merges
  nearby objects into one blob; a few false-positive blobs from
  illumination noise.
* **Optical flow** -- only sees moving objects; boxes are looser (motion
  blur over two frames), so it is the least bandwidth-efficient.
* **SSDLite-MobileNetV2 / Yolov3-MobileNetV2** -- lightweight detectors
  that run on a downsized frame, so recall collapses for small objects;
  boxes are tight when found.

The per-method parameters are calibrated so that the downstream AP and
bandwidth numbers land near Table IV of the paper; Table IV is their only
anchor.  A pixel-level Stauffer-Grimson model was measured against the
``gmm`` profile and could not anchor it: it was blind to object contrast,
and its recall and false positives moved only with its hand-set learning
rate and render size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame, GroundTruthObject
from repro.video.geometry import Box, clip_rect, merge_overlapping


@dataclass(frozen=True)
class ExtractorProfile:
    """Error-model parameters of one RoI extraction method."""

    name: str
    #: Smallest object height (pixels at 4K) reliably picked up.
    min_height: float
    #: Softness of the size cut-off; larger means a more gradual roll-off.
    height_softness: float
    #: Recall multiplier applied to objects moving less than
    #: ``motion_threshold`` pixels per frame (1.0 = motion is irrelevant).
    stationary_recall: float
    #: Displacement below which an object counts as stationary.
    motion_threshold: float
    #: Weight of the object's contrast in its recall.
    contrast_weight: float
    #: Baseline recall for large, moving, high-contrast objects.
    base_recall: float
    #: Boxes are expanded by this relative margin on each side (loose
    #: foreground masks transmit more pixels).
    box_margin: float
    #: Standard deviation of box-corner jitter relative to box size.
    box_jitter: float
    #: Expected number of spurious RoIs per frame.
    false_positives_per_frame: float
    #: Mean area (pixels) of a spurious RoI.
    false_positive_area: float
    #: Probability that two heavily-overlapping objects merge into one blob.
    merge_probability: float


#: Profiles calibrated to Table IV (RoI-only AP / +Partition AP / bandwidth).
EXTRACTOR_PROFILES: Dict[str, ExtractorProfile] = {
    "gmm": ExtractorProfile(
        name="gmm",
        min_height=28.0,
        height_softness=14.0,
        stationary_recall=0.55,
        motion_threshold=1.0,
        contrast_weight=0.55,
        base_recall=0.97,
        box_margin=0.05,
        box_jitter=0.04,
        false_positives_per_frame=1.0,
        false_positive_area=2200.0,
        merge_probability=0.20,
    ),
    "optical_flow": ExtractorProfile(
        name="optical_flow",
        min_height=30.0,
        height_softness=16.0,
        stationary_recall=0.15,
        motion_threshold=1.5,
        contrast_weight=0.35,
        base_recall=0.96,
        box_margin=0.22,
        box_jitter=0.09,
        false_positives_per_frame=2.5,
        false_positive_area=4200.0,
        merge_probability=0.45,
    ),
    "ssdlite_mobilenetv2": ExtractorProfile(
        name="ssdlite_mobilenetv2",
        min_height=60.0,
        height_softness=30.0,
        stationary_recall=1.0,
        motion_threshold=0.0,
        contrast_weight=0.40,
        base_recall=0.93,
        box_margin=0.28,
        box_jitter=0.04,
        false_positives_per_frame=3.0,
        false_positive_area=6000.0,
        merge_probability=0.10,
    ),
    "yolov3_mobilenetv2": ExtractorProfile(
        name="yolov3_mobilenetv2",
        min_height=75.0,
        height_softness=35.0,
        stationary_recall=1.0,
        motion_threshold=0.0,
        contrast_weight=0.45,
        base_recall=0.90,
        box_margin=0.08,
        box_jitter=0.03,
        false_positives_per_frame=1.0,
        false_positive_area=3000.0,
        merge_probability=0.08,
    ),
}


class AnalyticRoIExtractor:
    """RoI extraction emulated from ground-truth geometry.

    Parameters
    ----------
    profile:
        The error model to apply (one of :data:`EXTRACTOR_PROFILES` or a
        custom instance).
    streams:
        Random stream factory; the extractor draws from the stream named
        ``"roi/<profile.name>"``.
    """

    def __init__(
        self,
        profile: ExtractorProfile,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.profile = profile
        self.streams = streams or RandomStreams(0)
        self.rng = self.streams.get(f"roi/{profile.name}")

    # ----------------------------------------------------------------- recall
    def detection_probability(self, obj: GroundTruthObject) -> float:
        """Probability that this extractor produces an RoI for ``obj``."""
        profile = self.profile
        # Size roll-off: a smooth logistic on the object's pixel height.
        height_term = 1.0 / (
            1.0 + np.exp(-(obj.box.height - profile.min_height) / profile.height_softness)
        )
        contrast_term = (
            1.0 - profile.contrast_weight
        ) + profile.contrast_weight * obj.contrast
        motion_term = 1.0
        if obj.motion < profile.motion_threshold:
            motion_term = profile.stationary_recall
        probability = profile.base_recall * height_term * contrast_term * motion_term
        return float(min(max(probability, 0.0), 1.0))

    # ---------------------------------------------------------------- extract
    def extract(self, frame: Frame) -> List[Box]:
        """Return the RoI boxes the extractor finds in ``frame``."""
        rois: List[Box] = []
        for obj in frame.objects:
            if self.rng.random() > self.detection_probability(obj):
                continue
            rois.append(self._perturb_box(obj.box, frame))

        rois = self._merge_blobs(rois)
        rois.extend(self._false_positives(frame))
        return rois

    def _perturb_box(self, box: Box, frame: Frame) -> Box:
        profile = self.profile
        margin_w = profile.box_margin * box.width
        margin_h = profile.box_margin * box.height
        jitter_x = float(self.rng.normal(0.0, profile.box_jitter * box.width))
        jitter_y = float(self.rng.normal(0.0, profile.box_jitter * box.height))
        clipped = clip_rect(
            box.x - margin_w + jitter_x,
            box.y - margin_h + jitter_y,
            box.width + 2 * margin_w,
            box.height + 2 * margin_h,
            frame.width,
            frame.height,
        )
        return clipped if clipped is not None else box

    def _merge_blobs(self, rois: List[Box]) -> List[Box]:
        """Randomly merge overlapping RoIs into single blobs, as foreground
        masks of close-by pedestrians do."""
        if len(rois) < 2 or self.profile.merge_probability <= 0:
            return rois
        if self.rng.random() < self.profile.merge_probability:
            return merge_overlapping(rois)
        return rois

    def _false_positives(self, frame: Frame) -> List[Box]:
        profile = self.profile
        count = int(self.rng.poisson(profile.false_positives_per_frame))
        boxes: List[Box] = []
        for _ in range(count):
            area = max(64.0, float(self.rng.exponential(profile.false_positive_area)))
            aspect = float(self.rng.uniform(0.6, 1.8))
            width = float(np.sqrt(area / aspect))
            height = width * aspect
            x = float(self.rng.uniform(0, max(1.0, frame.width - width)))
            y = float(self.rng.uniform(0, max(1.0, frame.height - height)))
            clipped = clip_rect(x, y, width, height, frame.width, frame.height)
            if clipped is not None:
                boxes.append(clipped)
        return boxes


def make_extractor(
    name: str = "gmm", streams: Optional[RandomStreams] = None
) -> AnalyticRoIExtractor:
    """Construct the analytic extractor for one of the named methods."""
    if name not in EXTRACTOR_PROFILES:
        raise KeyError(
            f"unknown extractor {name!r}; valid names: {sorted(EXTRACTOR_PROFILES)}"
        )
    return AnalyticRoIExtractor(EXTRACTOR_PROFILES[name], streams=streams)
