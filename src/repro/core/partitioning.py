"""Algorithm 1: adaptive frame partitioning.

The frame is divided evenly into ``X x Y`` zones.  Every RoI produced by the
background model is affiliated with the zone it overlaps most; each
non-empty zone is then shrunk to the minimum enclosing rectangle of its
RoIs and cut out as a patch.  The partition granularity ``(X, Y)`` is the
knob trading bandwidth against accuracy (Table II vs. Table III): finer
zones hug the RoIs more tightly (less background transmitted) but are more
likely to cut off objects the background model missed between zones.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.patches import Patch
from repro.video.frames import Frame, GroundTruthObject
from repro.video.geometry import Box, enclosing_box
from repro.vision.roi_extractors import AnalyticRoIExtractor


def make_zones(frame_width: float, frame_height: float, zones_x: int, zones_y: int) -> List[Box]:
    """Divide the frame evenly into ``zones_x * zones_y`` zone rectangles.

    Zones are listed row-major (left-to-right, top-to-bottom).
    """
    if zones_x < 1 or zones_y < 1:
        raise ValueError("zone counts must be at least 1")
    if not frame_width > 0 or not frame_height > 0:
        raise ValueError(
            f"frame dimensions must be positive, got {frame_width} x {frame_height}"
        )
    zone_width = frame_width / zones_x
    zone_height = frame_height / zones_y
    zones: List[Box] = []
    for row in range(zones_y):
        for col in range(zones_x):
            zones.append(
                Box(col * zone_width, row * zone_height, zone_width, zone_height)
            )
    return zones


def partition_rois(
    frame_width: float,
    frame_height: float,
    zones_x: int,
    zones_y: int,
    rois: Sequence[Box],
) -> List[Box]:
    """Algorithm 1: turn RoIs into per-zone patch rectangles.

    Steps (paper numbering):

    1. the frame is divided into ``zones_x * zones_y`` equal zones;
    2. every RoI is assigned to the zone with which it shares the largest
       overlap area (RoIs with no overlap at all are skipped -- they lie
       outside the frame);
    3. each non-empty zone is resized to the minimum enclosing rectangle of
       its assigned RoIs;
    4. the resized zones are returned as patch rectangles, clipped to the
       frame bounds.

    Note that the enclosing rectangle may extend beyond the original zone
    when an RoI straddles a zone boundary; the paper resizes to cover all
    affiliated RoIs, which is what keeps boundary objects intact.
    """
    zones = make_zones(frame_width, frame_height, zones_x, zones_y)
    assignments: List[List[Box]] = [[] for _ in zones]
    for roi in rois:
        if roi.is_empty():
            continue
        best_zone = -1
        best_overlap = 0.0
        for index, zone in enumerate(zones):
            overlap = roi.intersection_area(zone)
            if overlap > best_overlap:
                best_overlap = overlap
                best_zone = index
        if best_zone >= 0:
            assignments[best_zone].append(roi)

    patches: List[Box] = []
    for zone_rois in assignments:
        if not zone_rois:
            continue
        enclosing = enclosing_box(zone_rois)
        clipped = enclosing.clip_to(frame_width, frame_height)
        if clipped is not None and not clipped.is_empty():
            patches.append(clipped)
    return patches


class FramePartitioner:
    """Edge-side component wrapping RoI extraction plus Algorithm 1.

    Parameters
    ----------
    zones_x, zones_y:
        Partition granularity (the paper's main configuration is 4 x 4).
    roi_extractor:
        Either an :class:`~repro.vision.roi_extractors.AnalyticRoIExtractor`
        or any callable ``frame -> list[Box]``; defaults must be supplied
        by the caller so the extraction method stays an explicit choice
        (Table IV compares several).
    object_coverage_threshold:
        Minimum fraction of a ground-truth object's area that must fall
        inside a patch for the object to be considered "carried" by that
        patch (used to annotate patches for downstream accuracy scoring).
    min_patch_area:
        Patches smaller than this many pixels are dropped as noise (they
        come from false-positive RoIs).
    """

    def __init__(
        self,
        zones_x: int = 4,
        zones_y: int = 4,
        roi_extractor: Optional[
            AnalyticRoIExtractor | Callable[[Frame], List[Box]]
        ] = None,
        object_coverage_threshold: float = 0.5,
        min_patch_area: float = 256.0,
    ) -> None:
        if roi_extractor is None:
            raise ValueError("roi_extractor must be provided")
        if not zones_x >= 1 or not zones_y >= 1:
            raise ValueError(f"zone counts must be at least 1, got {zones_x} x {zones_y}")
        if not 0 < object_coverage_threshold <= 1:
            raise ValueError("object_coverage_threshold must be in (0, 1]")
        if not min_patch_area >= 0:
            raise ValueError(f"min_patch_area must be non-negative, got {min_patch_area}")
        self.zones_x = zones_x
        self.zones_y = zones_y
        self.roi_extractor = roi_extractor
        self.object_coverage_threshold = object_coverage_threshold
        self.min_patch_area = min_patch_area

    # -------------------------------------------------------------- extraction
    def extract_rois(self, frame: Frame) -> List[Box]:
        """Run the configured RoI extractor on ``frame``."""
        if isinstance(self.roi_extractor, AnalyticRoIExtractor):
            return self.roi_extractor.extract(frame)
        return self.roi_extractor(frame)

    # ------------------------------------------------------------------ cover
    def _objects_in_region(
        self, frame: Frame, region: Box
    ) -> List[GroundTruthObject]:
        carried: List[GroundTruthObject] = []
        for obj in frame.objects:
            if obj.box.area <= 0:
                continue
            coverage = obj.box.intersection_area(region) / obj.box.area
            if coverage >= self.object_coverage_threshold:
                carried.append(obj)
        return carried

    # -------------------------------------------------------------- partition
    def partition(
        self,
        frame: Frame,
        generation_time: float,
        slo: float,
        camera_id: str = "camera-0",
        rois: Optional[Sequence[Box]] = None,
    ) -> List[Patch]:
        """Produce the patches for one frame.

        ``rois`` lets callers supply pre-computed RoIs (e.g. from the
        pixel-level GMM); otherwise the configured extractor runs.
        """
        extracted = list(rois) if rois is not None else self.extract_rois(frame)
        regions = partition_rois(
            frame.width, frame.height, self.zones_x, self.zones_y, extracted
        )
        patches: List[Patch] = []
        for region in regions:
            if region.area < self.min_patch_area:
                continue
            patches.append(
                Patch(
                    camera_id=camera_id,
                    frame_index=frame.frame_index,
                    region=region,
                    generation_time=generation_time,
                    slo=slo,
                    scene_key=frame.scene_key,
                    objects=tuple(self._objects_in_region(frame, region)),
                )
            )
        return patches
