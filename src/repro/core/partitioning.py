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

import math
import numbers
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence

from repro.core.patches import Patch
from repro.video.frames import Frame
from repro.video.geometry import Box, enclosing_box
from repro.vision.roi_extractors import AnalyticRoIExtractor


def make_zones(frame_width: float, frame_height: float, zones_x: int, zones_y: int) -> List[Box]:
    """Divide the frame evenly into ``zones_x * zones_y`` zone rectangles.

    Zones are listed row-major (left-to-right, top-to-bottom).
    """
    if zones_x < 1 or zones_y < 1:
        raise ValueError("zone counts must be at least 1")
    # An infinite frame makes the first zone's edge ``0 * inf``, NaN.
    if not 0 < frame_width < math.inf or not 0 < frame_height < math.inf:
        raise ValueError(
            f"frame dimensions must be finite and positive, got {frame_width} x {frame_height}"
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

    Step 2 tests an RoI only against the zones whose column and row both
    overlap it, found by bisecting the zone edges, so its cost grows with
    the overlaps rather than with the zone count.  A skipped zone has an
    overlap of 0.0, which never wins the strict ``>``, and the candidates
    are visited row-major, so ties still go to the lowest zone index.
    """
    zones = make_zones(frame_width, frame_height, zones_x, zones_y)
    # The zones tile the frame in order, so each edge list is sorted.  Each
    # edge is computed as ``Box.intersection_area`` computes it (``x2`` is
    # ``x + width``), so a zone the bisection skips has an overlap of 0.0.
    lefts = [zone.x for zone in zones[:zones_x]]
    rights = [zone.x2 for zone in zones[:zones_x]]
    tops = [zone.y for zone in zones[::zones_x]]
    bottoms = [zone.y2 for zone in zones[::zones_x]]
    assignments: List[List[Box]] = [[] for _ in zones]
    for roi in rois:
        if roi.is_empty():
            continue
        # Only these columns and rows can overlap the RoI positively; a NaN
        # edge leaves them empty, as its NaN overlaps never win either.
        columns = range(bisect_right(rights, roi.x), bisect_left(lefts, roi.x2))
        best_zone = -1
        best_overlap = 0.0
        for row in range(bisect_right(bottoms, roi.y), bisect_left(tops, roi.y2)):
            for col in columns:
                index = row * zones_x + col
                overlap = roi.intersection_area(zones[index])
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

    A patch carries its region and the metadata the paper uploads with it,
    nothing more: which objects a region carries is decided where accuracy
    is scored, by :func:`repro.vision.detector.visible_objects`.

    Parameters
    ----------
    zones_x, zones_y:
        Partition granularity (the paper's main configuration is 4 x 4).
    roi_extractor:
        The :class:`~repro.vision.roi_extractors.AnalyticRoIExtractor` run
        on each frame; it must be supplied by the caller so the extraction
        method stays an explicit choice (Table IV compares several).
    min_patch_area:
        Patches smaller than this many pixels are dropped as noise (they
        come from false-positive RoIs).
    """

    def __init__(
        self,
        zones_x: int = 4,
        zones_y: int = 4,
        roi_extractor: Optional[AnalyticRoIExtractor] = None,
        min_patch_area: float = 256.0,
    ) -> None:
        # Any other object would fail only at the first frame.
        if not isinstance(roi_extractor, AnalyticRoIExtractor):
            raise ValueError(
                f"roi_extractor must be an AnalyticRoIExtractor, got {roi_extractor!r}"
            )
        # A fractional or infinite zone count would only fail in ``range()``
        # at the first partition, and an infinite area floor would drop
        # every patch; each check fails NaN too.
        if not all(
            isinstance(count, numbers.Integral) and count >= 1
            for count in (zones_x, zones_y)
        ):
            raise ValueError(
                f"zone counts must be integers of at least 1, got {zones_x} x {zones_y}"
            )
        if not 0 <= min_patch_area < math.inf:
            raise ValueError(
                f"min_patch_area must be finite and non-negative, got {min_patch_area}"
            )
        self.zones_x = zones_x
        self.zones_y = zones_y
        self.roi_extractor = roi_extractor
        self.min_patch_area = min_patch_area

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

        ``rois`` lets callers supply pre-computed RoIs (e.g. extracted
        ahead of a timed partitioning run); otherwise the configured
        extractor runs.
        """
        if rois is None:
            rois = self.roi_extractor.extract(frame)
        regions = partition_rois(frame.width, frame.height, self.zones_x, self.zones_y, rois)
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
                )
            )
        return patches
