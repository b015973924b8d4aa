"""Frame records.

A :class:`Frame` carries the ground-truth object boxes that the synthetic
scene generator produced for one time step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.video.geometry import Box


@dataclass(frozen=True)
class GroundTruthObject:
    """One annotated person in a frame."""

    object_id: int
    box: Box
    #: How visually distinct the object is from the background in [0, 1];
    #: low-contrast objects are harder for both background subtraction and
    #: the detector, which is how the simulation reproduces per-scene AP.
    contrast: float = 1.0
    #: Magnitude of the object's motion since the previous frame in pixels;
    #: stationary objects are invisible to motion-based RoI extractors.
    motion: float = 0.0


@dataclass(frozen=True)
class Frame:
    """A single annotated video frame.

    A frame holds geometry only: no stage renders pixels, because the RoI
    extractors of :mod:`repro.vision.roi_extractors` model each method's
    errors from the ground-truth boxes.
    """

    scene_key: str
    frame_index: int
    timestamp: float
    width: int
    height: int
    objects: tuple[GroundTruthObject, ...] = ()

    @property
    def boxes(self) -> List[Box]:
        """Ground-truth boxes of every annotated object."""
        return [obj.box for obj in self.objects]

    @property
    def roi_area(self) -> float:
        """Total area covered by ground-truth boxes (overlaps counted once
        is unnecessary here because synthetic objects rarely overlap)."""
        return sum(obj.box.area for obj in self.objects)

    @property
    def area(self) -> float:
        return float(self.width * self.height)

    @property
    def roi_proportion(self) -> float:
        """Fraction of the frame covered by RoIs, the Fig. 3 quantity."""
        if self.area == 0:
            return 0.0
        return min(1.0, self.roi_area / self.area)

    @property
    def num_objects(self) -> int:
        return len(self.objects)
