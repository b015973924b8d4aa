"""The patch record exchanged between the edge and the cloud.

A patch is a rectangular crop of a source frame produced by the adaptive
frame partitioning algorithm.  Alongside the pixels (which the simulation
represents by the crop's geometry alone), the edge uploads the patch's
generation time, its size, and the frame's SLO -- exactly the metadata the
paper lists as "Patches' Info".  Which objects the pixels show is decided
where accuracy is scored, by :func:`repro.vision.detector.visible_objects`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.video.geometry import Box

_patch_counter = itertools.count()


@dataclass(frozen=True)
class Patch:
    """One uploaded patch and its metadata.

    Attributes
    ----------
    patch_id:
        Globally unique identifier (assigned automatically when omitted).
    camera_id:
        The edge camera the patch came from.
    scene_key:
        Scene the source frame belongs to (evaluation bookkeeping).
    frame_index:
        Index of the source frame.
    region:
        The crop rectangle in source-frame coordinates.
    generation_time:
        Time the frame was captured / the patch was produced at the edge.
    slo:
        The end-to-end latency objective attached to the source frame.
        Every patch of one frame shares the frame's SLO.
    """

    camera_id: str
    frame_index: int
    region: Box
    generation_time: float
    slo: float
    scene_key: str = ""
    patch_id: int = field(default_factory=lambda: next(_patch_counter))

    def __post_init__(self) -> None:
        # Written so that NaN fails too: a NaN or infinite time would give
        # the patch a deadline no scheduler can order or meet.
        if not 0 < self.slo < math.inf:
            raise ValueError("slo must be finite and positive")
        if not 0 <= self.generation_time < math.inf:
            raise ValueError("generation_time must be finite and non-negative")

    # ------------------------------------------------------------- dimensions
    @property
    def width(self) -> float:
        return self.region.width

    @property
    def height(self) -> float:
        return self.region.height

    @property
    def area(self) -> float:
        return self.region.area

    # --------------------------------------------------------------- deadline
    @property
    def deadline(self) -> float:
        """Absolute time by which inference results must be available."""
        return self.generation_time + self.slo

    def remaining_time(self, now: float) -> float:
        """Time left until the deadline at simulation time ``now``."""
        return self.deadline - now

    def waiting_time(self, now: float) -> float:
        """Time elapsed since the patch was generated."""
        return now - self.generation_time

    def fits_on(self, canvas_width: float, canvas_height: float) -> bool:
        """Whether the patch can be placed on a canvas of the given size
        without rotation or resizing."""
        return self.width <= canvas_width and self.height <= canvas_height
