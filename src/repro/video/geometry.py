"""Axis-aligned box geometry used across the whole reproduction.

Boxes are stored as ``(x, y, width, height)`` in pixel coordinates with the
origin at the top-left of the frame, matching the convention of the object
detection literature the paper builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class Box:
    """An axis-aligned rectangle ``(x, y, width, height)``.

    Instances are immutable so they can safely be shared between the edge,
    network, and cloud components of the simulation.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if not self.width >= 0 or not self.height >= 0:
            raise ValueError(
                "box dimensions must be non-negative, got "
                f"width={self.width}, height={self.height}"
            )

    # -------------------------------------------------------------- accessors
    @property
    def x2(self) -> float:
        """Right edge coordinate."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Bottom edge coordinate."""
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    @property
    def aspect_ratio(self) -> float:
        """Height divided by width (pedestrian boxes are typically > 1)."""
        if self.width == 0:
            return math.inf
        return self.height / self.width

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.width, self.height)

    def as_xyxy(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.x2, self.y2)

    # ------------------------------------------------------------- predicates
    def is_empty(self) -> bool:
        return self.width <= 0 or self.height <= 0

    def contains_point(self, px: float, py: float) -> bool:
        return self.x <= px <= self.x2 and self.y <= py <= self.y2

    def contains_box(self, other: "Box", tolerance: float = 1e-6) -> bool:
        """Whether ``other`` lies entirely inside this box.

        ``tolerance`` absorbs floating-point rounding from accumulated
        coordinate arithmetic (e.g. enclosing-rectangle construction).
        """
        return (
            other.x >= self.x - tolerance
            and other.y >= self.y - tolerance
            and other.x2 <= self.x2 + tolerance
            and other.y2 <= self.y2 + tolerance
        )

    def intersects(self, other: "Box") -> bool:
        return self.intersection_area(other) > 0

    # ------------------------------------------------------------- operations
    def intersection(self, other: "Box") -> Optional["Box"]:
        """Return the overlapping box, or ``None`` if disjoint."""
        left = max(self.x, other.x)
        top = max(self.y, other.y)
        right = min(self.x2, other.x2)
        bottom = min(self.y2, other.y2)
        if right <= left or bottom <= top:
            return None
        return Box(left, top, right - left, bottom - top)

    def intersection_area(self, other: "Box") -> float:
        """Area of :meth:`intersection`, ``0.0`` if disjoint, without
        building the overlap box."""
        # The conditionals are max() and min() as the builtins evaluate
        # them (the second operand wins only a strict comparison, so NaN
        # operands resolve the same way): intersection()'s edges exactly.
        x, other_x = self.x, other.x
        left = other_x if other_x > x else x
        y, other_y = self.y, other.y
        top = other_y if other_y > y else y
        right, other_right = x + self.width, other_x + other.width
        if other_right < right:
            right = other_right
        bottom, other_bottom = y + self.height, other_y + other.height
        if other_bottom < bottom:
            bottom = other_bottom
        if right <= left or bottom <= top:
            return 0.0
        return (right - left) * (bottom - top)

    def union_area(self, other: "Box") -> float:
        return self.area + other.area - self.intersection_area(other)

    def iou(self, other: "Box") -> float:
        """Intersection over union, the matching criterion for AP@0.5."""
        overlap = self.intersection_area(other)
        union = self.area + other.area - overlap
        if union <= 0:
            return 0.0
        return overlap / union

    def enclosing(self, other: "Box") -> "Box":
        """Smallest box containing both boxes."""
        left = min(self.x, other.x)
        top = min(self.y, other.y)
        right = max(self.x2, other.x2)
        bottom = max(self.y2, other.y2)
        return Box(left, top, right - left, bottom - top)

    def translate(self, dx: float, dy: float) -> "Box":
        return Box(self.x + dx, self.y + dy, self.width, self.height)

    def scale(self, factor: float) -> "Box":
        """Scale the box (position and size) by ``factor``, e.g. for
        converting between frame resolutions."""
        if not factor > 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return Box(
            self.x * factor, self.y * factor, self.width * factor, self.height * factor
        )

    def clip_to(self, frame_width: float, frame_height: float) -> Optional["Box"]:
        """Clip the box to the frame bounds; ``None`` if nothing remains."""
        return clip_rect(self.x, self.y, self.width, self.height, frame_width, frame_height)

    def expand(self, margin: float) -> "Box":
        """Grow the box by ``margin`` pixels on every side (clamped at 0)."""
        new_x = self.x - margin
        new_y = self.y - margin
        return Box(new_x, new_y, self.width + 2 * margin, self.height + 2 * margin)


def clip_rect(
    x: float, y: float, width: float, height: float, frame_width: float, frame_height: float
) -> Optional[Box]:
    """The part of the rectangle ``(x, y, width, height)`` inside the frame
    ``(0, 0, frame_width, frame_height)``; ``None`` if nothing remains.

    It takes coordinates, so a caller that clips a rectangle it computed
    builds no box for it.  The result is :meth:`Box.intersection` with the
    frame box ``Box(0.0, 0.0, frame_width, frame_height)``: the edges take
    ``max`` and ``min`` with the builtins' operand order and the far edges
    are ``0.0 + frame_width`` and ``0.0 + frame_height``, so every
    coordinate keeps its type, its value and its sign of zero.
    """
    # ``not x >= 0`` rather than ``x < 0``, so NaN fails too, as in ``Box``.
    if not (width >= 0 and height >= 0 and frame_width >= 0 and frame_height >= 0):
        raise ValueError(
            "box and frame dimensions must be non-negative, got "
            f"{width} x {height} in {frame_width} x {frame_height}"
        )
    left = 0.0 if 0.0 > x else x
    top = 0.0 if 0.0 > y else y
    right, frame_right = x + width, 0.0 + frame_width
    if frame_right < right:
        right = frame_right
    bottom, frame_bottom = y + height, 0.0 + frame_height
    if frame_bottom < bottom:
        bottom = frame_bottom
    if right <= left or bottom <= top:
        return None
    return Box(left, top, right - left, bottom - top)


def enclosing_box(boxes: Sequence[Box]) -> Box:
    """Minimum enclosing rectangle of a non-empty sequence of boxes.

    This is the operation Algorithm 1 (step 3) applies to each zone.
    """
    if not boxes:
        raise ValueError("enclosing_box requires at least one box")
    result = boxes[0]
    for box in boxes[1:]:
        result = result.enclosing(box)
    return result


def total_area(boxes: Iterable[Box]) -> float:
    """Sum of individual box areas (overlaps counted twice)."""
    return sum(box.area for box in boxes)


def merge_overlapping(boxes: Sequence[Box], iou_threshold: float = 0.0) -> list[Box]:
    """Merge every pair of boxes that overlap with an IoU of at least
    ``iou_threshold`` into their enclosing rectangle, until no pair does.

    A pair overlaps when its intersection area is positive, so touching
    boxes stay apart.  The result is the list the greedy that restarts from
    the first pair after every merge returns: it scans pairs ``(row, col)``
    with ``row < col`` in order, replaces ``row`` by the enclosing
    rectangle of the first overlapping pair and drops ``col``.

    Background-subtraction masks frequently fragment one object into several
    blobs; this post-processing step mirrors the connected-component merge
    OpenCV users apply before treating blobs as RoIs.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    merged = list(boxes)
    # Each box's edges sit beside it, so a pair whose intersection area is
    # 0.0 is skipped before ``_overlapping`` runs.  ``as_xyxy`` computes the
    # far edges as ``intersection_area`` does (``x + width``), and NaN edges
    # fail every skip test.
    edges = [box.as_xyxy() for box in merged]
    row = 0
    while row < len(merged):
        left, top, right, bottom = edges[row]
        for col in range(row + 1, len(merged)):
            col_left, col_top, col_right, col_bottom = edges[col]
            if (
                right <= col_left
                or col_right <= left
                or bottom <= col_top
                or col_bottom <= top
            ):
                continue
            if _overlapping(merged[row], merged[col], iou_threshold):
                break
        else:
            row += 1
            continue
        # Before each merge no row above ``row`` overlaps any box, and only
        # ``merged[row]`` grows, so the restarting greedy would next merge
        # the first earlier row that overlaps the grown box, or else rescan
        # ``row`` itself.
        while True:
            merged[row] = merged[row].enclosing(merged.pop(col))
            del edges[col]
            edges[row] = left, top, right, bottom = merged[row].as_xyxy()
            for earlier in range(row):
                early_left, early_top, early_right, early_bottom = edges[earlier]
                if (
                    early_right <= left
                    or right <= early_left
                    or early_bottom <= top
                    or bottom <= early_top
                ):
                    continue
                if _overlapping(merged[earlier], merged[row], iou_threshold):
                    row, col = earlier, row
                    break
            else:
                break
    return merged


def _overlapping(first: Box, second: Box, iou_threshold: float) -> bool:
    """Whether :func:`merge_overlapping` merges ``first`` and ``second``:
    a positive intersection and ``first.iou(second) >= iou_threshold``."""
    overlap = first.intersection_area(second)
    if not overlap > 0:
        return False
    union = first.area + second.area - overlap
    return (0.0 if union <= 0 else overlap / union) >= iou_threshold
