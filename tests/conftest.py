"""Shared fixtures for the test suite.

Scene generation is the most expensive setup step, so the fixtures that
need frames are session-scoped and use reduced frame counts / object caps.
All fixtures are deterministic (fixed seeds) so test failures reproduce.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple

import pytest

from repro.core.canvas import Placement
from repro.core.patches import Patch
from repro.core.skyline import _SLIVER
from repro.simulation.engine import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.video.dataset import build_panda4k
from repro.video.generator import SceneGenerator
from repro.video.geometry import Box
from repro.video.scenes import get_scene


@pytest.fixture()
def simulator() -> Simulator:
    return Simulator()


@pytest.fixture()
def streams() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture(scope="session")
def scene01_frames():
    """A short scene_01 sequence (reasonably dense, moderate object count)."""
    generator = SceneGenerator(get_scene("scene_01"), streams=RandomStreams(7))
    return generator.generate(num_frames=20)


@pytest.fixture(scope="session")
def scene05_frames():
    """A short scene_05 sequence (sparse scene, few objects)."""
    generator = SceneGenerator(get_scene("scene_05"), streams=RandomStreams(9))
    return generator.generate(num_frames=20)


@pytest.fixture(scope="session")
def small_dataset():
    """A two-scene dataset with truncated sequences for pipeline tests."""
    return build_panda4k(
        seed=3,
        scene_keys=["scene_01", "scene_05"],
        limit_frames=30,
        max_concurrent_objects=120,
    )


@pytest.fixture()
def sample_patches() -> list[Patch]:
    """A handful of hand-sized patches for stitching/scheduling tests."""
    sizes = [(200, 300), (400, 250), (150, 150), (600, 500), (90, 120), (320, 480)]
    patches = []
    for index, (width, height) in enumerate(sizes):
        patches.append(
            Patch(
                camera_id="camera-0",
                frame_index=0,
                region=Box(10.0 * index, 5.0 * index, float(width), float(height)),
                generation_time=0.0,
                slo=1.0,
            )
        )
    return patches


def make_patch(
    width: float,
    height: float,
    generation_time: float = 0.0,
    slo: float = 1.0,
    camera_id: str = "camera-0",
    frame_index: int = 0,
) -> Patch:
    """Helper used across tests to build a patch of a given size."""
    return Patch(
        camera_id=camera_id,
        frame_index=frame_index,
        region=Box(0.0, 0.0, width, height),
        generation_time=generation_time,
        slo=slo,
    )


class GuillotineCanvas:
    """One canvas of the :func:`guillotine_pack` oracle: its placements
    and the guillotine free-rectangle list, which always partitions the
    unused area into disjoint rectangles.  Quacks like
    :class:`~repro.core.canvas.Canvas` for ``validate_packing`` and
    ``mean_efficiency``."""

    def __init__(
        self, width: float, height: float, canvas_id: int, oversized: bool = False
    ) -> None:
        self.width = width
        self.height = height
        self.canvas_id = canvas_id
        self.oversized = oversized
        self.placements: list[Placement] = []
        self.free_rectangles = [Box(0.0, 0.0, width, height)]

    @property
    def area(self) -> float:
        return self.width * self.height

    def recompute_used_area(self) -> float:
        return sum(placement.patch.area for placement in self.placements)

    @property
    def used_area(self) -> float:
        return self.recompute_used_area()

    @property
    def efficiency(self) -> float:
        return self.used_area / self.area

    def try_place(self, patch: Patch) -> bool:
        """Best-short-side-fit into the free list (strict ``<``, first
        rectangle wins ties), placed at the rectangle's origin, with the
        leftover split along the shorter axis (Algorithm 2 line 32)."""
        best_index = -1
        best_score = float("inf")
        for index, rect in enumerate(self.free_rectangles):
            if rect.width >= patch.width and rect.height >= patch.height:
                score = min(rect.width - patch.width, rect.height - patch.height)
                if score < best_score:
                    best_score = score
                    best_index = index
        if best_index < 0:
            return False
        rect = self.free_rectangles.pop(best_index)
        self.placements.append(Placement(patch=patch, x=rect.x, y=rect.y))
        leftover_w = rect.width - patch.width
        leftover_h = rect.height - patch.height
        if leftover_w <= leftover_h:
            right = Box(rect.x + patch.width, rect.y, leftover_w, patch.height)
            bottom = Box(rect.x, rect.y + patch.height, rect.width, leftover_h)
        else:
            right = Box(rect.x + patch.width, rect.y, leftover_w, rect.height)
            bottom = Box(rect.x, rect.y + patch.height, patch.width, leftover_h)
        for candidate in (right, bottom):
            if candidate.width > 0.5 and candidate.height > 0.5:
                self._add_free_rectangle(candidate)
        return True

    def _add_free_rectangle(self, candidate: Box) -> None:
        """Insert a free rectangle, pruning by containment both ways."""
        pool = self.free_rectangles
        if any(rect.contains_box(candidate) for rect in pool):
            return
        pool[:] = [rect for rect in pool if not candidate.contains_box(rect)]
        pool.append(candidate)


def guillotine_pack(
    patches, width: float = 1024.0, height: float = 1024.0
) -> list[GuillotineCanvas]:
    """Test oracle: the classic guillotine batch packer.

    First-fit-decreasing by area over the open canvases, each a
    :class:`GuillotineCanvas`; a patch larger than the canvas gets a
    dedicated canvas of exactly its size.  The skyline packer's canvas
    counts and efficiencies are checked against this reference.
    """
    ordered = sorted(patches, key=lambda patch: patch.area, reverse=True)
    canvases: list[GuillotineCanvas] = []
    open_canvases: list[GuillotineCanvas] = []
    for patch in ordered:
        if not patch.fits_on(width, height):
            canvas = GuillotineCanvas(
                patch.width, patch.height, len(canvases), oversized=True
            )
            canvas.try_place(patch)
            canvases.append(canvas)
            continue
        if any(canvas.try_place(patch) for canvas in open_canvases):
            continue
        canvas = GuillotineCanvas(width, height, len(canvases))
        canvas.try_place(patch)
        canvases.append(canvas)
        open_canvases.append(canvas)
    return canvases


class FreeRect:
    """A `Box`-compatible view of one skyline candidate rectangle, for
    the tests that read free space as geometry (the naive
    best-short-side-fit scans and the containment checks)."""

    __slots__ = ("x", "y", "width", "height")

    def __init__(self, x: float, y: float, width: float, height: float) -> None:
        self.x = x
        self.y = y
        self.width = width
        self.height = height

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.x, self.y, self.width, self.height)

    def contains_box(self, other, tolerance: float = 1e-6) -> bool:
        """Mirror of :meth:`repro.video.geometry.Box.contains_box`."""
        return (
            other.x >= self.x - tolerance
            and other.y >= self.y - tolerance
            and other.x + other.width <= self.x + self.width + tolerance
            and other.y + other.height <= self.y + self.height + tolerance
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeRect)
            and self.x == other.x
            and self.y == other.y
            and self.width == other.width
            and self.height == other.height
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.width, self.height))

    def __repr__(self) -> str:
        return (
            f"FreeRect(x={self.x!r}, y={self.y!r}, "
            f"width={self.width!r}, height={self.height!r})"
        )


def free_rectangles(canvas) -> List[FreeRect]:
    """A canvas's free rectangles: its skyline's candidates as
    :class:`FreeRect` objects, in the ``rect_index`` order
    ``Canvas.best_fit`` and ``Canvas.place`` use."""
    return [FreeRect(x, y, w, h) for x, y, w, h in canvas.skyline.candidates]


def segments(skyline) -> List[Tuple[float, float, float]]:
    """The skyline's silhouette as ``(x, y, width)`` runs."""
    xs, ys = skyline.xs, skyline.ys
    out = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        end = xs[i + 1] if i + 1 < len(xs) else skyline.width
        out.append((x, y, end - x))
    return out


def check_invariants(skyline) -> None:
    """Assert the skyline's structural invariants: segments cover
    ``[0, width)`` in strictly increasing x order, heights stay within
    the canvas, adjacent heights differ, surface candidates are maximal
    empty rectangles of the silhouette, and waste rectangles stay below
    the silhouette and disjoint.
    """
    xs, ys = skyline.xs, skyline.ys
    assert len(xs) == len(ys) and xs, "segment run must be non-empty"
    assert xs[0] == 0.0, "first segment must start at the canvas origin"
    for i in range(1, len(xs)):
        assert xs[i] > xs[i - 1], "segment starts must strictly increase"
        assert ys[i] != ys[i - 1], "adjacent segments must be merged"
    assert xs[-1] < skyline.width + 1e-9, "segments must not start past the edge"
    for y in ys:
        assert -1e-9 <= y <= skyline.height + 1e-9, "height outside the canvas"
    ends = xs[1:] + [skyline.width]
    assert skyline.candidates[skyline.num_surface :] == skyline.waste
    for x, y, w, h in skyline.candidates[: skyline.num_surface]:
        assert h == skyline.height - y, "surface candidate must reach the top"
        assert w > _SLIVER and h > _SLIVER, "sliver candidate"
        start = xs.index(x)
        covered = x
        stop = start
        while covered < x + w - 1e-9:
            assert ys[stop] <= y + 1e-9, "candidate floats over a taller segment"
            covered = ends[stop]
            stop += 1
        assert abs(covered - (x + w)) < 1e-6, "span must end on a boundary"
        assert any(
            abs(ys[k] - y) < 1e-12 for k in range(start, stop)
        ), "candidate level must rest on a segment top"
        # Maximality: the neighbours just outside the span are taller
        # (or the span touches a canvas edge).
        if start > 0:
            assert ys[start - 1] > y, "candidate extendable to the left"
        if stop < len(xs):
            assert ys[stop] > y, "candidate extendable to the right"
    for index, (x, y, w, h) in enumerate(skyline.waste):
        assert w > _SLIVER and h > _SLIVER, "sliver waste rectangle"
        assert x >= -1e-9 and y >= -1e-9, "waste outside the canvas"
        assert x + w <= skyline.width + 1e-9 and y + h <= skyline.height + 1e-9
        # Below the silhouette: every covered segment tops it.
        seg = bisect_right(xs, x) - 1
        covered = x
        while covered < x + w - 1e-9:
            assert ys[seg] >= y + h - 1e-6, "waste rectangle pokes above"
            covered = ends[seg]
            seg += 1
        for other_index in range(index + 1, len(skyline.waste)):
            ox, oy, ow, oh = skyline.waste[other_index]
            overlap_w = min(x + w, ox + ow) - max(x, ox)
            overlap_h = min(y + h, oy + oh) - max(y, oy)
            assert (
                overlap_w <= 1e-6 or overlap_h <= 1e-6
            ), "waste rectangles must stay disjoint"


def restart_merge_overlapping(boxes, iou_threshold: float = 0.0) -> list[Box]:
    """Test oracle: the merge greedy that restarts from the first pair.

    Each pass scans the pairs ``(i, j)`` with ``i < j`` in order, replaces
    box ``i`` by the enclosing rectangle of the first pair that overlaps
    with an IoU of at least ``iou_threshold``, drops box ``j``, and starts
    over.  ``merge_overlapping`` must return exactly this list.
    """
    merged = list(boxes)
    changed = True
    while changed:
        changed = False
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                first, second = merged[i], merged[j]
                overlapping = (
                    first.intersection_area(second) > 0
                    and first.iou(second) >= iou_threshold
                )
                if overlapping:
                    # Replace the pair with its enclosing rectangle and
                    # restart; merging can create new overlaps with boxes
                    # already visited, so a single pass is not enough.
                    merged[i] = first.enclosing(second)
                    merged.pop(j)
                    changed = True
                    break
            if changed:
                break
    return merged
