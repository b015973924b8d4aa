"""The canvas: a fixed-size packing surface.

Split out of :mod:`repro.core.stitching` when the consolidation subsystem
moved into :mod:`repro.core.consolidation`: the canvas is the shared
substrate all three layers (batch solver, incremental stitcher,
consolidation engine) place patches on, and it carries no packing
*policy* of its own -- just the free-space bookkeeping, which is a
:class:`~repro.core.skyline.Skyline`: the occupied silhouette as
x-sorted segments plus recycled waste rectangles.

Patches are never resized, padded, rotated, or overlapped -- that is the
point of the design (resizing costs accuracy, padding costs compute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.patches import Patch
from repro.core.skyline import Skyline
from repro.video.geometry import Box


@dataclass(frozen=True)
class Placement:
    """One patch placed at ``(x, y)`` on a canvas."""

    patch: Patch
    x: float
    y: float

    @property
    def box(self) -> Box:
        """The area the patch occupies on the canvas."""
        return Box(self.x, self.y, self.patch.width, self.patch.height)


class Canvas:
    """A fixed-size canvas being filled with patches.

    Free space lives in :attr:`skyline`, whose ``candidates`` tuples are
    the free rectangles; ``best_fit``/``place`` address them by their
    ``rect_index`` in that list.
    """

    __slots__ = (
        "width",
        "height",
        "canvas_id",
        "oversized",
        "placements",
        "skyline",
        "_used_area",
        "_used_count",
    )

    def __init__(
        self,
        width: float,
        height: float,
        canvas_id: int = 0,
        oversized: bool = False,
    ) -> None:
        if not (math.isfinite(width) and math.isfinite(height)):
            raise ValueError("canvas dimensions must be finite")
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be positive")
        self.width = width
        self.height = height
        self.canvas_id = canvas_id
        #: When true, this canvas was opened specially for a patch larger
        #: than the configured canvas size (the partitioner can produce
        #: such patches at coarse granularities); it is sized to that patch.
        self.oversized = oversized
        self.placements: List[Placement] = []
        #: The free-space structure -- also the packers' fast-reject handle.
        self.skyline = Skyline(width, height)
        #: Cached sum of placed patch areas, maintained by :meth:`place` so
        #: the scheduler's hot path never recomputes ``sum(...)`` over
        #: placements.  ``_used_count`` detects out-of-band mutation of
        #: ``placements`` (the corruption tests do this) and triggers a
        #: recompute.
        self._used_area = 0.0
        self._used_count = 0

    def __repr__(self) -> str:
        return (
            f"Canvas(width={self.width!r}, height={self.height!r}, "
            f"canvas_id={self.canvas_id!r}, oversized={self.oversized!r}, "
            f"num_patches={self.num_patches})"
        )

    # ---------------------------------------------------------------- metrics
    @property
    def area(self) -> float:
        return self.width * self.height

    def _refresh_used_area(self) -> float:
        self._used_area = sum(p.patch.area for p in self.placements)
        self._used_count = len(self.placements)
        return self._used_area

    def recompute_used_area(self) -> float:
        """O(n) recomputation of :attr:`used_area`; the cached value must
        always agree with it (checked by :meth:`~repro.core.stitching.
        PatchStitchingSolver.validate_packing` as a debug assertion)."""
        return sum(placement.patch.area for placement in self.placements)

    @property
    def used_area(self) -> float:
        """Cached total patch area; place patches via :meth:`place`.

        Length changes to ``placements`` are detected and trigger a
        recompute, but a same-length replacement bypasses the cache's
        staleness check — mutate through :meth:`place` (or call
        :meth:`recompute_used_area`) to keep the cache honest.
        :meth:`~repro.core.stitching.PatchStitchingSolver.
        validate_packing` cross-checks the cache against a recompute.
        """
        if self._used_count != len(self.placements):
            # ``placements`` was mutated without going through ``place()``;
            # fall back to a recompute and re-seed the cache.
            self._refresh_used_area()
        return self._used_area

    @property
    def efficiency(self) -> float:
        """Ratio of total patch area to canvas area (Fig. 10(b), Fig. 13)."""
        if self.area == 0:
            return 0.0
        return self.used_area / self.area

    @property
    def num_patches(self) -> int:
        return len(self.placements)

    @property
    def patches(self) -> List[Patch]:
        return [placement.patch for placement in self.placements]

    def earliest_deadline(self) -> float:
        """The tightest deadline among the patches on this canvas."""
        if not self.placements:
            return float("inf")
        return min(placement.patch.deadline for placement in self.placements)

    # --------------------------------------------------------------- stitching
    def best_fit(self, patch: Patch) -> Optional[Tuple[int, float]]:
        """Best-short-side-fit ``(rect_index, score)`` for ``patch``, or
        ``None`` when no free rectangle fits.  Lower scores are better;
        the incremental packer compares scores across canvases.

        Answered by :meth:`Skyline.best_fit`: a scan over the skyline's
        candidates in order, behind an exact O(log n) fast-reject.
        """
        return self.skyline.best_fit(patch.width, patch.height)

    def find_free_rectangle(self, patch: Patch) -> Optional[int]:
        """Index of the best-short-side-fit free rectangle, or ``None``."""
        fit = self.best_fit(patch)
        return None if fit is None else fit[0]

    def place(self, patch: Patch, rect_index: int) -> Placement:
        """Place ``patch`` at the bottom-left corner of free rectangle
        ``rect_index``: the skyline raises the silhouette over the patch
        footprint (or splits a waste rectangle) and regenerates the
        candidate list."""
        x, y = self.skyline.place(rect_index, patch.width, patch.height)
        placement = Placement(patch=patch, x=x, y=y)
        self.placements.append(placement)
        self._used_area += patch.area
        self._used_count += 1
        return placement

    def try_place(self, patch: Patch) -> Optional[Placement]:
        """Place the patch if any free rectangle fits it."""
        index = self.find_free_rectangle(patch)
        if index is None:
            return None
        return self.place(patch, index)
