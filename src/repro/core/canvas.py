"""The canvas: a fixed-size packing surface with pluggable free space.

Split out of :mod:`repro.core.stitching` when the consolidation subsystem
moved into :mod:`repro.core.consolidation`: the canvas is the shared
substrate all three layers (batch solver, incremental stitcher,
consolidation engine) place patches on, and it carries no packing
*policy* of its own — just the free-space bookkeeping.

Two interchangeable free-space structures implement the same contract,
chosen by the ``structure`` argument (the ``canvas_structure`` knob on the
solver, the scheduler, and both experiment configs):

* ``"skyline"`` — the canvas silhouette as x-sorted segments plus
  recycled waste rectangles (see :mod:`repro.core.skyline`);
* ``"guillotine"`` — the classic list of disjoint free rectangles split
  along the shorter leftover axis.

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

#: Valid values of the ``canvas_structure`` knob (solver/scheduler/configs).
CANVAS_STRUCTURES = ("skyline", "guillotine")


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

    ``structure`` selects the free-space bookkeeping:

    * ``"guillotine"`` (the constructor default, PR-2 behaviour):
      ``free_rectangles`` is the guillotine free-space list; it always
      partitions the unused canvas area into disjoint rectangles.
    * ``"skyline"`` (what :class:`~repro.core.stitching.
      PatchStitchingSolver` builds by default): free space lives in a
      :class:`~repro.core.skyline.Skyline` — the occupied silhouette as
      x-sorted segments plus recycled waste rectangles — and
      ``free_rectangles`` is the derived candidate list, materialised
      lazily from the skyline's tuples when someone actually reads it
      (the hot paths scan the tuples directly).  Consumers are
      oblivious: ``best_fit``/``place`` use the same ``rect_index``
      addressing and the same best-short-side-fit scores either way.
    """

    __slots__ = (
        "width",
        "height",
        "canvas_id",
        "oversized",
        "placements",
        "structure",
        "skyline",
        "_free_rectangles",
        "_free_stale",
        "_used_area",
        "_used_count",
    )

    def __init__(
        self,
        width: float,
        height: float,
        canvas_id: int = 0,
        oversized: bool = False,
        placements: Optional[List[Placement]] = None,
        free_rectangles: Optional[List[Box]] = None,
        structure: str = "guillotine",
    ) -> None:
        if not (math.isfinite(width) and math.isfinite(height)):
            raise ValueError("canvas dimensions must be finite")
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be positive")
        if structure not in CANVAS_STRUCTURES:
            raise ValueError(
                f"structure must be one of {CANVAS_STRUCTURES}, "
                f"got {structure!r}"
            )
        self.width = width
        self.height = height
        self.canvas_id = canvas_id
        #: When true, this canvas was opened specially for a patch larger
        #: than the configured canvas size (the partitioner can produce
        #: such patches at coarse granularities); it is sized to that patch.
        self.oversized = oversized
        self.placements: List[Placement] = (
            list(placements) if placements is not None else []
        )
        #: Free-space structure: ``"guillotine"`` or ``"skyline"``.
        self.structure = structure
        #: The skyline state when ``structure == "skyline"`` (``None`` for
        #: guillotine canvases) — also the packers' fast-reject handle.
        self.skyline: Optional[Skyline] = None
        #: Cached sum of placed patch areas, maintained by :meth:`place` so
        #: the scheduler's hot path never recomputes ``sum(...)`` over
        #: placements.  ``_used_count`` detects out-of-band mutation of
        #: ``placements`` (the corruption tests do this) and triggers a
        #: recompute.
        self._used_area = 0.0
        self._used_count = 0
        if structure == "skyline":
            if self.placements or free_rectangles:
                raise ValueError(
                    "skyline canvases must be constructed empty; "
                    "place patches through place()/try_place()"
                )
            self.skyline = Skyline(width, height)
            self._free_rectangles: List[Box] = []
            self._free_stale = True
            return
        self._free_stale = False
        if free_rectangles is not None:
            self._free_rectangles = free_rectangles
        elif not self.placements:
            self._free_rectangles = [Box(0.0, 0.0, width, height)]
        else:
            self._free_rectangles = []
        if self.placements:
            self._refresh_used_area()

    def __repr__(self) -> str:
        return (
            f"Canvas(width={self.width!r}, height={self.height!r}, "
            f"canvas_id={self.canvas_id!r}, oversized={self.oversized!r}, "
            f"structure={self.structure!r}, num_patches={self.num_patches})"
        )

    @property
    def free_rectangles(self) -> List[Box]:
        """The free-space list the packers scan, in ``rect_index`` order.

        Guillotine canvases store it directly; skyline canvases
        materialise it from :attr:`Skyline.candidates` on first read
        after a mutation (the scheduler's hot paths never read it — they
        scan the skyline's tuples — so the object list is only built for
        the test suite and other readers of the list).
        """
        if self._free_stale:
            assert self.skyline is not None
            self._free_rectangles = self.skyline.free_rects()
            self._free_stale = False
        return self._free_rectangles

    @free_rectangles.setter
    def free_rectangles(self, rects: List[Box]) -> None:
        if self.skyline is not None:
            # The skyline is the source of truth; accepting the write would
            # leave reads contradicting every placement decision.
            raise ValueError(
                "skyline canvases derive free space from the skyline; "
                "free_rectangles cannot be assigned"
            )
        self._free_rectangles = rects
        self._free_stale = False

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

        Skyline canvases answer through :meth:`Skyline.best_fit` — the
        same scan over the same ``free_rectangles`` order, behind an
        exact O(log n) fast-reject — so scores, indices, and tie-breaks
        are identical to scanning ``free_rectangles`` directly.
        """
        patch_width = patch.width
        patch_height = patch.height
        if self.skyline is not None:
            return self.skyline.best_fit(patch_width, patch_height)
        best_index = -1
        best_score = float("inf")
        for index, rect in enumerate(self.free_rectangles):
            if rect.width >= patch_width and rect.height >= patch_height:
                score = min(rect.width - patch_width, rect.height - patch_height)
                if score < best_score:
                    best_score = score
                    best_index = index
        if best_index < 0:
            return None
        return best_index, best_score

    def find_free_rectangle(self, patch: Patch) -> Optional[int]:
        """Index of the best-short-side-fit free rectangle, or ``None``."""
        fit = self.best_fit(patch)
        return None if fit is None else fit[0]

    def place(self, patch: Patch, rect_index: int) -> Placement:
        """Place ``patch`` in free rectangle ``rect_index``.

        Guillotine canvases split the leftover space along the shorter
        axis (guillotine split); skyline canvases raise the silhouette
        over the patch footprint (or split a waste rectangle) and
        regenerate the candidate list.
        """
        if self.skyline is not None:
            x, y = self.skyline.place(rect_index, patch.width, patch.height)
            placement = Placement(patch=patch, x=x, y=y)
            self.placements.append(placement)
            self._used_area += patch.area
            self._used_count += 1
            self._free_stale = True
            return placement
        rect = self.free_rectangles.pop(rect_index)
        if rect.width < patch.width or rect.height < patch.height:
            raise ValueError("patch does not fit in the chosen free rectangle")
        # "Bottom-left" of the free rectangle; with a top-left origin this
        # is the rectangle's origin corner, which keeps placements packed
        # toward the canvas origin.
        placement = Placement(patch=patch, x=rect.x, y=rect.y)
        self.placements.append(placement)
        self._used_area += patch.area
        self._used_count += 1

        leftover_w = rect.width - patch.width
        leftover_h = rect.height - patch.height
        # Split along the shorter leftover axis (Algorithm 2 line 32).
        if leftover_w <= leftover_h:
            # Right sliver is only as tall as the patch; bottom strip spans
            # the full free-rectangle width.
            right = Box(rect.x + patch.width, rect.y, leftover_w, patch.height)
            bottom = Box(rect.x, rect.y + patch.height, rect.width, leftover_h)
        else:
            # Bottom sliver only as wide as the patch; right strip spans the
            # full free-rectangle height.
            right = Box(rect.x + patch.width, rect.y, leftover_w, rect.height)
            bottom = Box(rect.x, rect.y + patch.height, patch.width, leftover_h)
        for candidate in (right, bottom):
            if candidate.width > 0.5 and candidate.height > 0.5:
                self._add_free_rectangle(candidate)
        return placement

    def _add_free_rectangle(self, candidate: Box) -> None:
        """Insert a free rectangle, keeping the pool minimal.

        A pure guillotine split never produces nested free rectangles (the
        pool partitions the unused area), but the incremental packer keeps
        pools alive across many arrivals; pruning contained rectangles here
        keeps the pool minimal and the per-arrival scan short regardless of
        how the pool was produced.
        """
        pool = self.free_rectangles
        for rect in pool:
            if rect.contains_box(candidate):
                return
        pool[:] = [rect for rect in pool if not candidate.contains_box(rect)]
        pool.append(candidate)

    def try_place(self, patch: Patch) -> Optional[Placement]:
        """Place the patch if any free rectangle fits it."""
        index = self.find_free_rectangle(patch)
        if index is None:
            return None
        return self.place(patch, index)
