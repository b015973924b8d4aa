"""Skyline free-space structure for :class:`~repro.core.stitching.Canvas`.

A guillotine free-rectangle list (Algorithm 2 line 32's split) pays two
costs per placement: the best-short-side-fit scan walks a pool that grows
with every split, and inserting a split remainder prunes contained
rectangles with an O(pool) ``Box.contains_box`` sweep (profiled at ~15%
of the fleet arrival path).  Every :class:`~repro.core.canvas.Canvas`
keeps a *skyline* instead: the canvas's occupied silhouette kept as an
x-sorted run of ``(x, y, width)`` segments covering ``[0, canvas_width)``,
where ``y`` is the top of the tallest placement over that x-interval (0
where the canvas floor shows).

Free space is offered to the packers as a single candidate list with two
kinds of entries, in one canonical ``rect_index`` order:

* **Surface candidates** — the maximal empty rectangles of the
  silhouette.  Each segment owns at most one: the rectangle resting on
  that segment's top, extended left and right over every neighbour of
  lesser height (the leftmost equal-height segment owns a shared level),
  and reaching the canvas top.  There are at most ``len(segments)`` of
  them, and no containment pruning is ever needed: a lower candidate
  always pokes below any higher one.
* **Waste rectangles** — when a patch is placed on a surface candidate
  that bridges lower neighbouring segments, the area between the old
  silhouette and the patch's bottom edge would be buried.  Instead of
  losing it (the classic skyline bottom-left trade-off), the burial is
  recorded as free rectangles, one per covered segment, and offered for
  later placements.  A placement inside a waste rectangle splits the
  remainder along the shorter leftover axis, exactly like the guillotine
  rule.  Waste rectangles are disjoint from each other and from the
  space above the silhouette *by construction*, so — unlike the
  guillotine pool — appending them needs no ``contains_box`` sweep.

Two further ideas make the structure fast:

* **An exact O(log n) fitness test.**  ``fit_heights`` keeps every
  candidate height sorted ascending with ``fit_maxw[i]`` the maximum
  candidate width from ``i`` on, so "does a ``w x h`` patch fit
  anywhere on this canvas?" is one bisect plus one lookup.  The batch
  packer's first-fit scan over hundreds of full canvases turns into two
  list indexings and a bisect per rejected canvas.
* **Segment merge on commit.**  Raising the silhouette over the placed
  patch's footprint splices the segment run in place and merges adjacent
  equal-height segments, so the run length tracks the packing's surface
  complexity, not its placement count.

Scoring stays plain best-short-side-fit over the candidate's
``(width, height)`` — the same score Algorithm 2's scan over free
rectangles computes — so scores compare across canvases in the
incremental stitcher's global-BSSF probe.  The randomized suite in
``tests/test_skyline.py`` pins the batch packer's canvas counts and
efficiencies against a guillotine test oracle (``guillotine_pack`` in
``tests/conftest.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

__all__ = ["FreeRect", "Skyline"]

#: Slivers thinner than this (either axis) are never offered as candidates,
#: the 0.5 px sliver rule of the guillotine split.
_SLIVER = 0.5


class FreeRect:
    """A lightweight, `Box`-compatible view of one candidate rectangle.

    The skyline regenerates its candidate list on every commit, so these
    are built in bulk on the hot path; a ``__slots__`` class with a plain
    ``__init__`` keeps that cheap while still quacking like
    :class:`repro.video.geometry.Box` for the consumers that only read
    geometry (the best-short-side-fit scans and the test suite's
    containment checks).
    """

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


class Skyline:
    """One canvas's free space: silhouette segments plus waste rectangles.

    Segment ``i`` covers ``[xs[i], xs[i+1])`` (the last one reaches
    ``width``) at height ``ys[i]``; adjacent segments always have
    distinct heights (equal neighbours are merged on commit).

    ``candidates`` is the combined candidate list — surface candidates
    first (the first :attr:`num_surface` entries), waste rectangles
    after — as ``(x, y, width, height)`` tuples.  Its order is the
    canonical ``rect_index`` order every consumer shares
    (:meth:`Canvas.best_fit` and placement plans).
    """

    __slots__ = (
        "width",
        "height",
        "xs",
        "ys",
        "waste",
        "candidates",
        "num_surface",
        "fit_heights",
        "fit_maxw",
    )

    def __init__(self, width: float, height: float) -> None:
        self.width = width
        self.height = height
        #: Segment start coordinates (strictly increasing, ``xs[0] == 0``).
        self.xs: List[float] = [0.0]
        #: Segment heights (the silhouette's y per interval).
        self.ys: List[float] = [0.0]
        #: Recycled buried rectangles, ``(x, y, width, height)`` tuples.
        self.waste: List[Tuple[float, float, float, float]] = []
        #: Combined candidate list (surface first, then waste); a fresh
        #: canvas has exactly one candidate: itself.
        self.candidates: List[Tuple[float, float, float, float]] = [
            (0.0, 0.0, width, height)
        ]
        #: How many leading ``candidates`` entries are surface candidates.
        self.num_surface: int = 1
        #: Candidate heights sorted ascending and, per position, the
        #: maximum candidate width at that height or above — the exact
        #: O(log n) fitness profile.
        self.fit_heights: List[float] = [height]
        self.fit_maxw: List[float] = [width]

    # -------------------------------------------------------------- queries
    @property
    def segments(self) -> List[Tuple[float, float, float]]:
        """The silhouette as ``(x, y, width)`` runs (for tests/debugging)."""
        xs, ys = self.xs, self.ys
        out = []
        for i, (x, y) in enumerate(zip(xs, ys)):
            end = xs[i + 1] if i + 1 < len(xs) else self.width
            out.append((x, y, end - x))
        return out

    def fits(self, patch_width: float, patch_height: float) -> bool:
        """Exact: does any candidate admit a ``patch_width x patch_height``
        patch?  One bisect over the height-sorted profile."""
        heights = self.fit_heights
        index = bisect_left(heights, patch_height)
        return index < len(heights) and self.fit_maxw[index] >= patch_width

    def best_fit(
        self, patch_width: float, patch_height: float
    ) -> Optional[Tuple[int, float]]:
        """Best-short-side-fit ``(candidate_index, score)`` or ``None``.

        Same contract as a naive scan over :attr:`Canvas.free_rectangles`:
        lower score is better, strict ``<`` keeps the lowest index on
        ties, and the score is comparable across canvases (the global
        probe relies on that).
        """
        if not self.fits(patch_width, patch_height):
            return None
        best_index = -1
        best_score = float("inf")
        for index, (_x, _y, rect_w, rect_h) in enumerate(self.candidates):
            if rect_w >= patch_width and rect_h >= patch_height:
                slack_w = rect_w - patch_width
                slack_h = rect_h - patch_height
                score = slack_w if slack_w < slack_h else slack_h
                if score < best_score:
                    best_score = score
                    best_index = index
        if best_index < 0:  # pragma: no cover - fits() is exact
            return None
        return best_index, best_score

    def free_rects(self) -> List[FreeRect]:
        """The candidates as :class:`FreeRect` objects (``Canvas.
        free_rectangles`` view), in canonical candidate order."""
        return [FreeRect(x, y, w, h) for x, y, w, h in self.candidates]

    # ------------------------------------------------------------ mutation
    def place(
        self, rect_index: int, patch_width: float, patch_height: float
    ) -> Tuple[float, float]:
        """Place a patch at the bottom-left corner of candidate
        ``rect_index`` and return the placement's ``(x, y)``.

        A surface placement raises the silhouette over the patch
        footprint (recording bridged-over area as waste rectangles) and
        merges segments; a waste placement splits the remainder of the
        waste rectangle along the shorter leftover axis.
        """
        x, y, rect_w, rect_h = self.candidates[rect_index]
        if rect_w < patch_width or rect_h < patch_height:
            raise ValueError("patch does not fit in the chosen free rectangle")
        if rect_index < self.num_surface:
            self._bury(x, x + patch_width, y)
            self._raise(x, x + patch_width, y + patch_height)
        else:
            self._split_waste(rect_index - self.num_surface, patch_width, patch_height)
        self._regenerate()
        return x, y

    def _bury(self, x0: float, x1: float, level: float) -> None:
        """Record the area between the silhouette and ``level`` over
        ``[x0, x1)`` as waste rectangles (one per covered segment)."""
        xs, ys = self.xs, self.ys
        count = len(xs)
        i = bisect_right(xs, x0) - 1
        if i < 0:  # pragma: no cover - candidates start at >= 0
            i = 0
        waste = self.waste
        while i < count and xs[i] < x1:
            seg_end = xs[i + 1] if i + 1 < count else self.width
            left = xs[i] if xs[i] > x0 else x0
            right = seg_end if seg_end < x1 else x1
            depth = level - ys[i]
            if right - left > _SLIVER and depth > _SLIVER:
                waste.append((left, ys[i], right - left, depth))
            i += 1

    def _split_waste(
        self, waste_index: int, patch_width: float, patch_height: float
    ) -> None:
        """Consume a waste rectangle, re-adding the shorter-leftover-axis
        split remainders (the guillotine rule, minus the pruning — waste
        rectangles are disjoint by construction)."""
        x, y, rect_w, rect_h = self.waste.pop(waste_index)
        leftover_w = rect_w - patch_width
        leftover_h = rect_h - patch_height
        if leftover_w <= leftover_h:
            right = (x + patch_width, y, leftover_w, patch_height)
            bottom = (x, y + patch_height, rect_w, leftover_h)
        else:
            right = (x + patch_width, y, leftover_w, rect_h)
            bottom = (x, y + patch_height, patch_width, leftover_h)
        for candidate in (right, bottom):
            if candidate[2] > _SLIVER and candidate[3] > _SLIVER:
                self.waste.append(candidate)

    def _raise(self, x0: float, x1: float, top: float) -> None:
        """Set the silhouette over ``[x0, x1)`` to ``top`` (which is at or
        above every covered segment), splitting boundary segments and
        merging adjacent equal-height segments."""
        xs, ys = self.xs, self.ys
        if x1 > self.width - _SLIVER:
            # Absorb float fuzz at the right canvas edge.
            x1 = self.width
        first = bisect_right(xs, x0) - 1
        if first < 0:  # pragma: no cover - candidates start at >= 0
            first = 0
        # First segment with start >= x1: segments [first, after) are touched.
        after = bisect_left(xs, x1, lo=first + 1)
        tail_height = ys[after - 1]
        tail_start = xs[after] if after < len(xs) else self.width
        new_xs = [x0]
        new_ys = [top]
        if x1 < tail_start - _SLIVER:
            # x1 cuts segment ``after - 1``: keep its right remainder.
            new_xs.append(x1)
            new_ys.append(tail_height)
        keep = first + 1 if x0 > xs[first] + 1e-9 else first
        merged_xs = xs[:keep] + new_xs + xs[after:]
        merged_ys = ys[:keep] + new_ys + ys[after:]
        # Merge adjacent equal-height segments (the commit-time merge).
        out_xs = [merged_xs[0]]
        out_ys = [merged_ys[0]]
        for i in range(1, len(merged_xs)):
            if merged_ys[i] == out_ys[-1]:
                continue
            out_xs.append(merged_xs[i])
            out_ys.append(merged_ys[i])
        self.xs = out_xs
        self.ys = out_ys

    def _regenerate(self) -> None:
        """Derive the surface candidates, append the waste rectangles,
        and rebuild the fitness profile.

        Segment ``j`` owns a surface candidate when no equal-height
        segment lies further left within the candidate's span (the
        leftmost equal segment owns it, so spans sharing a level produce
        one candidate).  The candidate rests on ``ys[j]``, spans every
        contiguous neighbour of height ``<= ys[j]``, and reaches the
        canvas top.
        """
        xs, ys = self.xs, self.ys
        count = len(xs)
        width = self.width
        height = self.height
        candidates: List[Tuple[float, float, float, float]] = []
        append = candidates.append
        for j in range(count):
            level = ys[j]
            h_avail = height - level
            if h_avail <= _SLIVER:
                continue
            start = j
            owned = True
            while start > 0:
                left_y = ys[start - 1]
                if left_y > level:
                    break
                if left_y == level:
                    owned = False
                    break
                start -= 1
            if not owned:
                continue
            stop = j + 1
            while stop < count and ys[stop] <= level:
                stop += 1
            x_left = xs[start]
            x_right = xs[stop] if stop < count else width
            w_avail = x_right - x_left
            if w_avail > _SLIVER:
                append((x_left, level, w_avail, h_avail))
        self.num_surface = len(candidates)
        if self.waste:
            candidates += self.waste
        self.candidates = candidates
        # Fitness profile: heights ascending, suffix-max of widths.
        pairs = sorted([(cand[3], cand[2]) for cand in candidates])
        size = len(pairs)
        fit_heights = [0.0] * size
        fit_maxw = [0.0] * size
        running = 0.0
        for pos in range(size - 1, -1, -1):
            cand_h, cand_w = pairs[pos]
            if cand_w > running:
                running = cand_w
            fit_heights[pos] = cand_h
            fit_maxw[pos] = running
        self.fit_heights = fit_heights
        self.fit_maxw = fit_maxw

    # ---------------------------------------------------------- validation
    def check_invariants(self) -> None:
        """Assert the structural invariants (used by the property tests):
        segments cover ``[0, width)`` in strictly increasing x order,
        heights stay within the canvas, adjacent heights differ, surface
        candidates are maximal empty rectangles of the silhouette, and
        waste rectangles stay below the silhouette and disjoint.
        """
        xs, ys = self.xs, self.ys
        assert len(xs) == len(ys) and xs, "segment run must be non-empty"
        assert xs[0] == 0.0, "first segment must start at the canvas origin"
        for i in range(1, len(xs)):
            assert xs[i] > xs[i - 1], "segment starts must strictly increase"
            assert ys[i] != ys[i - 1], "adjacent segments must be merged"
        assert xs[-1] < self.width + 1e-9, "segments must not start past the edge"
        for y in ys:
            assert -1e-9 <= y <= self.height + 1e-9, "height outside the canvas"
        ends = xs[1:] + [self.width]
        assert self.candidates[self.num_surface :] == self.waste
        for x, y, w, h in self.candidates[: self.num_surface]:
            assert h == self.height - y, "surface candidate must reach the top"
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
        for index, (x, y, w, h) in enumerate(self.waste):
            assert w > _SLIVER and h > _SLIVER, "sliver waste rectangle"
            assert x >= -1e-9 and y >= -1e-9, "waste outside the canvas"
            assert x + w <= self.width + 1e-9 and y + h <= self.height + 1e-9
            # Below the silhouette: every covered segment tops it.
            seg = bisect_right(xs, x) - 1
            covered = x
            while covered < x + w - 1e-9:
                assert ys[seg] >= y + h - 1e-6, "waste rectangle pokes above"
                covered = ends[seg]
                seg += 1
            for other_index in range(index + 1, len(self.waste)):
                ox, oy, ow, oh = self.waste[other_index]
                overlap_w = min(x + w, ox + ow) - max(x, ox)
                overlap_h = min(y + h, oy + oh) - max(y, oy)
                assert (
                    overlap_w <= 1e-6 or overlap_h <= 1e-6
                ), "waste rectangles must stay disjoint"
