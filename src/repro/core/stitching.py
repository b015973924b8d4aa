"""Algorithm 2 (lines 24-39): the patch-stitching solver.

Patches of heterogeneous sizes are packed onto fixed-size canvases so a
batch of canvases can be fed to the DNN as a uniform tensor.  The solver
is a best-short-side-fit packer, exactly as the pseudo-code describes:

* among the free rectangles that can hold the patch, pick the one whose
  smaller leftover side ``min(w_c - w_i, h_c - h_i)`` is smallest;
* place the patch at the bottom-left corner of that free rectangle;
* account the remaining space as new free rectangles;
* if no free rectangle fits, open a new blank canvas.

The module holds the two packers:

* :class:`PatchStitchingSolver` — the batch packer (one ``pack()`` per
  queue, first-fit-decreasing over the canvases);
* :class:`IncrementalStitcher` — the online fast path that keeps the
  packing alive across arrivals (probe/commit, global best-short-side-
  fit over all live pools, consolidation on wasteful overflow).

Their substrates live in sibling modules: the canvas itself (its
skyline free-space bookkeeping) in :mod:`repro.core.canvas`, and the
overflow-consolidation subsystem (victim heap, retry backoff, trial
re-pack) in :mod:`repro.core.consolidation`.

Patches are never resized, padded, rotated, or overlapped -- that is the
point of the design (resizing costs accuracy, padding costs compute).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

# Re-exported for backwards compatibility: the canvas moved to its own
# module when the consolidation subsystem was extracted, but
# ``repro.core.stitching.Canvas`` remains the documented import path.
from repro.core.canvas import Canvas, Placement  # noqa: F401
from repro.core.consolidation import PARTIAL_PATCH_BUDGET, ConsolidationEngine
from repro.core.patches import Patch
from repro.core.skyline import Skyline
from repro.video.geometry import Box


class PatchStitchingSolver:
    """Packs a queue of patches onto a sequence of fixed-size canvases.

    Parameters
    ----------
    canvas_width, canvas_height:
        The uniform canvas size ``M x N`` (the paper uses 1024 x 1024);
        both must be positive and finite.
    sort_patches:
        When true, patches are packed in decreasing area order, the classic
        first-fit-decreasing improvement.  The paper's online algorithm
        re-packs the whole queue every time a patch arrives, so ordering is
        a solver implementation choice; decreasing-area ordering measurably
        improves canvas efficiency and is used by default.
    allow_oversized:
        When a patch exceeds the canvas dimensions, open a dedicated canvas
        of exactly the patch's size instead of failing.  Coarse partition
        granularities (2 x 2 on a 4K frame) can produce such patches.

    Each canvas's exact O(log n) skyline fitness test turns the first-fit
    scan over full canvases into a bisect (see :mod:`repro.core.skyline`).
    """

    def __init__(
        self,
        canvas_width: float = 1024.0,
        canvas_height: float = 1024.0,
        sort_patches: bool = True,
        allow_oversized: bool = True,
    ) -> None:
        if not (math.isfinite(canvas_width) and math.isfinite(canvas_height)):
            raise ValueError("canvas dimensions must be finite")
        if canvas_width <= 0 or canvas_height <= 0:
            raise ValueError("canvas dimensions must be positive")
        self.canvas_width = canvas_width
        self.canvas_height = canvas_height
        self.sort_patches = sort_patches
        self.allow_oversized = allow_oversized

    @property
    def canvas_area(self) -> float:
        return self.canvas_width * self.canvas_height

    def pack(self, patches: Sequence[Patch]) -> List[Canvas]:
        """Stitch ``patches`` onto as few canvases as the heuristic manages.

        The solver is deterministic: the same queue always produces the
        same packing, which the online scheduler relies on when it re-packs
        after every arrival.
        """
        result = self._pack(patches)
        assert result is not None
        return result

    def pack_within(
        self, patches: Sequence[Patch], max_canvases: int
    ) -> Optional[List[Canvas]]:
        """Like :meth:`pack`, but give up as soon as the packing would need
        more than ``max_canvases`` canvases and return ``None``.

        The consolidation planner only adopts a trial re-pack that
        *consolidates* (needs at most as many canvases as it dissolves),
        so a trial that overflows the victim count is dead on arrival —
        aborting it at the moment the ``max_canvases + 1``-th canvas
        would open skips the rest of the doomed pack.  Decisions are
        identical to packing fully and rejecting afterwards.
        """
        return self._pack(patches, max_canvases=max_canvases)

    def _pack(
        self, patches: Sequence[Patch], max_canvases: Optional[int] = None
    ) -> Optional[List[Canvas]]:
        ordered = list(patches)
        if self.sort_patches:
            ordered.sort(key=lambda patch: patch.area, reverse=True)

        canvases: List[Canvas] = []
        #: The open (non-oversized) canvases and, in parallel, their
        #: skylines, so the first-fit loop can reject a full canvas with
        #: one bisect and two list indexings -- no method call, no scan.
        open_list: List[Canvas] = []
        skylines: List[Skyline] = []
        next_id = 0
        for patch in ordered:
            if not patch.fits_on(self.canvas_width, self.canvas_height):
                if not self.allow_oversized:
                    raise ValueError(
                        f"patch {patch.patch_id} ({patch.width:.0f}x{patch.height:.0f}) "
                        "exceeds the canvas size "
                        f"{self.canvas_width:.0f}x{self.canvas_height:.0f}"
                    )
                if max_canvases is not None and len(canvases) >= max_canvases:
                    # A dedicated oversized canvas would breach the cap just
                    # like a regular one (pack-then-reject counts both).
                    return None
                oversized = Canvas(
                    width=patch.width,
                    height=patch.height,
                    canvas_id=next_id,
                    oversized=True,
                )
                next_id += 1
                oversized.try_place(patch)
                canvases.append(oversized)
                continue

            placed = False
            patch_w = patch.width
            patch_h = patch.height
            for index, sky in enumerate(skylines):
                heights = sky.fit_heights
                cut = bisect_left(heights, patch_h)
                if cut == len(heights) or sky.fit_maxw[cut] < patch_w:
                    continue
                fit = sky.best_fit(patch_w, patch_h)
                assert fit is not None  # the profile test is exact
                open_list[index].place(patch, fit[0])
                placed = True
                break
            if not placed:
                if max_canvases is not None and len(canvases) >= max_canvases:
                    return None
                canvas = Canvas(
                    width=self.canvas_width,
                    height=self.canvas_height,
                    canvas_id=next_id,
                )
                next_id += 1
                if canvas.try_place(patch) is None:  # pragma: no cover - cannot happen
                    raise RuntimeError("fresh canvas failed to accept a fitting patch")
                canvases.append(canvas)
                open_list.append(canvas)
                skylines.append(canvas.skyline)
        return canvases

    # ------------------------------------------------------------- statistics
    @staticmethod
    def total_pixels(canvases: Iterable[Canvas]) -> float:
        """Total canvas area of a packing, the quantity inference pays for."""
        return sum(canvas.area for canvas in canvases)

    @staticmethod
    def mean_efficiency(canvases: Sequence[Canvas]) -> float:
        if not canvases:
            return 0.0
        return sum(canvas.efficiency for canvas in canvases) / len(canvases)

    @staticmethod
    def validate_packing(canvases: Iterable[Canvas], strict: bool = False) -> None:
        """Assert the packing invariants: placements stay inside the canvas
        and, in ``strict`` mode, never overlap.  Raises ``AssertionError``
        on violation.

        The default mode only runs the O(n) in-bounds check so the call is
        cheap enough for hot loops and sanity assertions.  ``strict=True``
        adds the expensive debug recomputations — the cached ``used_area``
        cross-check and the pairwise overlap sweep — and is what the test
        suite always runs (see the strict call sites under ``tests/``).

        The pairwise overlap check runs as an x-sorted sweep: boxes are
        sorted by their left edge and each box is only compared against the
        following boxes whose left edge starts before its right edge, so
        the cost is O(n log n + k) for k x-overlapping pairs instead of the
        former O(n^2) over all pairs.
        """
        for canvas in canvases:
            bounds = Box(0.0, 0.0, canvas.width, canvas.height)
            boxes: List[Tuple[int, Box]] = [
                (placement.patch.patch_id, placement.box)
                for placement in canvas.placements
            ]
            for patch_id, box in boxes:
                if not bounds.contains_box(box):
                    raise AssertionError(
                        f"patch {patch_id} is placed outside canvas {canvas.canvas_id}"
                    )
            if not strict:
                continue
            recomputed = canvas.recompute_used_area()
            if abs(canvas.used_area - recomputed) > 1e-6 * max(1.0, recomputed):
                raise AssertionError(
                    f"canvas {canvas.canvas_id}: cached used_area "
                    f"{canvas.used_area:.3f} drifted from recomputed {recomputed:.3f}"
                )
            boxes.sort(key=lambda entry: entry[1].x)
            for i in range(len(boxes)):
                id_i, box_i = boxes[i]
                right_edge = box_i.x2
                for j in range(i + 1, len(boxes)):
                    id_j, box_j = boxes[j]
                    if box_j.x >= right_edge:
                        break  # sorted by x: no later box can overlap box_i
                    overlap = box_i.intersection_area(box_j)
                    if overlap > 1e-6:
                        raise AssertionError(
                            f"patches {id_i} and {id_j} overlap by "
                            f"{overlap:.2f} px^2 on canvas {canvas.canvas_id}"
                        )


def equivalent_canvases(canvases: Iterable[Canvas], canvas_pixels: float) -> int:
    """Number of standard-size canvases a packing is charged as.

    Oversized canvases count as the equivalent number of standard canvases,
    rounded up, which keeps the latency estimator's slack conservative:
    the scheduler asks it for the slack of this many canvases.
    """
    if canvas_pixels <= 0:
        raise ValueError("canvas_pixels must be positive")
    equivalent = 0
    for canvas in canvases:
        if canvas.oversized:
            equivalent += int(math.ceil(canvas.area / canvas_pixels))
        else:
            equivalent += 1
    return equivalent


@dataclass
class PlacementPlan:
    """The incremental packer's answer to "where would this patch go?".

    A plan is produced by :meth:`IncrementalStitcher.probe` without mutating
    any state, so the scheduler can decide whether to accept the patch into
    the running batch (then :meth:`IncrementalStitcher.commit` the plan) or
    to ship the current canvases untouched and start a fresh queue.
    """

    patch: Patch
    #: ``"fit"`` (placed into an existing canvas), ``"new"`` (opens a blank
    #: canvas), ``"oversized"`` (opens a dedicated oversized canvas),
    #: ``"repack"`` (the whole queue was re-packed from scratch), or
    #: ``"partial"`` (only the least-efficient canvases were re-packed
    #: together with the incoming patch).
    kind: str
    #: Canvas count if the plan is committed (GPU-memory constraint input).
    canvases_after: int
    #: Standard-canvas equivalent count if committed (latency-slack input).
    equivalent_after: int
    canvas_index: int = -1
    rect_index: int = -1
    #: For ``kind == "repack"``: the already-computed packing of the whole
    #: queue.  For ``kind == "partial"``: the replacement canvases of the
    #: re-packed victims (always fewer than ``victims + 1``).
    repacked: Optional[List[Canvas]] = None
    #: For ``kind == "partial"``: indices of the canvases being dissolved
    #: into ``repacked`` (the least-efficient ones first).
    victim_indices: Optional[List[int]] = None


class IncrementalStitcher:
    """Maintains a live packing across patch arrivals (the fast path).

    The batch :class:`PatchStitchingSolver` re-packs the whole queue on
    every arrival, which makes the online scheduler's hot path
    O(n * canvases * free-rects) per patch.  This class instead keeps the
    canvases and their skylines alive and places each new patch with a
    *global* best-short-side-fit over all live canvases
    (:meth:`linear_best_fit`).

    Packing patches in arrival order is worse than the batch solver's
    decreasing-area order, but the live packing's efficiency can only drop
    at the moment a *new canvas opens* (placing into an existing canvas
    always raises fill).  So the stitcher intervenes exactly there: when a
    patch is about to open a canvas even though the existing canvases still
    hold at least ``1.05 * patch.area`` of free space — the signature of
    ordering/fragmentation loss rather than genuine overflow — it
    re-packs, bounded by the
    :data:`~repro.core.consolidation.PARTIAL_PATCH_BUDGET` of 48 pooled
    patches: while the whole queue plus the patch fits the budget it
    re-packs the whole queue in decreasing-area order (tracking the
    batch packer exactly); past that it consolidates at most
    :data:`~repro.core.consolidation.MAX_PARTIAL_VICTIMS` of the
    least-efficient canvases through the trial re-pack of
    :mod:`repro.core.consolidation`, which keeps the overflow path O(a
    few canvases) at fleet-scale queue depths.

    Parameters
    ----------
    solver:
        The batch solver used for full re-packs (and whose canvas size
        defines the packing geometry).
    equivalent_canvas_pixels:
        Pixel area of one standard canvas used for the equivalent-canvas
        accounting; defaults to the solver's canvas area.  Pass the latency
        estimator's ``canvas_pixels`` when the two are configured apart.
        Must be positive and finite.
    """

    def __init__(
        self,
        solver: Optional[PatchStitchingSolver] = None,
        equivalent_canvas_pixels: Optional[float] = None,
    ) -> None:
        self.solver = solver or PatchStitchingSolver()
        #: The re-pack budget.  Production never changes it; tests lower
        #: it after construction to reach partial re-packs on short
        #: streams.
        self.partial_patch_budget = PARTIAL_PATCH_BUDGET
        self.equivalent_canvas_pixels = (
            self.solver.canvas_area
            if equivalent_canvas_pixels is None
            else equivalent_canvas_pixels
        )
        if not math.isfinite(self.equivalent_canvas_pixels):
            raise ValueError("equivalent_canvas_pixels must be finite")
        if self.equivalent_canvas_pixels <= 0:
            raise ValueError("equivalent_canvas_pixels must be positive")
        self.stats = {
            "probes": 0,
            "incremental_placements": 0,
            "new_canvases": 0,
            "oversized_canvases": 0,
            "full_repacks": 0,
            "partial_repacks": 0,
            "resets": 0,
        }
        self._patches: List[Patch] = []
        self._canvases: List[Canvas] = []
        # The consolidation engine owns the efficiency heap, the retry
        # backoff, and the trial re-pack.
        self._consolidation = ConsolidationEngine(self)
        self._consolidation.rebuild()
        self._next_id = 0
        self._equivalent = 0
        #: Total patch area on non-oversized canvases (drift bookkeeping).
        self._active_used = 0.0
        self._active_count = 0

    # ------------------------------------------------------------------ state
    @property
    def canvases(self) -> List[Canvas]:
        return self._canvases

    @property
    def patches(self) -> List[Patch]:
        return list(self._patches)

    @property
    def num_patches(self) -> int:
        return len(self._patches)

    @property
    def num_canvases(self) -> int:
        return len(self._canvases)

    @property
    def equivalent(self) -> int:
        """Standard-canvas equivalent count of the live packing."""
        return self._equivalent

    @property
    def mean_canvas_efficiency(self) -> float:
        """Mean per-canvas efficiency of the live packing (Fig. 13)."""
        return PatchStitchingSolver.mean_efficiency(self._canvases)

    @property
    def consolidation_engine(self) -> ConsolidationEngine:
        """The consolidation engine, exposed read-only for introspection
        (tests pin heap contents through
        :meth:`~repro.core.consolidation.ConsolidationEngine.
        heap_entries` instead of reaching into private attributes)."""
        return self._consolidation

    @property
    def consolidation_stats(self) -> dict:
        """Counters of the consolidation engine (attempts, trial packs,
        and the two pre-checks' rejections)."""
        return dict(self._consolidation.stats)

    # ------------------------------------------------------------ probe/commit
    def probe(self, patch: Patch) -> PlacementPlan:
        """Plan the placement of ``patch`` without mutating any state."""
        self.stats["probes"] += 1
        solver = self.solver
        if not patch.fits_on(solver.canvas_width, solver.canvas_height):
            if not solver.allow_oversized:
                raise ValueError(
                    f"patch {patch.patch_id} ({patch.width:.0f}x{patch.height:.0f}) "
                    "exceeds the canvas size "
                    f"{solver.canvas_width:.0f}x{solver.canvas_height:.0f}"
                )
            extra = int(math.ceil(patch.area / self.equivalent_canvas_pixels))
            return PlacementPlan(
                patch=patch,
                kind="oversized",
                canvases_after=len(self._canvases) + 1,
                equivalent_after=self._equivalent + max(1, extra),
            )
        fit = self.linear_best_fit(patch)
        if fit is not None:
            best_canvas, best_rect, _score = fit
            return PlacementPlan(
                patch=patch,
                kind="fit",
                canvases_after=len(self._canvases),
                equivalent_after=self._equivalent,
                canvas_index=best_canvas,
                rect_index=best_rect,
            )
        if self._should_repack_on_overflow(patch):
            # Re-pack work is bounded by the patch budget: when the whole
            # queue fits it, a full re-pack *is* the bounded operation
            # (and tracks the batch packer exactly); past that,
            # consolidate only the worst canvases.
            if len(self._patches) + 1 <= self.partial_patch_budget:
                return self._full_repack_plan(patch)
            plan = self._consolidation.plan(patch)
            if plan is not None:
                return plan
        return PlacementPlan(
            patch=patch,
            kind="new",
            canvases_after=len(self._canvases) + 1,
            equivalent_after=self._equivalent + 1,
        )

    def _full_repack_plan(self, patch: Patch) -> PlacementPlan:
        """A ``"repack"`` plan: the whole queue plus ``patch``, batch-packed."""
        repacked = self.solver.pack(self._patches + [patch])
        return PlacementPlan(
            patch=patch,
            kind="repack",
            canvases_after=len(repacked),
            equivalent_after=equivalent_canvases(
                repacked, self.equivalent_canvas_pixels
            ),
            repacked=repacked,
        )

    def linear_best_fit(self, patch: Patch) -> Optional[Tuple[int, int, float]]:
        """The global best-short-side-fit scan: ``(canvas_index,
        rect_index, score)`` minimising ``(score, canvas_index,
        rect_index)`` lexicographically, or ``None`` when nothing fits.

        One pass over the live canvases, where a skyline canvas that
        cannot hold the patch is rejected with one bisect of its fitness
        profile.  GPU memory caps a batch at a few dozen canvases, a
        range over which this scan beat both per-rectangle and
        per-canvas indexes on every benchmark workload; an index only
        pays off past ~100 live canvases.
        """
        best_canvas = -1
        best_rect = -1
        best_score = float("inf")
        for canvas_index, canvas in enumerate(self._canvases):
            if canvas.oversized:
                continue
            fit = canvas.best_fit(patch)
            if fit is not None and fit[1] < best_score:
                best_canvas = canvas_index
                best_rect, best_score = fit
        if best_canvas < 0:
            return None
        return best_canvas, best_rect, best_score

    def _should_repack_on_overflow(self, patch: Patch) -> bool:
        """Opening a canvas despite ample free space (at least 1.05 times
        the patch's area) signals drift.

        Every re-pack is bounded by the patch budget, so it needs no
        geometric spacing: intervene on every wasteful overflow.
        """
        if self._active_count == 0:
            return False
        free = self._active_count * self.solver.canvas_area - self._active_used
        return free >= 1.05 * patch.area

    def commit(self, plan: PlacementPlan) -> List[Canvas]:
        """Apply a plan produced by :meth:`probe`.

        The packing must not have been mutated between the probe and the
        commit (the scheduler calls them back to back).
        """
        patch = plan.patch
        self._patches.append(patch)
        if plan.kind == "repack":
            assert plan.repacked is not None
            self._adopt(plan.repacked)
            self.stats["full_repacks"] += 1
            return self._canvases
        if plan.kind == "partial":
            return self._commit_partial(plan)
        if plan.kind == "oversized":
            canvas = Canvas(
                width=patch.width,
                height=patch.height,
                canvas_id=self._next_id,
                oversized=True,
            )
            self._next_id += 1
            canvas.try_place(patch)
            self._canvases.append(canvas)
            self._equivalent = plan.equivalent_after
            self.stats["oversized_canvases"] += 1
            self._consolidation.touch(len(self._canvases) - 1)
            return self._canvases
        if plan.kind == "new":
            canvas = Canvas(
                width=self.solver.canvas_width,
                height=self.solver.canvas_height,
                canvas_id=self._next_id,
            )
            self._next_id += 1
            if canvas.try_place(patch) is None:  # pragma: no cover - cannot happen
                raise RuntimeError("fresh canvas failed to accept a fitting patch")
            self._canvases.append(canvas)
            self._equivalent += 1
            self._active_count += 1
            self._active_used += patch.area
            self.stats["new_canvases"] += 1
            self._consolidation.touch(len(self._canvases) - 1)
        else:  # "fit"
            canvas = self._canvases[plan.canvas_index]
            canvas.place(patch, plan.rect_index)
            self._active_used += patch.area
            self.stats["incremental_placements"] += 1
            self._consolidation.touch(plan.canvas_index)
        return self._canvases

    def _commit_partial(self, plan: PlacementPlan) -> List[Canvas]:
        """Adopt a consolidating trial re-pack: replace the victim slots
        with the replacement canvases."""
        assert plan.repacked is not None and plan.victim_indices
        replacements = plan.repacked
        victim_indices = plan.victim_indices
        for canvas in replacements:
            canvas.canvas_id = self._next_id
            self._next_id += 1
        # Replace victims slot-for-slot (so untouched canvases keep
        # their indices and heap entries stay valid); a consolidating
        # re-pack has fewer replacements than victims, so the leftover
        # victim slots are deleted, which shifts later indices and
        # forces a heap rebuild.
        reused = victim_indices[: len(replacements)]
        for slot, canvas in zip(reused, replacements):
            self._canvases[slot] = canvas
        removed = sorted(victim_indices[len(replacements) :], reverse=True)
        for slot in removed:
            del self._canvases[slot]
        self._active_count += len(replacements) - len(victim_indices)
        self._active_used += plan.patch.area
        self._equivalent = plan.equivalent_after
        self.stats["partial_repacks"] += 1
        if removed:
            self._consolidation.rebuild()
        else:
            for slot in reused:
                self._consolidation.touch(slot)
        return self._canvases

    def add(self, patch: Patch) -> List[Canvas]:
        """Probe and commit in one step (for callers without a veto stage)."""
        return self.commit(self.probe(patch))

    def reset(self, patches: Sequence[Patch] = ()) -> List[Canvas]:
        """Start a fresh queue (after the canvases were invoked)."""
        self._patches = list(patches)
        self._adopt(self.solver.pack(self._patches))
        self.stats["resets"] += 1
        return self._canvases

    # ------------------------------------------------------------------ drift
    def _adopt(self, canvases: List[Canvas]) -> None:
        """Take over a freshly batch-packed canvas list and re-seed the
        drift bookkeeping from it."""
        self._canvases = canvases
        self._next_id = len(canvases)
        self._equivalent = equivalent_canvases(canvases, self.equivalent_canvas_pixels)
        self._active_used = sum(
            canvas.used_area for canvas in canvases if not canvas.oversized
        )
        self._active_count = sum(1 for canvas in canvases if not canvas.oversized)
        self._consolidation.rebuild()
