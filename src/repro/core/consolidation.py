"""The overflow-consolidation subsystem of the incremental stitcher.

When an arriving patch fits no live free rectangle even though the
pending canvases hold ample free space (a *wasteful overflow*), the
incremental stitcher tries to *consolidate*: pop the least-efficient
canvases off a running efficiency heap, trial re-pack their patches
together with the incoming one, and adopt the result only when it needs
at least one canvas fewer than opening a new one
(:meth:`ConsolidationEngine.plan`).  ``tests/test_consolidation.py``
pins every plan byte-identical to a reference implementation of the
original inline planner.

Two exact pre-checks reject pools whose trial pack provably fails — too
little combined free area, or more :func:`unpairable` patches than
allowed canvases — so they never change a decision.  Every other
attempt with victims runs the trial pack: first-fit-decreasing is not
monotone in the incoming patch, so neither a remembered failure of the
same pool nor the victims' largest free rectangles can predict the
outcome (a from-scratch re-pack can create room no current free
rectangle offers).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.patches import Patch

if TYPE_CHECKING:  # pragma: no cover - stitching imports this module
    from repro.core.stitching import IncrementalStitcher, PlacementPlan

__all__ = [
    "ConsolidationEngine",
    "MAX_PARTIAL_VICTIMS",
    "PARTIAL_PATCH_BUDGET",
    "unpairable",
]

#: Most canvases one consolidation may dissolve at once.  No victim set
#: on the four end-to-end benchmark workloads exceeds it (the patch
#: budget binds first); a stream of small patches can reach it.
MAX_PARTIAL_VICTIMS = 8

#: Most patches one overflow re-pack may pool.  While the whole queue
#: plus the arriving patch fits it, a wasteful overflow re-packs the
#: whole queue; past that, it consolidates the least-efficient canvases
#: with at most this many pooled patches.  Each stitcher copies it to
#: its ``partial_patch_budget`` attribute.
PARTIAL_PATCH_BUDGET = 48


class ConsolidationEngine:
    """Consolidation state and planning for one stitcher.

    The engine reads the live canvas list, the batch solver, and the
    patch budget straight from its owner (they are one object split
    across two modules, not an abstraction boundary) and keeps
    everything only consolidation needs: the efficiency heap, the
    version stamps, and the backoff.

    Parameters
    ----------
    stitcher:
        The owning :class:`~repro.core.stitching.IncrementalStitcher`.
    """

    def __init__(self, stitcher: "IncrementalStitcher") -> None:
        self.stitcher = stitcher
        #: Running min-heap of ``(efficiency, canvas_index, stamp)`` over
        #: the live non-oversized canvases.  Entries are invalidated
        #: lazily: a slot mutation bumps ``_stamps[slot]`` and pushes a
        #: fresh entry; stale entries are dropped when popped.  Slot
        #: deletions shift later indices and force a rebuild.
        self._heap: List[Tuple[float, int, int]] = []
        self._stamps: List[int] = []
        #: Failed-attempt backoff state (probe bookkeeping only).
        self._failures = 0
        self._retry_size = 0
        self.stats: Dict[str, int] = {
            "attempts": 0,
            "trial_packs": 0,
            "capacity_rejects": 0,
            "unpairable_rejects": 0,
        }

    # ------------------------------------------------------------- lifecycle
    def rebuild(self) -> None:
        """Re-seed heap and stamps from the stitcher's live canvas list
        and clear the backoff.  Called whenever the list itself was
        replaced or slots were deleted (adopting a re-pack, resetting the
        queue, a consolidating commit)."""
        canvases = self.stitcher._canvases
        self._stamps = [0] * len(canvases)
        heap = [
            (canvas.efficiency, index, 0)
            for index, canvas in enumerate(canvases)
            if not canvas.oversized
        ]
        heapq.heapify(heap)
        self._heap = heap
        self._failures = 0
        self._retry_size = 0

    def touch(self, index: int) -> None:
        """Record a mutation of canvas slot ``index``: invalidate its old
        heap entries and push one with the current efficiency."""
        stamps = self._stamps
        while len(stamps) <= index:
            stamps.append(0)
        stamps[index] += 1
        canvas = self.stitcher._canvases[index]
        if not canvas.oversized:
            heapq.heappush(self._heap, (canvas.efficiency, index, stamps[index]))

    # ----------------------------------------------------------------- probe
    def plan(self, patch: Patch) -> Optional["PlacementPlan"]:
        """A ``"partial"`` plan consolidating one wasteful overflow, or
        ``None`` to fall back to opening a new canvas.

        After a failed attempt the next one waits until the queue grew
        by the failure streak: a queue that just refused to consolidate
        will refuse again until it has changed.  An adopted plan packs
        the victims' patches plus ``patch`` into at most
        ``len(victims)`` canvases, so it never leaves more canvases —
        hence never lower mean canvas efficiency — than not re-packing.
        """
        from repro.core.stitching import PlacementPlan

        stitcher = self.stitcher
        queued = len(stitcher._patches)
        if queued < self._retry_size:
            return None  # backing off: the queue has not grown enough
        stats = self.stats
        stats["attempts"] += 1
        plan = None
        pool, pool_used, victim_indices = self.select_victims(patch)
        victims = len(victim_indices)
        if victims:
            solver = stitcher.solver
            canvas_w = solver.canvas_width
            canvas_h = solver.canvas_height
            if victims * solver.canvas_area - pool_used < patch.area:
                # The victims' combined free space cannot hold the patch.
                stats["capacity_rejects"] += 1
            elif sum(1 for p in pool if unpairable(p, canvas_w, canvas_h)) > victims:
                # More never-pairing patches than allowed canvases: the
                # trial pack must overflow.  O(pool), before any packing.
                stats["unpairable_rejects"] += 1
            else:
                stats["trial_packs"] += 1
                repacked = solver.pack_within(pool, victims)
                if repacked is not None:
                    delta = len(repacked) - victims
                    plan = PlacementPlan(
                        patch=patch,
                        kind="partial",
                        canvases_after=len(stitcher._canvases) + delta,
                        equivalent_after=stitcher._equivalent + delta,
                        repacked=repacked,
                        victim_indices=victim_indices,
                    )
        if plan is None:
            self._failures += 1
            self._retry_size = queued + self._failures
        else:
            self._failures = 0
            self._retry_size = 0
        return plan

    # -------------------------------------------------------------- victims
    def select_victims(self, patch: Patch) -> Tuple[List[Patch], float, List[int]]:
        """Pop the victim set for one attempt off the efficiency heap.

        Victims come off the heap in ascending ``(efficiency,
        canvas_index)`` order — the same order the former per-overflow
        rescan-and-sort produced (pinned by ``tests/test_skyline.py``) —
        bounded by :data:`MAX_PARTIAL_VICTIMS` and by the stitcher's
        ``partial_patch_budget`` pooled patches.  Stale heap entries are
        dropped for good; valid ones popped here are pushed back before
        returning, because a probe must not consume state.

        Returns ``(pool, pool_used, victim_indices)`` where ``pool`` is
        ``[patch] + victims' patches`` and ``pool_used`` the victims'
        total used area.
        """
        stitcher = self.stitcher
        heap = self._heap
        stamps = self._stamps
        canvases = stitcher._canvases
        budget = stitcher.partial_patch_budget
        pool: List[Patch] = [patch]
        pool_used = 0.0
        victim_indices: List[int] = []
        popped: List[Tuple[float, int, int]] = []
        while heap and len(victim_indices) < MAX_PARTIAL_VICTIMS:
            if len(pool) >= budget:
                # Every canvas holds at least one patch, so no remaining
                # candidate can fit the budget — same decisions as
                # scanning on, minus the scan.
                break
            entry = heapq.heappop(heap)
            if entry[2] != stamps[entry[1]]:
                continue  # stale: the slot mutated after this was pushed
            popped.append(entry)
            canvas = canvases[entry[1]]
            if len(pool) + canvas.num_patches > budget:
                # This victim alone would blow the budget, but a later,
                # sparser candidate may still fit it.
                continue
            pool.extend(canvas.patches)
            pool_used += canvas.used_area
            victim_indices.append(entry[1])
        for entry in popped:
            heapq.heappush(heap, entry)
        return pool, pool_used, victim_indices

    def heap_entries(self) -> List[Tuple[float, int]]:
        """Read-only snapshot of the *valid* efficiency-heap entries as
        sorted ``(efficiency, canvas_index)`` pairs — the victim
        candidates the next attempt would see, in selection order.  The
        introspection surface the test suite pins heap behaviour
        through (instead of reaching into the private heap and stamp
        lists)."""
        stamps = self._stamps
        return sorted(
            (efficiency, index)
            for efficiency, index, stamp in self._heap
            if stamp == stamps[index]
        )


def unpairable(patch: Patch, canvas_width: float, canvas_height: float) -> bool:
    """True when no two such patches can ever share one canvas.

    Two non-overlapping axis-aligned rectangles inside a ``W x H`` box
    must be separated along x (their widths sum to at most ``W``) or
    along y (heights sum to at most ``H``); a patch strictly wider than
    ``W/2`` *and* strictly taller than ``H/2`` rules out both with any
    partner of the same kind.  Counting these gives an exact lower bound
    on the canvases a pool needs.
    """
    return patch.width > 0.5 * canvas_width and patch.height > 0.5 * canvas_height
