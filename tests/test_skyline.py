"""Tests for the skyline free-space structure (``repro.core.skyline``).

Four pins:

* **Structural invariants** — segments stay x-sorted, merged, and within
  the canvas; surface candidates are maximal; waste rectangles stay
  disjoint and below the silhouette (``check_invariants``), and
  every packing invariant of the batch solver holds on skyline canvases.
* **Packing metrics against the guillotine oracle** — randomized
  comparisons of the batch packer's canvas count and mean canvas
  efficiency with :func:`tests.conftest.guillotine_pack` (Algorithm 2's
  guillotine split), up to queue depth 4096.
* **Best-fit exactness** — ``Skyline.best_fit``'s bisect fast-reject and
  tuple scan return exactly what a naive scan over ``free_rectangles``
  (the skyline's candidates as geometry) would, and the stitcher's
  global probe picks the canvas a naive scan of every live skyline
  canvas would.
* **Efficiency-heap selection** — ``_plan_partial_repack``'s running
  min-heap picks exactly the victims the former sort-per-overflow did.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consolidation import MAX_PARTIAL_VICTIMS
from repro.core.patches import Patch
from repro.core.skyline import Skyline
from repro.core.stitching import (
    Canvas,
    IncrementalStitcher,
    PatchStitchingSolver,
)
from repro.video.geometry import Box
from tests.conftest import (
    FreeRect,
    check_invariants,
    free_rectangles,
    guillotine_pack,
    segments,
)

patch_sizes = st.tuples(
    st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
    st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
)

fitting_sizes = st.tuples(
    st.floats(min_value=10.0, max_value=1000.0, allow_nan=False),
    st.floats(min_value=10.0, max_value=1000.0, allow_nan=False),
)


def _patches(size_list) -> list[Patch]:
    return [
        Patch(
            camera_id="cam",
            frame_index=0,
            region=Box(0.0, 0.0, width, height),
            generation_time=0.0,
            slo=1.0,
        )
        for width, height in size_list
    ]


def _small_budget_stitcher() -> IncrementalStitcher:
    """A stitcher whose 8-patch re-pack budget reaches partial re-packs
    within a few dozen arrivals."""
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    stitcher.partial_patch_budget = 8
    return stitcher


def _rng_patches(count: int, seed: int, lo: float = 64.0, hi: float = 640.0):
    rng = np.random.default_rng(seed)
    return _patches(
        zip(
            (float(w) for w in rng.uniform(lo, hi, size=count)),
            (float(h) for h in rng.uniform(lo, hi, size=count)),
        )
    )


# ------------------------------------------------------------ invariants
class TestSkylineInvariants:
    def test_fresh_skyline_is_one_floor_segment_and_one_candidate(self):
        sky = Skyline(1024.0, 768.0)
        assert segments(sky) == [(0.0, 0.0, 1024.0)]
        assert sky.candidates == [(0.0, 0.0, 1024.0, 768.0)]
        assert sky.num_surface == 1
        check_invariants(sky)

    def test_place_raises_silhouette_and_splits_segments(self):
        sky = Skyline(1000.0, 1000.0)
        x, y = sky.place(0, 400.0, 300.0)
        assert (x, y) == (0.0, 0.0)
        assert segments(sky) == [(0.0, 300.0, 400.0), (400.0, 0.0, 600.0)]
        check_invariants(sky)

    def test_equal_height_neighbours_merge_on_commit(self):
        sky = Skyline(1000.0, 1000.0)
        sky.place(0, 400.0, 300.0)
        # Place a second 300-tall patch on the floor next to the first:
        # the two 300-high runs must merge into one segment.
        floor = next(
            i for i, c in enumerate(sky.candidates) if c[1] == 0.0 and c[2] >= 600.0
        )
        x, y = sky.place(floor, 600.0, 300.0)
        assert (x, y) == (400.0, 0.0)
        assert segments(sky) == [(0.0, 300.0, 1000.0)]
        check_invariants(sky)

    def test_bridging_placement_records_waste(self):
        sky = Skyline(1000.0, 1000.0)
        sky.place(0, 400.0, 300.0)  # floor now 300 over [0,400), 0 over [400,1000)
        # Place a 900-wide patch on the 300-level candidate: it bridges
        # the 600-wide floor valley, which must become a waste rectangle.
        level = next(i for i, c in enumerate(sky.candidates) if c[1] == 300.0)
        x, y = sky.place(level, 900.0, 200.0)
        assert (x, y) == (0.0, 300.0)
        assert sky.waste == [(400.0, 0.0, 500.0, 300.0)]
        check_invariants(sky)
        # The waste rectangle is offered as a candidate and is usable.
        waste_index = sky.candidates.index((400.0, 0.0, 500.0, 300.0))
        wx, wy = sky.place(waste_index, 500.0, 300.0)
        assert (wx, wy) == (400.0, 0.0)
        check_invariants(sky)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(patch_sizes, min_size=1, max_size=40))
    def test_skyline_packing_invariants_hold(self, size_list):
        solver = PatchStitchingSolver()
        canvases = solver.pack(_patches(size_list))
        PatchStitchingSolver.validate_packing(canvases, strict=True)
        for canvas in canvases:
            assert canvas.skyline is not None
            check_invariants(canvas.skyline)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(patch_sizes, min_size=1, max_size=40))
    def test_incremental_skyline_invariants_hold_after_every_arrival(
        self, size_list
    ):
        stitcher = _small_budget_stitcher()
        for patch in _patches(size_list):
            stitcher.add(patch)
            PatchStitchingSolver.validate_packing(stitcher.canvases, strict=True)
            for canvas in stitcher.canvases:
                if canvas.skyline is not None:
                    check_invariants(canvas.skyline)

    def test_oversized_patch_gets_skyline_canvas_too(self):
        """A dedicated oversized canvas is a skyline canvas like any
        other: the patch sits at the origin and covers it, so no
        candidate is left."""
        solver = PatchStitchingSolver()
        canvases = solver.pack(_patches([(2048.0, 1100.0), (100.0, 100.0)]))
        oversized = [c for c in canvases if c.oversized]
        assert len(oversized) == 1
        (placement,) = oversized[0].placements
        assert (placement.x, placement.y) == (0.0, 0.0)
        assert segments(oversized[0].skyline) == [(0.0, 1100.0, 2048.0)]
        assert free_rectangles(oversized[0]) == []
        check_invariants(oversized[0].skyline)
        PatchStitchingSolver.validate_packing(canvases, strict=True)

    def test_skyline_canvas_rejects_free_rectangles_writes(self):
        """The skyline is the source of truth: a canvas has no free
        rectangle list of its own to write, so a write cannot desync
        reads from placement decisions, and its free rectangles are
        exactly the skyline's candidates."""
        canvas = Canvas(width=100, height=100)
        with pytest.raises(AttributeError):
            canvas.free_rectangles = [Box(0.0, 0.0, 50.0, 50.0)]
        assert free_rectangles(canvas) == [FreeRect(0.0, 0.0, 100.0, 100.0)]
        canvas.try_place(_patches([(60.0, 40.0)])[0])
        assert free_rectangles(canvas) == [
            FreeRect(0.0, 40.0, 100.0, 60.0),
            FreeRect(60.0, 0.0, 40.0, 100.0),
        ]

    def test_free_rect_quacks_like_box(self):
        rect = FreeRect(10.0, 20.0, 30.0, 40.0)
        box = Box(10.0, 20.0, 30.0, 40.0)
        assert rect.area == box.area
        assert (rect.x2, rect.y2) == (box.x2, box.y2)
        assert rect.as_tuple() == box.as_tuple()
        assert rect.contains_box(Box(12.0, 22.0, 5.0, 5.0))
        assert not rect.contains_box(Box(0.0, 0.0, 5.0, 5.0))
        assert rect == FreeRect(10.0, 20.0, 30.0, 40.0)
        assert rect != FreeRect(10.0, 20.0, 30.0, 41.0)


# ----------------------------------------------------- best-fit exactness
def _naive_best_fit(canvas: Canvas, patch: Patch):
    """The reference scan: strict ``<`` over ``free_rectangles`` order."""
    best_index = -1
    best_score = float("inf")
    for index, rect in enumerate(free_rectangles(canvas)):
        if rect.width >= patch.width and rect.height >= patch.height:
            score = min(rect.width - patch.width, rect.height - patch.height)
            if score < best_score:
                best_score = score
                best_index = index
    if best_index < 0:
        return None
    return best_index, best_score


class TestBestFitExactness:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(fitting_sizes, min_size=1, max_size=25),
        st.lists(fitting_sizes, min_size=1, max_size=10),
    )
    def test_skyline_best_fit_matches_naive_scan(self, placed, probes):
        canvas = Canvas(width=1024, height=1024)
        for patch in _patches(placed):
            canvas.try_place(patch)
        for probe in _patches(probes):
            assert canvas.best_fit(probe) == _naive_best_fit(canvas, probe)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(fitting_sizes, min_size=1, max_size=25),
        st.lists(fitting_sizes, min_size=1, max_size=10),
    )
    def test_fits_profile_is_exact(self, placed, probes):
        canvas = Canvas(width=1024, height=1024)
        for patch in _patches(placed):
            canvas.try_place(patch)
        sky = canvas.skyline
        assert sky is not None
        for probe in _patches(probes):
            expected = any(
                w >= probe.width and h >= probe.height
                for (_x, _y, w, h) in sky.candidates
            )
            assert sky.fits(probe.width, probe.height) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(patch_sizes, min_size=1, max_size=40))
    def test_index_matches_linear_probe_on_skyline_canvases(self, size_list):
        """The canvas index, rectangle and score the stitcher's probe
        picks equal a naive global scan of every live skyline canvas's
        ``free_rectangles`` (first canvas wins ties): the per-canvas
        bisect fast-reject never hides the global best short-side fit."""
        stitcher = IncrementalStitcher(PatchStitchingSolver())
        for patch in _patches(size_list):
            expected = None
            for index, canvas in enumerate(stitcher.canvases):
                if canvas.oversized:
                    continue
                fit = _naive_best_fit(canvas, patch)
                if fit is not None and (expected is None or fit[1] < expected[2]):
                    expected = (index, fit[0], fit[1])
            assert stitcher.linear_best_fit(patch) == expected
            plan = stitcher.probe(patch)
            if plan.kind == "fit":
                assert (plan.canvas_index, plan.rect_index) == expected[:2]
            else:
                assert expected is None
            stitcher.commit(plan)


# ----------------------------------------- skyline vs the guillotine oracle
def _pack_metrics(patches, pack):
    canvases = pack(patches)
    PatchStitchingSolver.validate_packing(canvases, strict=True)
    efficiency = PatchStitchingSolver.mean_efficiency(canvases)
    return len(canvases), efficiency


def _skyline_metrics(patches):
    return _pack_metrics(patches, PatchStitchingSolver().pack)


def _guillotine_metrics(patches):
    return _pack_metrics(patches, guillotine_pack)


class TestStructureEquivalence:
    """The skyline batch packer against the guillotine oracle."""

    @pytest.mark.parametrize(
        "depth,seed", [(64, 3), (64, 11), (256, 5), (256, 23), (1024, 7)]
    )
    def test_randomized_batch_pack_metrics_match(self, depth, seed):
        patches = _rng_patches(depth, seed)
        g_count, g_eff = _guillotine_metrics(patches)
        s_count, s_eff = _skyline_metrics(patches)
        # Canvas counts within 4% (plus one canvas of slack on small runs).
        assert abs(s_count - g_count) <= max(1, math.ceil(0.04 * g_count))
        assert s_eff >= 0.97 * g_eff

    def test_batch_pack_metrics_match_at_depth_4096(self):
        """The equivalence holds on a fleet-scale 4096-patch queue."""
        patches = _rng_patches(4096, seed=19)
        g_count, g_eff = _guillotine_metrics(patches)
        s_count, s_eff = _skyline_metrics(patches)
        assert s_count <= math.ceil(1.03 * g_count)
        assert s_eff >= 0.98 * g_eff

    def test_heavy_tail_metrics_match(self):
        rng = np.random.default_rng(29)
        widths = np.clip(rng.lognormal(4.8, 0.8, size=512), 32.0, 1000.0)
        heights = np.clip(rng.lognormal(4.8, 0.8, size=512), 32.0, 1000.0)
        patches = _patches(zip(map(float, widths), map(float, heights)))
        g_count, g_eff = _guillotine_metrics(patches)
        s_count, s_eff = _skyline_metrics(patches)
        assert abs(s_count - g_count) <= max(1, math.ceil(0.05 * g_count))
        assert s_eff >= 0.96 * g_eff


# ------------------------------------------------- efficiency-heap victims
def _reference_victims(stitcher: IncrementalStitcher, patch: Patch):
    """The pre-heap victim selection: rescan every canvas's efficiency,
    sort, and greedily pool under the budget caps (PR-2 behaviour)."""
    candidates = sorted(
        (canvas.efficiency, index)
        for index, canvas in enumerate(stitcher.canvases)
        if not canvas.oversized
    )
    pool = 1
    victims: list[int] = []
    for _, index in candidates:
        if len(victims) >= MAX_PARTIAL_VICTIMS:
            break
        canvas = stitcher.canvases[index]
        if pool + canvas.num_patches > stitcher.partial_patch_budget:
            continue
        pool += canvas.num_patches
        victims.append(index)
    return victims


class TestEfficiencyHeap:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(fitting_sizes, min_size=4, max_size=50))
    def test_partial_repack_victims_match_reference_selection(self, size_list):
        stitcher = _small_budget_stitcher()
        for patch in _patches(size_list):
            plan = stitcher.probe(patch)
            if plan.kind == "partial":
                assert plan.victim_indices is not None
                assert plan.victim_indices == _reference_victims(stitcher, patch)
            stitcher.commit(plan)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(fitting_sizes, min_size=2, max_size=40))
    def test_heap_tracks_live_efficiencies(self, size_list):
        """After any arrival mix, the heap's valid entries describe exactly
        the live non-oversized canvases at their current efficiencies
        (read through the engine's introspection surface, not its
        private heap/stamp lists)."""
        stitcher = _small_budget_stitcher()
        for patch in _patches(size_list):
            stitcher.add(patch)
        expected = sorted(
            (canvas.efficiency, index)
            for index, canvas in enumerate(stitcher.canvases)
            if not canvas.oversized
        )
        assert stitcher.consolidation_engine.heap_entries() == expected

    def test_probe_leaves_heap_usable(self):
        """A probe pops heap entries while planning; every live canvas
        must still be selectable by the next probe (entries pushed back)."""
        stitcher = _small_budget_stitcher()
        sizes = [(300.0, 300.0)] * 20 + [(900.0, 900.0)] * 3
        for patch in _patches(sizes):
            stitcher.add(patch)
        probe_patch = _patches([(500.0, 500.0)])[0]
        first = stitcher.probe(probe_patch)
        second = stitcher.probe(probe_patch)
        assert (first.kind, first.victim_indices) == (
            second.kind,
            second.victim_indices,
        )


# -------------------------------------------------------------- pack_within
class TestPackWithin:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(fitting_sizes, min_size=1, max_size=30),
        st.integers(min_value=1, max_value=6),
    )
    def test_pack_within_matches_full_pack(self, size_list, limit):
        solver = PatchStitchingSolver()
        patches = _patches(size_list)
        full = solver.pack(patches)
        bounded = solver.pack_within(patches, limit)
        if len(full) > limit:
            assert bounded is None
        else:
            assert bounded is not None
            assert [
                (p.patch.patch_id, p.x, p.y) for c in bounded for p in c.placements
            ] == [(p.patch.patch_id, p.x, p.y) for c in full for p in c.placements]

    def test_pack_within_counts_oversized_canvases_against_the_cap(self):
        """A dedicated oversized canvas breaches the cap exactly like a
        regular one (pack-then-reject semantics count both)."""
        solver = PatchStitchingSolver(canvas_width=100.0, canvas_height=100.0)
        pool = _patches([(90.0, 90.0), (90.0, 90.0), (200.0, 20.0)])
        assert len(solver.pack(pool)) == 3
        assert solver.pack_within(pool, 2) is None
        assert solver.pack_within(pool, 3) is not None
