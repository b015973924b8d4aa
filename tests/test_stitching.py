"""Tests for Algorithm 2 (lines 24-39): the patch-stitching solver."""

from __future__ import annotations

import pytest

from repro.core.stitching import Canvas, IncrementalStitcher, PatchStitchingSolver
from repro.video.geometry import Box
from tests.conftest import free_rectangles, make_patch

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: PatchStitchingSolver(canvas_width=NAN), id="solver-width-nan"),
        pytest.param(lambda: PatchStitchingSolver(canvas_width=INF), id="solver-width-inf"),
        pytest.param(lambda: PatchStitchingSolver(canvas_height=NAN), id="solver-height-nan"),
        pytest.param(lambda: Canvas(NAN, 10.0), id="canvas-width-nan"),
        pytest.param(lambda: Canvas(10.0, INF), id="canvas-height-inf"),
        pytest.param(
            lambda: IncrementalStitcher(equivalent_canvas_pixels=NAN), id="stitcher-pixels-nan"
        ),
        pytest.param(
            lambda: IncrementalStitcher(equivalent_canvas_pixels=INF), id="stitcher-pixels-inf"
        ),
    ],
)
def test_geometry_constructors_reject_non_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


class TestCanvas:
    def test_fresh_canvas_has_single_free_rectangle(self):
        canvas = Canvas(width=1024, height=1024)
        assert len(free_rectangles(canvas)) == 1
        assert free_rectangles(canvas)[0].area == 1024 * 1024
        assert canvas.efficiency == 0.0

    def test_place_reduces_free_space(self):
        canvas = Canvas(width=1024, height=1024)
        placement = canvas.try_place(make_patch(400, 300))
        assert placement is not None
        assert placement.x == 0.0 and placement.y == 0.0
        assert canvas.used_area == 400 * 300
        # The skyline offers one maximal candidate per silhouette level:
        # above the patch (spanning the full width) and beside it.
        above, beside = (Box(*rect.as_tuple()) for rect in free_rectangles(canvas))
        assert above == Box(0.0, 300.0, 1024.0, 724.0)
        assert beside == Box(400.0, 0.0, 624.0, 1024.0)
        assert above.intersection_area(placement.box) == 0.0
        assert beside.intersection_area(placement.box) == 0.0
        # The candidates overlap; their union is exactly the free area.
        assert above.union_area(beside) == pytest.approx(1024 * 1024 - 400 * 300)

    def test_patch_larger_than_canvas_not_placed(self):
        canvas = Canvas(width=100, height=100)
        assert canvas.try_place(make_patch(200, 50)) is None

    def test_efficiency_is_patch_area_over_canvas_area(self):
        canvas = Canvas(width=100, height=100)
        canvas.try_place(make_patch(50, 50))
        assert canvas.efficiency == pytest.approx(0.25)

    def test_earliest_deadline(self):
        canvas = Canvas(width=1000, height=1000)
        canvas.try_place(make_patch(100, 100, generation_time=0.0, slo=1.0))
        canvas.try_place(make_patch(100, 100, generation_time=0.5, slo=0.3))
        assert canvas.earliest_deadline() == pytest.approx(0.8)
        assert Canvas(width=10, height=10).earliest_deadline() == float("inf")

    def test_best_short_side_fit_selection(self):
        canvas = Canvas(width=1000, height=1000)
        # Create two free rectangles by placing a first patch.
        canvas.try_place(make_patch(600, 900))
        # Free rects now: (0..1000 x 900..1000) = 1000x100 and
        # (600..1000 x 0..1000) = 400x1000.  A 380x80 patch fits both with
        # the same short-side slack, min(1000-380, 100-80) = 20 and
        # min(400-380, 1000-80) = 20; the tie keeps the first.
        index = canvas.find_free_rectangle(make_patch(380, 80))
        assert index is not None
        chosen = free_rectangles(canvas)[index]
        assert chosen.width >= 380 and chosen.height >= 80

    def test_invalid_canvas_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Canvas(width=0, height=10)


class TestPatchStitchingSolver:
    def test_all_patches_placed_exactly_once(self, sample_patches):
        solver = PatchStitchingSolver()
        canvases = solver.pack(sample_patches)
        placed_ids = [p.patch_id for c in canvases for p in c.patches]
        assert sorted(placed_ids) == sorted(p.patch_id for p in sample_patches)

    def test_packing_has_no_overlaps_and_stays_in_bounds(self, sample_patches):
        solver = PatchStitchingSolver()
        canvases = solver.pack(sample_patches)
        PatchStitchingSolver.validate_packing(canvases, strict=True)

    def test_patches_are_never_resized(self, sample_patches):
        solver = PatchStitchingSolver()
        canvases = solver.pack(sample_patches)
        by_id = {p.patch_id: p for p in sample_patches}
        for canvas in canvases:
            for placement in canvas.placements:
                original = by_id[placement.patch.patch_id]
                assert placement.patch.width == original.width
                assert placement.patch.height == original.height

    def test_small_patches_share_one_canvas(self):
        solver = PatchStitchingSolver(canvas_width=1024, canvas_height=1024)
        patches = [make_patch(200, 200) for _ in range(8)]
        canvases = solver.pack(patches)
        assert len(canvases) == 1
        assert canvases[0].num_patches == 8

    def test_new_canvas_opened_when_full(self):
        solver = PatchStitchingSolver(canvas_width=1000, canvas_height=1000)
        patches = [make_patch(600, 600) for _ in range(3)]
        canvases = solver.pack(patches)
        assert len(canvases) == 3

    def test_oversized_patch_gets_dedicated_canvas(self):
        solver = PatchStitchingSolver(canvas_width=1024, canvas_height=1024)
        patches = [make_patch(1500, 800), make_patch(100, 100)]
        canvases = solver.pack(patches)
        oversized = [c for c in canvases if c.oversized]
        assert len(oversized) == 1
        assert oversized[0].width == 1500
        PatchStitchingSolver.validate_packing(canvases, strict=True)

    def test_oversized_patch_rejected_when_disallowed(self):
        solver = PatchStitchingSolver(allow_oversized=False)
        with pytest.raises(ValueError):
            solver.pack([make_patch(3000, 200)])

    def test_empty_queue_produces_no_canvases(self):
        assert PatchStitchingSolver().pack([]) == []

    def test_packing_is_deterministic(self, sample_patches):
        solver = PatchStitchingSolver()
        first = solver.pack(sample_patches)
        second = solver.pack(sample_patches)
        assert [c.num_patches for c in first] == [c.num_patches for c in second]
        assert [
            (p.patch.patch_id, p.x, p.y) for c in first for p in c.placements
        ] == [(p.patch.patch_id, p.x, p.y) for c in second for p in c.placements]

    def test_sorted_packing_is_no_worse_than_arrival_order(self):
        """First-fit-decreasing should not need more canvases than
        arrival-order packing on a mixed workload."""
        patches = [
            make_patch(w, h)
            for w, h in [(900, 900), (200, 300), (850, 200), (400, 400),
                         (600, 700), (150, 150), (300, 800), (500, 250)]
        ]
        sorted_solver = PatchStitchingSolver(sort_patches=True)
        arrival_solver = PatchStitchingSolver(sort_patches=False)
        assert len(sorted_solver.pack(patches)) <= len(arrival_solver.pack(patches))

    def test_total_pixels_and_mean_efficiency(self):
        solver = PatchStitchingSolver(canvas_width=1000, canvas_height=1000)
        canvases = solver.pack([make_patch(500, 1000), make_patch(500, 1000)])
        assert PatchStitchingSolver.total_pixels(canvases) == pytest.approx(1_000_000)
        assert PatchStitchingSolver.mean_efficiency(canvases) == pytest.approx(1.0)
        assert PatchStitchingSolver.mean_efficiency([]) == 0.0

    def test_validate_packing_detects_overlap(self):
        canvas = Canvas(width=100, height=100)
        canvas.try_place(make_patch(60, 60))
        # Manually corrupt the packing with an overlapping placement.
        from repro.core.stitching import Placement

        canvas.placements.append(Placement(patch=make_patch(60, 60), x=10, y=10))
        with pytest.raises(AssertionError):
            PatchStitchingSolver.validate_packing([canvas], strict=True)

    def test_validate_packing_detects_out_of_bounds(self):
        canvas = Canvas(width=100, height=100)
        from repro.core.stitching import Placement

        canvas.placements.append(Placement(patch=make_patch(60, 60), x=80, y=0))
        with pytest.raises(AssertionError):
            PatchStitchingSolver.validate_packing([canvas], strict=True)

    def test_high_efficiency_for_well_matched_patches(self):
        """Canvas efficiency lands in the paper's observed range (0.4-0.9)
        for a realistic mix of patch sizes."""
        import numpy as np

        rng = np.random.default_rng(3)
        patches = [
            make_patch(float(rng.uniform(80, 500)), float(rng.uniform(120, 600)))
            for _ in range(40)
        ]
        solver = PatchStitchingSolver()
        canvases = solver.pack(patches)
        # All canvases but possibly the last should be reasonably full.
        efficiencies = [c.efficiency for c in canvases[:-1]]
        assert all(e > 0.4 for e in efficiencies)
