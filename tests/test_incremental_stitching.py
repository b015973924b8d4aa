"""Property-based tests for the incremental stitcher (the fast path).

The incremental packer must preserve every invariant of the batch packer
(no overlap, in-bounds, every patch placed exactly once, sizes untouched)
while keeping the packing's efficiency within tolerance of a full
decreasing-area re-pack of the same patches.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import SchedulerOptions
from repro.core.patches import Patch
from repro.core.stitching import (
    Canvas,
    IncrementalStitcher,
    PatchStitchingSolver,
    equivalent_canvases,
)
from repro.video.geometry import Box
from tests.conftest import AlwaysRepackStitcher, free_rectangles

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


def _placement_key(canvases):
    return [(p.patch.patch_id, p.x, p.y) for c in canvases for p in c.placements]


@settings(max_examples=60, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=40))
def test_incremental_packing_invariants_hold(size_list):
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    patches = _patches(size_list)
    for patch in patches:
        stitcher.add(patch)
        # The invariants hold after *every* arrival, not just at the end.
        PatchStitchingSolver.validate_packing(stitcher.canvases, strict=True)
    placed = sorted(p.patch_id for c in stitcher.canvases for p in c.patches)
    assert placed == sorted(p.patch_id for p in patches)


@settings(max_examples=60, deadline=None)
@given(st.lists(fitting_sizes, min_size=2, max_size=40))
def test_incremental_efficiency_within_tolerance_of_batch(size_list):
    """The fast path may trail the batch packer, but only within tolerance:
    no more than ~25% extra canvases (and never more than one extra on
    small packings)."""
    patches = _patches(size_list)
    batch = PatchStitchingSolver().pack(patches)
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    for patch in patches:
        stitcher.add(patch)
    allowed = len(batch) + max(1, math.ceil(0.25 * len(batch)))
    assert len(stitcher.canvases) <= allowed
    total_used = sum(c.used_area for c in stitcher.canvases)
    assert total_used == pytest.approx(sum(p.area for p in patches), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=30))
def test_always_repack_mode_is_identical_to_batch_packer(size_list):
    """The always-re-pack oracle reproduces the batch packer placement
    for placement — the scheduler equivalence tests build on this."""
    patches = _patches(size_list)
    stitcher = AlwaysRepackStitcher(PatchStitchingSolver())
    for patch in patches:
        stitcher.add(patch)
    batch = PatchStitchingSolver().pack(patches)
    assert _placement_key(stitcher.canvases) == _placement_key(batch)


@settings(max_examples=40, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=25))
def test_probe_predicts_committed_counts(size_list):
    """The plan's canvas / equivalent counts must match the committed
    state exactly — the scheduler times invocations off the prediction."""
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    for patch in _patches(size_list):
        plan = stitcher.probe(patch)
        stitcher.commit(plan)
        assert stitcher.num_canvases == plan.canvases_after
        assert stitcher.equivalent == plan.equivalent_after
        assert stitcher.equivalent == equivalent_canvases(
            stitcher.canvases, stitcher.equivalent_canvas_pixels
        )


@settings(max_examples=40, deadline=None)
@given(st.lists(fitting_sizes, min_size=1, max_size=25))
def test_probe_does_not_mutate_state(size_list):
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    patches = _patches(size_list)
    for patch in patches[:-1]:
        stitcher.add(patch)
    before = _placement_key(stitcher.canvases)
    free_before = [free_rectangles(c) for c in stitcher.canvases]
    stitcher.probe(patches[-1])
    assert _placement_key(stitcher.canvases) == before
    assert [free_rectangles(c) for c in stitcher.canvases] == free_before


def test_reset_starts_a_fresh_queue():
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    first = _patches([(300.0, 300.0), (500.0, 400.0)])
    for patch in first:
        stitcher.add(patch)
    fresh = _patches([(250.0, 250.0)])
    canvases = stitcher.reset(fresh)
    assert stitcher.patches == fresh
    assert [p.patch_id for c in canvases for p in c.patches] == [fresh[0].patch_id]
    assert stitcher.num_canvases == 1


def test_oversized_patch_opens_dedicated_canvas():
    stitcher = IncrementalStitcher(
        PatchStitchingSolver(canvas_width=1024, canvas_height=1024)
    )
    stitcher.add(_patches([(300.0, 300.0)])[0])
    big = _patches([(2048.0, 1100.0)])[0]
    plan = stitcher.probe(big)
    assert plan.kind == "oversized"
    # 2048*1100 px is charged as ceil(2.15) = 3 standard canvases.
    assert plan.equivalent_after == stitcher.equivalent + 3
    stitcher.commit(plan)
    oversized = [c for c in stitcher.canvases if c.oversized]
    assert len(oversized) == 1
    assert oversized[0].num_patches == 1
    PatchStitchingSolver.validate_packing(stitcher.canvases, strict=True)


def test_drift_repack_restores_batch_quality():
    """An adversarial arrival order (many small patches, then large ones)
    must trigger re-packs instead of opening canvases forever."""
    small = [(120.0, 120.0)] * 30
    large = [(900.0, 900.0)] * 4
    patches = _patches(small + large)
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    for patch in patches:
        stitcher.add(patch)
    assert stitcher.stats["full_repacks"] >= 1
    batch = PatchStitchingSolver().pack(patches)
    assert stitcher.num_canvases <= len(batch) + 1


def test_used_area_cache_tracks_placements():
    canvas = Canvas(width=1000, height=1000)
    patches = _patches([(200.0, 100.0), (300.0, 300.0)])
    for patch in patches:
        assert canvas.try_place(patch) is not None
    assert canvas.used_area == pytest.approx(200 * 100 + 300 * 300)
    assert canvas.used_area == pytest.approx(canvas.recompute_used_area())


def test_used_area_cache_self_heals_on_external_mutation():
    from repro.core.stitching import Placement

    canvas = Canvas(width=1000, height=1000)
    canvas.try_place(_patches([(200.0, 100.0)])[0])
    rogue = _patches([(50.0, 50.0)])[0]
    canvas.placements.append(Placement(patch=rogue, x=500.0, y=500.0))
    # The cache detects the out-of-band append and recomputes.
    assert canvas.used_area == pytest.approx(200 * 100 + 50 * 50)


def test_free_rectangle_pool_never_contains_nested_rectangles():
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    for patch in _patches([(400.0, 300.0), (200.0, 600.0), (700.0, 150.0), (90.0, 80.0)]):
        stitcher.add(patch)
    for canvas in stitcher.canvases:
        rects = free_rectangles(canvas)
        for i, first in enumerate(rects):
            for j, second in enumerate(rects):
                if i != j:
                    assert not first.contains_box(second)


def _stitcher(**options) -> IncrementalStitcher:
    return IncrementalStitcher(PatchStitchingSolver(), options=SchedulerOptions(**options))


# ------------------------------------------------------------ partial re-pack
@settings(max_examples=60, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=40))
def test_partial_repack_invariants_hold(size_list):
    """Overflow re-packs preserve every packing invariant after every
    arrival, and every patch stays placed exactly once."""
    # A tiny budget pushes the queue past the whole-queue re-pack regime
    # quickly, so genuine partial (victim) re-packs get exercised.
    stitcher = _stitcher(partial_patch_budget=8)
    patches = _patches(size_list)
    for patch in patches:
        stitcher.add(patch)
        PatchStitchingSolver.validate_packing(stitcher.canvases, strict=True)
    placed = sorted(p.patch_id for c in stitcher.canvases for p in c.patches)
    assert placed == sorted(p.patch_id for p in patches)


@settings(max_examples=60, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=40))
def test_partial_repack_probe_predicts_committed_counts(size_list):
    stitcher = _stitcher(partial_patch_budget=8)
    for patch in _patches(size_list):
        plan = stitcher.probe(patch)
        stitcher.commit(plan)
        assert stitcher.num_canvases == plan.canvases_after
        assert stitcher.equivalent == plan.equivalent_after
        assert stitcher.equivalent == equivalent_canvases(
            stitcher.canvases, stitcher.equivalent_canvas_pixels
        )


@settings(max_examples=60, deadline=None)
@given(st.lists(fitting_sizes, min_size=2, max_size=50))
def test_partial_repack_never_lowers_mean_efficiency_vs_no_repack(size_list):
    """The adoption rule's guarantee: whenever a re-pack plan is chosen,
    committing it yields at least the mean canvas efficiency that refusing
    to re-pack (opening a canvas for the patch) would have yielded on the
    same state.  (The guarantee is per decision: two greedy runs that
    diverge early are not comparable end-to-end, so the no-re-pack
    alternative is evaluated on the identical packing state.)"""
    stitcher = _stitcher(partial_patch_budget=8)
    solver = stitcher.solver
    for patch in _patches(size_list):
        plan = stitcher.probe(patch)
        if plan.kind == "partial":
            # Mean efficiency had the patch opened a fresh canvas instead.
            no_repack = [c.efficiency for c in stitcher.canvases] + [
                patch.area / solver.canvas_area
            ]
            alternative = sum(no_repack) / len(no_repack)
            stitcher.commit(plan)
            committed = PatchStitchingSolver.mean_efficiency(stitcher.canvases)
            assert committed >= alternative - 1e-9
        else:
            stitcher.commit(plan)


def test_partial_repack_consolidates_on_fragmented_canvases():
    """Interleaving small and large patches fragments the live canvases;
    the stitcher must consolidate via partial re-packs once the queue
    outgrows the whole-queue re-pack budget."""
    rng_sizes = []
    for block in range(30):
        rng_sizes.extend([(140.0 + block, 130.0)] * 5)
        rng_sizes.append((880.0, 900.0 - block))
    stitcher = _stitcher(partial_patch_budget=24)
    for patch in _patches(rng_sizes):
        stitcher.add(patch)
    assert stitcher.stats["partial_repacks"] >= 1
    PatchStitchingSolver.validate_packing(stitcher.canvases, strict=True)
    batch = PatchStitchingSolver().pack(stitcher.patches)
    # Packing quality stays within the incremental tolerance of batch.
    assert stitcher.num_canvases <= len(batch) + max(1, math.ceil(0.25 * len(batch)))


def test_canvas_scope_small_queue_repacks_whole_queue():
    """While the queue fits the patch budget, a wasteful overflow re-packs
    the whole queue (budget-bounded), tracking the batch packer exactly."""
    small = [(120.0, 120.0)] * 30
    large = [(900.0, 900.0)] * 4
    stitcher = _stitcher()
    for patch in _patches(small + large):
        stitcher.add(patch)
    assert stitcher.stats["full_repacks"] >= 1
    batch = PatchStitchingSolver().pack(stitcher.patches)
    assert stitcher.num_canvases <= len(batch) + 1

