"""Property-based tests for the patch-stitching solver invariants.

The packing invariants the paper's design depends on:

* every patch is placed exactly once;
* placements never overlap and never exceed the canvas bounds;
* patches are never resized (width/height preserved);
* total placed area equals the total input area;
* oversized patches only appear on dedicated oversized canvases.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patches import Patch
from repro.core.stitching import PatchStitchingSolver
from repro.video.geometry import Box

#: Example-count multiplier: tier-1 runs a shallow search, and
#: ``RUN_CHAOS=1`` (CI's chaos job) ten times as many examples.
CHAOS = 10 if os.environ.get("RUN_CHAOS") else 1

patch_sizes = st.tuples(
    st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
    st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
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


@settings(max_examples=80 * CHAOS, deadline=None)
@given(st.lists(patch_sizes, min_size=0, max_size=40))
def test_every_patch_placed_exactly_once(size_list):
    solver = PatchStitchingSolver()
    patches = _patches(size_list)
    canvases = solver.pack(patches)
    placed = sorted(p.patch_id for c in canvases for p in c.patches)
    assert placed == sorted(p.patch_id for p in patches)


@settings(max_examples=80 * CHAOS, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=40))
def test_packing_invariants_hold(size_list):
    solver = PatchStitchingSolver()
    canvases = solver.pack(_patches(size_list))
    # validate_packing raises on overlap or out-of-bounds placements.
    PatchStitchingSolver.validate_packing(canvases, strict=True)


@settings(max_examples=80 * CHAOS, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=40))
def test_total_area_preserved(size_list):
    solver = PatchStitchingSolver()
    patches = _patches(size_list)
    canvases = solver.pack(patches)
    placed_area = sum(c.used_area for c in canvases)
    assert abs(placed_area - sum(p.area for p in patches)) < 1e-3


@settings(max_examples=80 * CHAOS, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=40))
def test_efficiency_bounded_by_one(size_list):
    solver = PatchStitchingSolver()
    canvases = solver.pack(_patches(size_list))
    for canvas in canvases:
        assert canvas.efficiency <= 1.0 + 1e-9


@settings(max_examples=80 * CHAOS, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=30))
def test_oversized_patches_only_on_oversized_canvases(size_list):
    solver = PatchStitchingSolver(canvas_width=1024, canvas_height=1024)
    canvases = solver.pack(_patches(size_list))
    for canvas in canvases:
        if canvas.oversized:
            assert canvas.num_patches == 1
        else:
            assert canvas.width == 1024 and canvas.height == 1024
            for placement in canvas.placements:
                assert placement.patch.width <= 1024
                assert placement.patch.height <= 1024


@settings(max_examples=40 * CHAOS, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=10.0, max_value=500.0, allow_nan=False),
            st.floats(min_value=10.0, max_value=500.0, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_canvas_count_at_most_patch_count_and_at_least_area_bound(size_list):
    """The packing is never worse than one canvas per patch and never
    better than the area lower bound."""
    solver = PatchStitchingSolver()
    patches = _patches(size_list)
    canvases = solver.pack(patches)
    assert len(canvases) <= len(patches)
    import math

    area_lower_bound = math.ceil(
        sum(p.area for p in patches) / (solver.canvas_width * solver.canvas_height) - 1e-9
    )
    assert len(canvases) >= max(1, area_lower_bound)


@settings(max_examples=40 * CHAOS, deadline=None)
@given(st.lists(patch_sizes, min_size=1, max_size=25))
def test_packing_is_deterministic(size_list):
    solver = PatchStitchingSolver()
    patches = _patches(size_list)
    first = solver.pack(patches)
    second = solver.pack(patches)
    assert [(p.patch.patch_id, p.x, p.y) for c in first for p in c.placements] == [
        (p.patch.patch_id, p.x, p.y) for c in second for p in c.placements
    ]
