"""Property-based tests for the Box geometry invariants."""

from __future__ import annotations

import itertools
import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.geometry import Box, enclosing_box, merge_overlapping
from tests.conftest import restart_merge_overlapping

#: Tier-1 keeps the oracle search to a few seconds; ``RUN_CHAOS=1`` runs
#: a deeper one.
CHAOS = bool(os.environ.get("RUN_CHAOS"))
ORACLE_EXAMPLES = 1000 if CHAOS else 60
ORACLE_MAX_BOXES = 70 if CHAOS else 20

coordinates = st.floats(min_value=0.0, max_value=4000.0, allow_nan=False, allow_infinity=False)
sizes = st.floats(min_value=0.5, max_value=2000.0, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw) -> Box:
    return Box(draw(coordinates), draw(coordinates), draw(sizes), draw(sizes))


@given(boxes(), boxes())
def test_iou_is_symmetric(a: Box, b: Box):
    assert abs(a.iou(b) - b.iou(a)) < 1e-9


@given(boxes(), boxes())
def test_iou_bounded_in_unit_interval(a: Box, b: Box):
    assert 0.0 <= a.iou(b) <= 1.0 + 1e-9


@given(boxes())
def test_iou_with_self_is_one(a: Box):
    assert abs(a.iou(a) - 1.0) < 1e-9


@given(boxes(), boxes())
def test_intersection_area_bounded_by_each_box(a: Box, b: Box):
    overlap = a.intersection_area(b)
    assert overlap <= a.area + 1e-6
    assert overlap <= b.area + 1e-6


@given(boxes(), boxes())
def test_enclosing_contains_both(a: Box, b: Box):
    enclosing = a.enclosing(b)
    assert enclosing.contains_box(a)
    assert enclosing.contains_box(b)
    assert enclosing.area >= max(a.area, b.area) - 1e-6


@given(st.lists(boxes(), min_size=1, max_size=12))
def test_enclosing_box_of_list_contains_all(box_list):
    enclosing = enclosing_box(box_list)
    for box in box_list:
        assert enclosing.contains_box(box)


@given(boxes(), st.floats(min_value=0.1, max_value=4.0))
def test_scaling_scales_area_quadratically(a: Box, factor: float):
    scaled = a.scale(factor)
    assert abs(scaled.area - a.area * factor * factor) < 1e-3 * max(1.0, a.area)


@given(boxes(), coordinates, coordinates)
def test_translation_preserves_area(a: Box, dx: float, dy: float):
    assert abs(a.translate(dx, dy).area - a.area) < 1e-9


@given(boxes())
def test_clip_to_frame_never_grows(a: Box):
    clipped = a.clip_to(3840, 2160)
    if clipped is not None:
        assert clipped.area <= a.area + 1e-6
        assert clipped.x >= 0 and clipped.y >= 0
        assert clipped.x2 <= 3840 + 1e-6 and clipped.y2 <= 2160 + 1e-6


@settings(max_examples=50)
@given(st.lists(boxes(), min_size=0, max_size=10))
def test_merge_overlapping_covers_all_inputs(box_list):
    merged = merge_overlapping(box_list)
    assert len(merged) <= len(box_list) or not box_list
    # Every original box is fully contained in some merged box.
    for original in box_list:
        assert any(result.contains_box(original) for result in merged)


@settings(max_examples=50)
@given(st.lists(boxes(), min_size=2, max_size=8))
def test_merged_boxes_are_pairwise_disjoint(box_list):
    merged = merge_overlapping(box_list)
    for i in range(len(merged)):
        for j in range(i + 1, len(merged)):
            assert merged[i].intersection_area(merged[j]) < 1e-6


# ------------------------------------------------ merge and overlap oracles
@st.composite
def grid_boxes(draw) -> Box:
    """Boxes on a small integer grid, so edges touch and merges chain;
    zero widths and heights included."""
    return Box(
        float(draw(st.integers(0, 24))),
        float(draw(st.integers(0, 24))),
        float(draw(st.integers(0, 12))),
        float(draw(st.integers(0, 12))),
    )


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(
    st.lists(grid_boxes(), max_size=ORACLE_MAX_BOXES),
    st.sampled_from([0.0, 0.1, 0.5]),
)
def test_merge_overlapping_equals_restarting_greedy(box_list, threshold):
    assert merge_overlapping(box_list, threshold) == restart_merge_overlapping(
        box_list, threshold
    )


def test_merge_looks_back_at_earlier_rows():
    # Only the last two boxes overlap; their enclosing box then overlaps
    # the first, which a scan resuming at the merged row never revisits.
    boxes = [Box(0, 0, 10, 10), Box(5, 12, 10, 10), Box(12, 5, 10, 10)]
    assert merge_overlapping(boxes) == [Box(0, 0, 22, 22)]
    assert restart_merge_overlapping(boxes) == [Box(0, 0, 22, 22)]


def _same(actual: float, expected: float) -> bool:
    return math.isnan(expected) if math.isnan(actual) else actual == expected


def _overlap_area(a: Box, b: Box) -> float:
    """``a.intersection(b).area``, or ``0.0`` when disjoint.  A NaN edge
    gives an overlap of NaN width or height, which ``Box`` rejects; its
    area is NaN."""
    try:
        overlap = a.intersection(b)
    except ValueError:
        return math.nan
    return 0.0 if overlap is None else overlap.area


def _union_iou(a: Box, b: Box) -> float:
    """IoU as ``union_area`` and ``intersection_area`` define it, with the
    overlap taken again for the numerator."""
    union = a.union_area(b)
    if union <= 0:
        return 0.0
    return a.intersection_area(b) / union


@given(st.one_of(boxes(), grid_boxes()), st.one_of(boxes(), grid_boxes()))
def test_intersection_area_is_area_of_intersection(a: Box, b: Box):
    assert a.intersection_area(b) == _overlap_area(a, b)
    assert a.iou(b) == _union_iou(a, b)


NONFINITE_BOXES = [
    Box(math.nan, 0.0, 10.0, 10.0),
    Box(0.0, math.nan, 10.0, 10.0),
    Box(math.inf, 0.0, 10.0, 10.0),
    Box(-math.inf, 0.0, 10.0, 10.0),
    Box(0.0, -math.inf, 10.0, math.inf),
    Box(-math.inf, -math.inf, math.inf, math.inf),
    Box(0.0, 0.0, math.inf, 10.0),
    Box(5.0, 5.0, 10.0, 10.0),
    Box(0.0, 0.0, 0.0, 10.0),
]


def test_nonfinite_positions_keep_overlap_and_iou():
    for a, b in itertools.product(NONFINITE_BOXES, repeat=2):
        assert _same(a.intersection_area(b), _overlap_area(a, b)), (a, b)
        assert _same(a.iou(b), _union_iou(a, b)), (a, b)
