"""Tests for the Box geometry primitives."""

from __future__ import annotations

import math

import pytest

from repro.video.geometry import Box, enclosing_box, merge_overlapping, total_area


def test_basic_properties():
    box = Box(10, 20, 30, 40)
    assert box.x2 == 40
    assert box.y2 == 60
    assert box.area == 1200
    assert box.center == (25, 40)
    assert box.aspect_ratio == pytest.approx(40 / 30)


def test_negative_dimensions_rejected():
    with pytest.raises(ValueError):
        Box(0, 0, -1, 5)
    with pytest.raises(ValueError):
        Box(0, 0, math.nan, 5)
    with pytest.raises(ValueError):
        Box(0, 0, 5, math.nan)


def test_intersection_of_overlapping_boxes():
    a = Box(0, 0, 10, 10)
    b = Box(5, 5, 10, 10)
    overlap = a.intersection(b)
    assert overlap == Box(5, 5, 5, 5)
    assert a.intersection_area(b) == 25


def test_intersection_of_disjoint_boxes_is_none():
    a = Box(0, 0, 10, 10)
    b = Box(20, 20, 5, 5)
    assert a.intersection(b) is None
    assert a.intersection_area(b) == 0.0
    assert not a.intersects(b)


def test_touching_boxes_do_not_intersect():
    a = Box(0, 0, 10, 10)
    b = Box(10, 0, 10, 10)
    assert a.intersection_area(b) == 0.0


def test_iou_identical_boxes_is_one():
    a = Box(3, 4, 10, 12)
    assert a.iou(a) == pytest.approx(1.0)


def test_iou_half_overlap():
    a = Box(0, 0, 10, 10)
    b = Box(0, 5, 10, 10)
    assert a.iou(b) == pytest.approx(50.0 / 150.0)


def test_enclosing_covers_both_boxes():
    a = Box(0, 0, 10, 10)
    b = Box(20, 30, 5, 5)
    enclosing = a.enclosing(b)
    assert enclosing.contains_box(a)
    assert enclosing.contains_box(b)
    assert enclosing == Box(0, 0, 25, 35)


def test_enclosing_box_of_list():
    boxes = [Box(0, 0, 5, 5), Box(10, 10, 5, 5), Box(3, 20, 2, 2)]
    result = enclosing_box(boxes)
    for box in boxes:
        assert result.contains_box(box)


def test_enclosing_box_empty_list_raises():
    with pytest.raises(ValueError):
        enclosing_box([])


def test_translate_and_scale():
    box = Box(10, 10, 20, 20)
    assert box.translate(5, -5) == Box(15, 5, 20, 20)
    scaled = box.scale(0.5)
    assert scaled == Box(5, 5, 10, 10)
    with pytest.raises(ValueError):
        box.scale(0)
    with pytest.raises(ValueError):
        box.scale(math.nan)


def test_clip_to_frame():
    box = Box(-10, -10, 30, 30)
    clipped = box.clip_to(100, 100)
    assert clipped == Box(0, 0, 20, 20)
    outside = Box(200, 200, 10, 10)
    assert outside.clip_to(100, 100) is None


def test_expand_grows_every_side():
    box = Box(10, 10, 10, 10)
    expanded = box.expand(5)
    assert expanded == Box(5, 5, 20, 20)


def test_contains_point_and_box():
    box = Box(0, 0, 10, 10)
    assert box.contains_point(5, 5)
    assert not box.contains_point(11, 5)
    assert box.contains_box(Box(1, 1, 5, 5))
    assert not box.contains_box(Box(5, 5, 10, 10))


def test_aspect_ratio_of_zero_width_is_infinite():
    assert Box(0, 0, 0, 10).aspect_ratio == math.inf


def test_total_area_sums_individual_areas():
    boxes = [Box(0, 0, 2, 2), Box(0, 0, 3, 3)]
    assert total_area(boxes) == 13


def test_merge_overlapping_merges_touching_boxes():
    boxes = [Box(0, 0, 10, 10), Box(5, 5, 10, 10), Box(50, 50, 5, 5)]
    merged = merge_overlapping(boxes)
    assert len(merged) == 2
    big = max(merged, key=lambda box: box.area)
    assert big.contains_box(Box(0, 0, 10, 10))
    assert big.contains_box(Box(5, 5, 10, 10))


def test_merge_overlapping_keeps_disjoint_boxes():
    boxes = [Box(0, 0, 5, 5), Box(100, 100, 5, 5)]
    assert len(merge_overlapping(boxes)) == 2


@pytest.mark.parametrize(
    "threshold", [math.nan, 1.5, -0.1], ids=["nan", "above-one", "negative"]
)
def test_merge_overlapping_rejects_malformed_threshold(threshold):
    with pytest.raises(ValueError):
        merge_overlapping([Box(0, 0, 10, 10), Box(5, 5, 10, 10)], iou_threshold=threshold)
