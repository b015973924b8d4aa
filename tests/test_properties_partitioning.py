"""Differential search: the edge stage against its all-pairs oracles.

* ``partition_rois``, which tests an RoI only against the zones whose
  column and row overlap it, and the patch regions ``FramePartitioner``
  cuts from it, against :func:`tests.oracles.all_zones_partition_rois`,
  which tests every zone;
* ``merge_overlapping``, which skips disjoint pairs, against the
  restarting greedy of :func:`tests.conftest.restart_merge_overlapping`;
* ``clip_rect``, the clip of ``Box.clip_to`` and of the RoI extractor,
  against ``Box.intersection`` with the frame box.

Regions must match with ``==`` and by the repr of their tuples, which
also tells ``-0.0`` from ``0.0`` and ``3840`` from ``3840.0``.  The draws
put edges exactly on zone boundaries, split frames that the zone counts
do not divide evenly, and mix in zero-area boxes, boxes partly or wholly
outside the frame, and NaN and infinite positions.  Tier-1 runs a shallow
search; ``RUN_CHAOS=1`` runs a deep one.
"""

from __future__ import annotations

import math
import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.partitioning import FramePartitioner, partition_rois
from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame
from repro.video.geometry import Box, clip_rect, merge_overlapping
from repro.vision.roi_extractors import make_extractor
from tests.conftest import restart_merge_overlapping
from tests.oracles import all_zones_partition_rois

CHAOS = bool(os.environ.get("RUN_CHAOS"))
EXAMPLES = 500 if CHAOS else 50
MAX_BOXES = 40 if CHAOS else 12

#: Frame sizes; no zone count above 1 divides 3840/7 or 1001 evenly.
FRAMES = [(3840, 2160), (3840 / 7, 2160 / 3), (1001, 999), (7.5, 5.25)]
NONFINITE = [math.nan, math.inf, -math.inf]


def _reprs(boxes) -> list:
    return [repr(box.as_tuple()) for box in boxes]


def _boundaries(extent: float, zones: int) -> list:
    """Every zone edge as ``make_zones`` and ``intersection_area`` compute
    it: ``index * size`` and ``index * size + size``."""
    size = extent / zones
    lefts = {index * size for index in range(zones + 1)}
    rights = {index * size + size for index in range(zones)}
    return sorted(lefts | rights)


def positions_near(edges: list, extent: float):
    return st.one_of(
        st.sampled_from(edges),
        st.floats(-0.25 * extent, 1.25 * extent),
        st.sampled_from([-0.0, 0.0, -extent, 2.0 * extent, *NONFINITE]),
    )


def sizes_near(edges: list, extent: float):
    spans = sorted({right - left for left in edges for right in edges if right >= left})
    return st.one_of(
        st.sampled_from(spans),
        st.floats(0.0, 1.5 * extent),
        st.sampled_from([0.0, 5e-324, math.inf]),
    )


@st.composite
def edge_boxes(draw, xs: list, ys: list, width: float, height: float) -> Box:
    """A box with both edges on zone boundaries, or one drawn from
    :func:`positions_near` and :func:`sizes_near`."""
    if draw(st.booleans()):
        left, right = sorted(draw(st.lists(st.sampled_from(xs), min_size=2, max_size=2)))
        top, bottom = sorted(draw(st.lists(st.sampled_from(ys), min_size=2, max_size=2)))
        return Box(left, top, right - left, bottom - top)
    return Box(
        draw(positions_near(xs, width)),
        draw(positions_near(ys, height)),
        draw(sizes_near(xs, width)),
        draw(sizes_near(ys, height)),
    )


@st.composite
def scenes(draw):
    """A frame, its zone counts and a list of RoIs on its zone grid."""
    width, height = draw(st.sampled_from(FRAMES))
    zones_x, zones_y = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    xs, ys = _boundaries(width, zones_x), _boundaries(height, zones_y)
    rois = draw(st.lists(edge_boxes(xs, ys, width, height), max_size=MAX_BOXES))
    return Frame("scene", 0, 0.0, width, height), zones_x, zones_y, rois


@settings(max_examples=EXAMPLES, deadline=None)
@given(scenes())
def test_partition_rois_equals_all_zones_oracle(scene):
    frame, zones_x, zones_y, rois = scene
    actual = partition_rois(frame.width, frame.height, zones_x, zones_y, rois)
    expected = all_zones_partition_rois(frame.width, frame.height, zones_x, zones_y, rois)
    assert actual == expected
    assert _reprs(actual) == _reprs(expected)


@settings(max_examples=EXAMPLES, deadline=None)
@given(scenes())
def test_partitioner_regions_equal_all_zones_oracle(scene):
    frame, zones_x, zones_y, rois = scene
    partitioner = FramePartitioner(
        zones_x,
        zones_y,
        roi_extractor=make_extractor("gmm", streams=RandomStreams(0)),
        min_patch_area=0.0,
    )
    patches = partitioner.partition(frame, 0.0, 1.0, rois=rois)
    expected = all_zones_partition_rois(frame.width, frame.height, zones_x, zones_y, rois)
    assert _reprs(patch.region for patch in patches) == _reprs(expected)


@settings(max_examples=EXAMPLES, deadline=None)
@given(scenes(), st.sampled_from([0.0, 0.1, 0.5]))
def test_merge_overlapping_equals_restarting_greedy_off_the_grid(scene, threshold):
    _, _, _, rois = scene
    actual = merge_overlapping(rois, threshold)
    assert _reprs(actual) == _reprs(restart_merge_overlapping(rois, threshold))


# ------------------------------------------------------------------- clip
positions = st.one_of(
    st.floats(-5000.0, 5000.0),
    st.sampled_from([-0.0, 0.0, 3840, 2160, 3840.0, *NONFINITE]),
)
sizes = st.one_of(
    st.floats(0.0, 5000.0),
    st.sampled_from([0.0, 5e-324, 3840, math.inf, -1.0, math.nan]),
)
frame_sizes = st.sampled_from([3840, 2160, 3840 / 7, 1001, 0, 0.0, -1, math.inf, math.nan])


def _clip_outcome(clip, *args):
    try:
        result = clip(*args)
    except ValueError:
        return "ValueError"
    return None if result is None else repr(result.as_tuple())


@settings(max_examples=EXAMPLES * 4, deadline=None)
@given(positions, positions, sizes, sizes, frame_sizes, frame_sizes)
# The frame's far edge is ``0.0 + 3840``: an int one would make this
# width the int 1680.
@example(2160, 0, 5000.0, 10.0, 3840, 2160)
# ``max(-0.0, 0.0)`` is -0.0.
@example(-0.0, -0.0, 10.0, 10.0, 3840, 2160)
def test_clip_rect_equals_frame_box_intersection(
    x, y, width, height, frame_width, frame_height
):
    expected = _clip_outcome(
        lambda: Box(x, y, width, height).intersection(Box(0.0, 0.0, frame_width, frame_height))
    )
    actual = _clip_outcome(clip_rect, x, y, width, height, frame_width, frame_height)
    assert actual == expected
