"""Tests for Algorithm 1: adaptive frame partitioning."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.partitioning import FramePartitioner, make_zones, partition_rois
from repro.simulation.random_streams import RandomStreams
from repro.video.geometry import Box
from repro.vision.detector import COVERAGE_THRESHOLD, visible_objects
from repro.vision.roi_extractors import make_extractor
from repro.workloads import build_camera_traces


class TestMakeZones:
    def test_2x2_zones_tile_the_frame(self):
        zones = make_zones(100, 80, 2, 2)
        assert len(zones) == 4
        assert sum(zone.area for zone in zones) == pytest.approx(100 * 80)
        assert zones[0] == Box(0, 0, 50, 40)
        assert zones[3] == Box(50, 40, 50, 40)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            make_zones(100, 100, 0, 2)
        with pytest.raises(ValueError):
            make_zones(0, 100, 2, 2)
        with pytest.raises(ValueError):
            make_zones(float("nan"), 100, 2, 2)
        with pytest.raises(ValueError):
            make_zones(100, float("nan"), 2, 2)
        # An infinite frame gave its first zone the edge ``0 * inf``, NaN.
        with pytest.raises(ValueError):
            make_zones(float("inf"), 100, 2, 2)
        with pytest.raises(ValueError):
            make_zones(100, float("inf"), 2, 2)


class TestPartitionRoIs:
    def test_empty_roi_list_produces_no_patches(self):
        assert partition_rois(1000, 1000, 4, 4, []) == []

    def test_single_roi_produces_single_tight_patch(self):
        roi = Box(100, 100, 50, 80)
        patches = partition_rois(1000, 1000, 2, 2, [roi])
        assert len(patches) == 1
        assert patches[0] == roi

    def test_roi_assigned_to_zone_with_max_overlap(self):
        # Zone boundary at x=500; this RoI is mostly in the right zone.
        roi = Box(480, 100, 100, 100)
        patches = partition_rois(1000, 1000, 2, 1, [roi])
        # One patch containing the full RoI (the zone is resized to the
        # RoI's enclosing rectangle, which may cross the zone border).
        assert len(patches) == 1
        assert patches[0].contains_box(roi)

    def test_rois_in_different_zones_produce_separate_patches(self):
        rois = [Box(10, 10, 50, 50), Box(900, 900, 50, 50)]
        patches = partition_rois(1000, 1000, 2, 2, rois)
        assert len(patches) == 2

    def test_patch_is_minimum_enclosing_rectangle_of_zone_rois(self):
        rois = [Box(10, 10, 20, 20), Box(200, 300, 30, 30)]
        patches = partition_rois(1000, 1000, 1, 1, rois)
        assert len(patches) == 1
        assert patches[0] == Box(10, 10, 220, 320)

    def test_every_roi_covered_by_some_patch(self):
        rng = np.random.default_rng(0)
        rois = [
            Box(float(rng.uniform(0, 3700)), float(rng.uniform(0, 2000)), 60, 120)
            for _ in range(40)
        ]
        patches = partition_rois(3840, 2160, 4, 4, rois)
        for roi in rois:
            assert any(patch.contains_box(roi) or
                       roi.intersection_area(patch) / roi.area > 0.99
                       for patch in patches)

    def test_finer_partition_produces_smaller_total_area(self):
        """Table II: finer zone divisions save more bandwidth."""
        rng = np.random.default_rng(1)
        rois = [
            Box(float(rng.uniform(0, 3700)), float(rng.uniform(0, 2000)), 70, 140)
            for _ in range(60)
        ]
        areas = {}
        for zones in (1, 2, 4, 6):
            patches = partition_rois(3840, 2160, zones, zones, rois)
            areas[zones] = sum(patch.area for patch in patches)
        assert areas[1] >= areas[2] >= areas[4] >= areas[6]

    def test_number_of_patches_bounded_by_zone_count(self):
        rng = np.random.default_rng(2)
        rois = [
            Box(float(rng.uniform(0, 3700)), float(rng.uniform(0, 2000)), 50, 100)
            for _ in range(200)
        ]
        patches = partition_rois(3840, 2160, 4, 4, rois)
        assert len(patches) <= 16

    @pytest.mark.parametrize(
        "roi",
        [Box(100.0, 5.0, 50.0, 5e-324), Box(5.0, 100.0, 5e-324, 50.0)],
        ids=["height-absorbed", "width-absorbed"],
    )
    def test_roi_whose_size_rounds_away_overlaps_no_zone(self, roi):
        # ``5.0 + 5e-324 == 5.0``: the RoI is not empty, yet its overlap
        # with the zone it sits in is 0.0, so it is assigned nowhere.
        assert not roi.is_empty()
        assert partition_rois(1000, 1000, 4, 4, [roi]) == []

    def test_patches_clipped_to_frame(self):
        rois = [Box(3800, 2100, 100, 100)]  # extends past the frame edge
        patches = partition_rois(3840, 2160, 4, 4, rois)
        assert len(patches) == 1
        assert patches[0].x2 <= 3840
        assert patches[0].y2 <= 2160


class TestFramePartitioner:
    def _partitioner(self, zones=4, seed=0, **kwargs):
        return FramePartitioner(
            zones_x=zones,
            zones_y=zones,
            roi_extractor=make_extractor("gmm", streams=RandomStreams(seed)),
            **kwargs,
        )

    def test_requires_extractor(self):
        with pytest.raises(ValueError):
            FramePartitioner(roi_extractor=None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_patch_area": float("nan")},
            {"min_patch_area": -1.0},
            {"zones_x": 0},
            {"zones_y": 0},
            # These used to construct: a fractional or infinite zone count
            # failed only in ``range()`` at the first partition, and an
            # infinite area floor dropped every patch.
            {"zones_x": 2.5},
            {"zones_x": float("inf")},
            {"zones_y": 2.5},
            {"min_patch_area": float("inf")},
            # A callable constructed and failed only at the first frame.
            {"roi_extractor": lambda frame: []},
        ],
        ids=[
            "min_patch_area-nan",
            "min_patch_area-negative",
            "zones_x-zero",
            "zones_y-zero",
            "zones_x-fractional",
            "zones_x-inf",
            "zones_y-fractional",
            "min_patch_area-inf",
            "roi_extractor-callable",
        ],
    )
    def test_malformed_arguments_rejected(self, kwargs):
        extractor = make_extractor("gmm", streams=RandomStreams(0))
        with pytest.raises(ValueError):
            FramePartitioner(**{"roi_extractor": extractor, **kwargs})

    def test_partition_produces_patches_with_metadata(self, scene01_frames):
        partitioner = self._partitioner()
        frame = scene01_frames[5]
        patches = partitioner.partition(frame, generation_time=3.0, slo=1.2, camera_id="cam-7")
        assert patches
        for patch in patches:
            assert patch.camera_id == "cam-7"
            assert patch.generation_time == 3.0
            assert patch.slo == 1.2
            assert patch.frame_index == frame.frame_index
            assert patch.scene_key == frame.scene_key

    def test_patch_regions_within_frame(self, scene01_frames):
        partitioner = self._partitioner()
        for frame in scene01_frames[:5]:
            for patch in partitioner.partition(frame, 0.0, 1.0):
                assert patch.region.x >= 0 and patch.region.y >= 0
                assert patch.region.x2 <= frame.width + 1e-6
                assert patch.region.y2 <= frame.height + 1e-6

    def test_patches_carry_covered_objects(self, scene01_frames):
        partitioner = self._partitioner()
        frame = scene01_frames[8]
        patches = partitioner.partition(frame, 0.0, 1.0)
        carried = [visible_objects(frame.objects, [patch.region]) for patch in patches]
        carried_ids = {obj.object_id for objects in carried for obj in objects}
        all_ids = {obj.object_id for obj in frame.objects}
        # Most (not necessarily all: GMM recall < 1) objects are carried.
        assert len(carried_ids) >= 0.5 * len(all_ids)
        for patch, objects in zip(patches, carried):
            for obj in objects:
                coverage = obj.box.intersection_area(patch.region) / obj.box.area
                assert coverage >= COVERAGE_THRESHOLD - 1e-9

    def test_precomputed_rois_override_extractor(self, scene01_frames):
        partitioner = self._partitioner()
        frame = scene01_frames[0]
        rois = [Box(100, 100, 50, 50)]
        patches = partitioner.partition(frame, 0.0, 1.0, rois=rois)
        assert len(patches) == 1
        assert patches[0].region == Box(100, 100, 50, 50)

    def test_min_patch_area_filters_noise(self, scene01_frames):
        frame = scene01_frames[0]
        partitioner = self._partitioner(min_patch_area=256.0)
        assert partitioner.partition(frame, 0.0, 1.0, rois=[Box(5, 5, 3, 3)]) == []

    def test_coarser_partition_keeps_more_objects(self, scene01_frames):
        """Table III: accuracy (object coverage) drops as zones get finer."""
        frame_subset = scene01_frames[5:15]
        coverage = {}
        for zones in (2, 6):
            partitioner = self._partitioner(zones=zones, seed=3)
            kept = 0
            total = 0
            for frame in frame_subset:
                patches = partitioner.partition(frame, 0.0, 1.0)
                kept += len(
                    {
                        obj.object_id
                        for patch in patches
                        for obj in visible_objects(frame.objects, [patch.region])
                    }
                )
                total += frame.num_objects
            coverage[zones] = kept / total
        assert coverage[2] >= coverage[6] - 0.02


#: sha256 of Algorithm 1's output on ``test_baselines_online``'s pinned
#: traces (3 cameras x 12 frames, seed 5), one per zone count: each
#: patch's ``region.as_tuple()`` repr and the ids of the objects that
#: ``visible_objects`` finds in that region alone, in order.  Recorded
#: from the all-zones, all-objects scans, so a faster partition must
#: leave them as they are.
PINNED_PARTITION_DIGESTS = {
    2: "9a792862b2e9c3cefa90bd1591be0d6d1bd58789a34d02b2cd606327989132b5",
    4: "74e6097844229edef3cc138a7ab35bbf6fe2631ae50d282cbccd1c25701355a6",
    6: "9edc0efda7119c1a2bdfa94138532ec67c1d0bdba1e84e40d149c60f3b20cd21",
}


@pytest.fixture(scope="module")
def pinned_traces():
    return build_camera_traces(
        num_cameras=3, frames_per_camera=12, seed=5, max_concurrent_objects=60
    )


@pytest.mark.parametrize("zones", sorted(PINNED_PARTITION_DIGESTS))
def test_partition_matches_pinned_digest(pinned_traces, zones):
    streams = RandomStreams(0)
    digest = hashlib.sha256()
    for camera_id, frames in pinned_traces.items():
        partitioner = FramePartitioner(
            zones,
            zones,
            roi_extractor=make_extractor("gmm", streams=streams.spawn(f"edge/{camera_id}")),
        )
        for frame in frames:
            for patch in partitioner.partition(frame, 0.0, 1.0, camera_id=camera_id):
                carried = tuple(
                    obj.object_id for obj in visible_objects(frame.objects, [patch.region])
                )
                digest.update(repr((patch.region.as_tuple(), carried)).encode())
    assert digest.hexdigest() == PINNED_PARTITION_DIGESTS[zones]
