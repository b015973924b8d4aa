"""Tests for Algorithm 1: adaptive frame partitioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partitioning import FramePartitioner, make_zones, partition_rois
from repro.simulation.random_streams import RandomStreams
from repro.video.geometry import Box
from repro.vision.roi_extractors import make_extractor


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
        ],
        ids=["min_patch_area-nan", "min_patch_area-negative", "zones_x-zero", "zones_y-zero"],
    )
    def test_malformed_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FramePartitioner(roi_extractor=lambda frame: [], **kwargs)

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
        carried = {obj.object_id for patch in patches for obj in patch.objects}
        all_ids = {obj.object_id for obj in frame.objects}
        # Most (not necessarily all: GMM recall < 1) objects are carried.
        assert len(carried) >= 0.5 * len(all_ids)
        for patch in patches:
            for obj in patch.objects:
                coverage = obj.box.intersection_area(patch.region) / obj.box.area
                assert coverage >= partitioner.object_coverage_threshold - 1e-9

    def test_callable_extractor_supported(self, scene01_frames):
        frame = scene01_frames[0]
        partitioner = FramePartitioner(
            zones_x=2, zones_y=2, roi_extractor=lambda f: [obj.box for obj in f.objects]
        )
        patches = partitioner.partition(frame, 0.0, 1.0)
        assert patches

    def test_precomputed_rois_override_extractor(self, scene01_frames):
        partitioner = self._partitioner()
        frame = scene01_frames[0]
        rois = [Box(100, 100, 50, 50)]
        patches = partitioner.partition(frame, 0.0, 1.0, rois=rois)
        assert len(patches) == 1
        assert patches[0].region == Box(100, 100, 50, 50)

    def test_min_patch_area_filters_noise(self, scene01_frames):
        frame = scene01_frames[0]
        partitioner = FramePartitioner(
            zones_x=4, zones_y=4,
            roi_extractor=lambda f: [Box(5, 5, 3, 3)],
            min_patch_area=256.0,
        )
        assert partitioner.partition(frame, 0.0, 1.0) == []

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
                kept += len({o.object_id for p in patches for o in p.objects})
                total += frame.num_objects
            coverage[zones] = kept / total
        assert coverage[2] >= coverage[6] - 0.02
