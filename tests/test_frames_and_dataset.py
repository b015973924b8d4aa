"""Tests for Frame records and dataset assembly."""

from __future__ import annotations

import pytest

from repro.video.dataset import build_panda4k, build_scene_split
from repro.video.frames import Frame, GroundTruthObject
from repro.video.geometry import Box
from repro.video.scenes import get_scene


def _frame(num_objects: int = 2, index: int = 0) -> Frame:
    objects = tuple(
        GroundTruthObject(object_id=i, box=Box(10 * i, 20 * i, 50, 100))
        for i in range(num_objects)
    )
    return Frame(
        scene_key="scene_01",
        frame_index=index,
        timestamp=index * 0.5,
        width=3840,
        height=2160,
        objects=objects,
    )


class TestFrame:
    def test_roi_proportion(self):
        frame = _frame(num_objects=2)
        expected = 2 * 50 * 100 / (3840 * 2160)
        assert frame.roi_proportion == pytest.approx(expected)

    def test_empty_frame_has_zero_proportion(self):
        frame = _frame(num_objects=0)
        assert frame.roi_proportion == 0.0
        assert frame.num_objects == 0

    def test_boxes_property(self):
        frame = _frame(num_objects=3)
        assert len(frame.boxes) == 3
        assert all(isinstance(box, Box) for box in frame.boxes)


class TestDataset:
    def test_build_scene_split_respects_paper_split(self):
        split = build_scene_split(get_scene("scene_05"), limit_frames=None,
                                  max_concurrent_objects=60)
        assert len(split.train) == 100
        assert len(split.eval) == 33
        assert len(split.all_frames) == 133

    def test_limit_frames_preserves_split_proportion(self):
        split = build_scene_split(get_scene("scene_01"), limit_frames=30,
                                  max_concurrent_objects=60)
        # 100/234 of 30 frames ~ 13 training frames.
        assert 10 <= len(split.train) <= 16
        assert len(split.train) + len(split.eval) == 30

    def test_build_panda4k_subset(self, small_dataset):
        assert small_dataset.scene_keys == ["scene_01", "scene_05"]
        assert small_dataset.total_train_frames > 0
        assert small_dataset.total_eval_frames > 0

    def test_eval_and_train_accessors(self, small_dataset):
        assert small_dataset.eval_frames("scene_01")
        assert small_dataset.train_frames("scene_01")
        with pytest.raises(KeyError):
            small_dataset.eval_frames("scene_09")

    def test_dataset_is_deterministic_for_seed(self):
        a = build_panda4k(seed=5, scene_keys=["scene_03"], limit_frames=10,
                          max_concurrent_objects=50)
        b = build_panda4k(seed=5, scene_keys=["scene_03"], limit_frames=10,
                          max_concurrent_objects=50)
        frames_a = a.split("scene_03").all_frames
        frames_b = b.split("scene_03").all_frames
        assert [f.num_objects for f in frames_a] == [f.num_objects for f in frames_b]
