"""Tests for the frame renderer and the Stauffer-Grimson background model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame, GroundTruthObject
from repro.video.generator import SceneGenerator
from repro.video.geometry import Box
from repro.video.renderer import FrameRenderer
from repro.video.scenes import get_scene
from repro.vision.gmm import GaussianMixtureBackgroundSubtractor, mask_to_boxes


def _static_background_frame(objects=()) -> Frame:
    return Frame(
        scene_key="scene_01",
        frame_index=0,
        timestamp=0.0,
        width=3840,
        height=2160,
        objects=tuple(objects),
    )


class TestFrameRenderer:
    def test_render_shape_and_range(self):
        renderer = FrameRenderer(render_width=160, render_height=90)
        image = renderer.render(_static_background_frame())
        assert image.shape == (90, 160)
        assert image.min() >= 0.0
        assert image.max() <= 255.0

    def test_objects_change_pixels(self):
        renderer = FrameRenderer(render_width=160, render_height=90, noise_std=0.0)
        empty = renderer.render(_static_background_frame(), noise=False)
        obj = GroundTruthObject(
            object_id=0, box=Box(1000, 600, 400, 600), contrast=0.9
        )
        with_object = renderer.render(_static_background_frame([obj]), noise=False)
        assert not np.allclose(empty, with_object)

    def test_scale_and_unscale_roundtrip(self):
        renderer = FrameRenderer(render_width=480, render_height=270)
        box = Box(1000, 500, 200, 300)
        roundtrip = renderer.unscale_box(renderer.scale_box(box))
        assert roundtrip.x == pytest.approx(box.x, abs=1e-6)
        assert roundtrip.width == pytest.approx(box.width, abs=1e-6)

    def test_invalid_render_size_rejected(self):
        with pytest.raises(ValueError):
            FrameRenderer(render_width=0, render_height=10)


class TestGaussianMixtureBackgroundSubtractor:
    def test_first_frame_produces_empty_mask(self):
        gmm = GaussianMixtureBackgroundSubtractor()
        mask = gmm.apply(np.full((20, 20), 100.0))
        assert not mask.any()

    def test_static_scene_stays_background(self):
        gmm = GaussianMixtureBackgroundSubtractor(learning_rate=0.05)
        frame = np.full((30, 30), 120.0)
        for _ in range(10):
            mask = gmm.apply(frame)
        assert mask.sum() == 0

    def test_moving_object_detected_as_foreground(self):
        gmm = GaussianMixtureBackgroundSubtractor(learning_rate=0.05)
        background = np.full((40, 40), 100.0)
        for _ in range(15):
            gmm.apply(background)
        scene = background.copy()
        scene[10:20, 10:20] = 220.0
        mask = gmm.apply(scene)
        assert mask[12:18, 12:18].mean() > 0.8
        assert mask[30:, 30:].mean() < 0.1

    def test_stationary_object_absorbed_into_background(self):
        gmm = GaussianMixtureBackgroundSubtractor(learning_rate=0.2)
        background = np.full((30, 30), 100.0)
        for _ in range(10):
            gmm.apply(background)
        scene = background.copy()
        scene[5:15, 5:15] = 220.0
        # After the object stays put long enough, it becomes background.
        for _ in range(60):
            mask = gmm.apply(scene)
        assert mask[7:13, 7:13].mean() < 0.3

    def test_non_grayscale_input_rejected(self):
        gmm = GaussianMixtureBackgroundSubtractor()
        with pytest.raises(ValueError):
            gmm.apply(np.zeros((4, 4, 3)))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixtureBackgroundSubtractor(num_gaussians=0)
        with pytest.raises(ValueError):
            GaussianMixtureBackgroundSubtractor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GaussianMixtureBackgroundSubtractor(background_ratio=1.5)

    def test_on_rendered_scene_finds_moving_objects(self):
        """Integration: render a synthetic scene and check that the GMM
        picks up a reasonable share of the moving objects."""
        generator = SceneGenerator(
            get_scene("scene_04"),
            streams=RandomStreams(13),
            max_concurrent_objects=25,
        )
        frames = generator.generate(num_frames=12)
        renderer = FrameRenderer(render_width=320, render_height=180, noise_std=1.0)
        gmm = GaussianMixtureBackgroundSubtractor(learning_rate=0.08)
        last_mask = None
        for frame in frames:
            last_mask = gmm.apply(renderer.render(frame))
        assert last_mask is not None
        boxes = mask_to_boxes(last_mask, min_area=4)
        # At least a few of the ~25 objects should be segmented.
        assert len(boxes) >= 3


class TestMaskToBoxes:
    def test_single_blob_single_box(self):
        mask = np.zeros((50, 50), dtype=bool)
        mask[10:20, 15:30] = True
        boxes = mask_to_boxes(mask, dilation_iterations=0)
        assert len(boxes) == 1
        assert boxes[0].width == 15
        assert boxes[0].height == 10

    def test_two_blobs_two_boxes(self):
        mask = np.zeros((60, 60), dtype=bool)
        mask[5:10, 5:10] = True
        mask[40:50, 40:50] = True
        boxes = mask_to_boxes(mask, dilation_iterations=0)
        assert len(boxes) == 2

    def test_small_blobs_filtered_by_min_area(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[3, 3] = True
        assert mask_to_boxes(mask, min_area=4.0, dilation_iterations=0) == []

    def test_dilation_merges_nearby_blobs(self):
        mask = np.zeros((30, 30), dtype=bool)
        mask[10:12, 10:14] = True
        mask[13:15, 10:14] = True  # one-pixel gap
        merged = mask_to_boxes(mask, dilation_iterations=1)
        assert len(merged) == 1

    def test_empty_mask_returns_no_boxes(self):
        assert mask_to_boxes(np.zeros((10, 10), dtype=bool)) == []

    def test_non_2d_mask_rejected(self):
        with pytest.raises(ValueError):
            mask_to_boxes(np.zeros((4, 4, 2), dtype=bool))
