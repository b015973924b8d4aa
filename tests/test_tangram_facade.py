"""Tests for the offline Tangram facade (Section IV public API)."""

from __future__ import annotations

import pytest

from repro.core.tangram import Tangram, TangramConfig
from repro.simulation.random_streams import RandomStreams


@pytest.fixture(scope="module")
def tangram() -> Tangram:
    return Tangram(config=TangramConfig(), streams=RandomStreams(21))


def test_partition_returns_patches_with_default_slo(tangram, scene01_frames):
    patches = tangram.partition(scene01_frames[0], camera_id="cam-1")
    assert patches
    assert all(patch.slo == tangram.config.slo for patch in patches)
    assert all(patch.camera_id == "cam-1" for patch in patches)


def test_partition_respects_explicit_slo_and_time(tangram, scene01_frames):
    patches = tangram.partition(scene01_frames[1], generation_time=4.0, slo=0.7)
    assert all(patch.generation_time == 4.0 for patch in patches)
    assert all(patch.slo == 0.7 for patch in patches)


def test_stitch_packs_all_patches(tangram, scene01_frames):
    patches = tangram.partition(scene01_frames[2])
    canvases = tangram.stitch(patches)
    placed = sum(canvas.num_patches for canvas in canvases)
    assert placed == len(patches)


def test_process_frame_offline_produces_cost_and_bytes(tangram, scene01_frames):
    result = tangram.process_frame_offline(scene01_frames[3])
    assert result.num_patches > 0
    assert result.num_canvases > 0
    assert result.cost > 0
    assert result.uploaded_bytes > 0
    assert result.execution_time > 0
    assert 0 < result.mean_canvas_efficiency <= 1.0


def test_offline_cost_cheaper_than_per_patch_invocations(tangram, scene01_frames):
    """Stitching several patches into one request beats invoking per patch
    (the Fig. 8 Tangram-vs-ELF gap)."""
    frame = scene01_frames[4]
    result = tangram.process_frame_offline(frame)
    per_patch_cost = sum(
        tangram.cost_model.invocation_cost(
            tangram.latency_model.mean_latency(1, patch.area)
        )
        for patch in result.patches
    )
    assert result.cost < per_patch_cost


def test_config_defaults_follow_paper():
    config = TangramConfig()
    assert config.zones_x == 4 and config.zones_y == 4
    assert config.canvas_width == 1024 and config.canvas_height == 1024
    assert config.slo == 1.0
    assert config.roi_method == "gmm"


@pytest.mark.parametrize(
    "overrides",
    [
        {"zones_x": 2.5},
        {"zones_y": 0},
        {"slo": -1.0},
        {"slo": float("nan")},
        {"slo": float("inf")},
        {"canvas_width": float("nan")},
        {"canvas_height": float("inf")},
        {"roi_method": "nope"},
    ],
    ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
)
def test_malformed_config_rejected_at_construction(overrides):
    """Each of these used to construct, then fail at the first partition
    or when the facade built its parts."""
    with pytest.raises(ValueError):
        TangramConfig(**overrides)


def test_empty_frame_offline_result_is_free(tangram, scene01_frames):
    from repro.video.frames import Frame

    empty = Frame(
        scene_key="scene_01", frame_index=999, timestamp=0.0,
        width=3840, height=2160, objects=(),
    )
    result = tangram.process_frame_offline(empty)
    # With no ground-truth objects the extractor can still emit a few
    # false-positive RoIs, but cost must be tiny compared to a real frame.
    real = tangram.process_frame_offline(scene01_frames[0])
    assert result.cost <= real.cost
