"""Tests for the encoding size model."""

from __future__ import annotations

import pytest

from repro.network.encoding import EncodingModel, FrameEncoder
from repro.video.frames import Frame, GroundTruthObject
from repro.video.geometry import Box


def _frame(objects=()) -> Frame:
    return Frame(
        scene_key="scene_01", frame_index=0, timestamp=0.0,
        width=3840, height=2160, objects=tuple(objects),
    )


def test_region_bytes_scale_with_area():
    encoder = FrameEncoder()
    small = encoder.region_bytes(100_000)
    large = encoder.region_bytes(1_000_000)
    assert large > small
    # Payload portion scales linearly with area.
    header = encoder.model.header_bytes
    assert (large - header) == pytest.approx(10 * (small - header))


def test_patch_bytes_include_metadata():
    encoder = FrameEncoder()
    box = Box(0, 0, 100, 100)
    assert encoder.patch_bytes(box) == pytest.approx(
        encoder.region_bytes(10_000) + encoder.model.metadata_bytes_per_patch
    )


def test_full_frame_bytes_for_4k_frame():
    encoder = FrameEncoder()
    frame = _frame()
    expected_payload = 3840 * 2160 * encoder.model.bits_per_pixel_content / 8
    assert encoder.full_frame_bytes(frame) == pytest.approx(
        expected_payload + encoder.model.header_bytes
    )


def test_masked_frame_cheaper_than_full_frame():
    encoder = FrameEncoder()
    objects = [GroundTruthObject(object_id=0, box=Box(100, 100, 200, 400))]
    frame = _frame(objects)
    masked = encoder.masked_frame_bytes(frame, [obj.box for obj in objects])
    assert masked < encoder.full_frame_bytes(frame)


def test_masked_frame_with_full_coverage_equals_full_frame_payload():
    encoder = FrameEncoder()
    frame = _frame()
    masked = encoder.masked_frame_bytes(frame, [Box(0, 0, 3840, 2160)])
    assert masked == pytest.approx(encoder.full_frame_bytes(frame))


def test_patches_cheaper_than_full_frame_when_rois_sparse():
    """The bandwidth-saving premise of the paper (Table II / Fig. 9)."""
    encoder = FrameEncoder()
    frame = _frame()
    patches = [Box(100 * i, 100, 200, 300) for i in range(10)]
    total = sum(encoder.patch_bytes(box) for box in patches)
    assert total < 0.5 * encoder.full_frame_bytes(frame)


def test_negative_area_rejected():
    with pytest.raises(ValueError):
        FrameEncoder().region_bytes(-1)


def test_encoding_model_validation():
    with pytest.raises(ValueError):
        EncodingModel(bits_per_pixel_content=0)
    with pytest.raises(ValueError):
        EncodingModel(bits_per_pixel_masked=-0.1)


def test_custom_encoding_model_changes_sizes():
    cheap = FrameEncoder(EncodingModel(bits_per_pixel_content=1.0))
    default = FrameEncoder()
    frame = _frame()
    assert cheap.full_frame_bytes(frame) < default.full_frame_bytes(frame)


def test_memoised_value_matches_direct_computation():
    encoder = FrameEncoder()
    box = Box(0, 0, 64, 64)
    expected = encoder.region_bytes(box.area) + encoder.model.metadata_bytes_per_patch
    assert encoder.patch_bytes(box) == pytest.approx(expected)
    assert encoder.patch_bytes(box) == pytest.approx(expected)
