"""Encoded-size models for frames, masked frames, and patches.

The bandwidth experiments (Table II, Fig. 9) compare how many bytes each
strategy transmits per frame.  Real systems encode crops and frames with
JPEG/H.264; the dominant effect for this comparison is simply how much
*textured* area is sent and how cheaply *uniform* (masked) area compresses.
The model therefore charges a configurable number of bits per pixel for
content, a much smaller number for masked background, and a fixed header
per independently encoded image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.video.frames import Frame
from repro.video.geometry import Box


@dataclass(frozen=True)
class EncodingModel:
    """Bit-cost parameters of the codec.

    Attributes
    ----------
    bits_per_pixel_content:
        Average coded bits per pixel for textured content (people, street
        furniture, buildings) at the quality the paper transmits at.
    bits_per_pixel_masked:
        Bits per pixel for masked / blanked regions; the codec spends a
        little on signalling even for flat areas.
    header_bytes:
        Fixed per-image overhead (container, quantisation tables, HTTP
        framing) charged once per independently encoded image (one per
        patch for patch-based strategies, one per frame otherwise).
    metadata_bytes_per_patch:
        Size of the patch descriptor Tangram uploads alongside each patch
        (generation time, patch size, SLO).
    """

    bits_per_pixel_content: float = 1.2
    bits_per_pixel_masked: float = 0.3
    header_bytes: int = 1200
    metadata_bytes_per_patch: int = 64

    def __post_init__(self) -> None:
        if self.bits_per_pixel_content <= 0:
            raise ValueError("bits_per_pixel_content must be positive")
        if self.bits_per_pixel_masked < 0:
            raise ValueError("bits_per_pixel_masked must be non-negative")


class FrameEncoder:
    """Compute transmitted sizes for the strategies the paper compares."""

    def __init__(self, model: EncodingModel | None = None) -> None:
        self.model = model or EncodingModel()

    # ------------------------------------------------------------------ sizes
    def region_bytes(self, area_pixels: float, include_header: bool = True) -> float:
        """Encoded size of one cropped region of ``area_pixels`` pixels."""
        if area_pixels < 0:
            raise ValueError("area_pixels must be non-negative")
        payload = area_pixels * self.model.bits_per_pixel_content / 8.0
        header = self.model.header_bytes if include_header else 0
        return payload + header

    def patch_bytes(self, patch_box: Box) -> float:
        """Encoded size of one Tangram/ELF patch, including its metadata."""
        return self.region_bytes(patch_box.area) + self.model.metadata_bytes_per_patch

    def full_frame_bytes(self, frame: Frame) -> float:
        """Encoded size of the whole frame at transmission quality."""
        return self.region_bytes(frame.area)

    def masked_frame_bytes(self, frame: Frame, roi_boxes: Sequence[Box]) -> float:
        """Encoded size of a frame whose non-RoI pixels are masked out.

        The RoI pixels cost full content bits; the masked background still
        costs a (small) number of bits per pixel because the codec has to
        represent the full 4K canvas.
        """
        roi_area = min(frame.area, sum(box.area for box in roi_boxes))
        masked_area = max(0.0, frame.area - roi_area)
        payload = (
            roi_area * self.model.bits_per_pixel_content
            + masked_area * self.model.bits_per_pixel_masked
        ) / 8.0
        return payload + self.model.header_bytes
