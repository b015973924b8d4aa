"""Deterministic patch-level fleet workloads for the chaos experiments.

The fault-injection scenarios need a workload whose *base* stream is
bit-identical across fault intensities: if raising the loss dial also
changed which patches the cameras produced, "more faults never increases
delivered efficiency" would be unverifiable.  So instead of the frame /
RoI generator (whose numpy streams are consumed in arrival order), every
patch here is a pure function of ``(seed, camera, frame, slot)`` through
the counter-based uniforms of :mod:`repro.network.link` -- suppressing,
dropping, or delaying any subset of the stream leaves every other patch
exactly as it was.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.patches import Patch
from repro.network.link import counter_uniform
from repro.video.geometry import Box

#: Scene key of regular fleet patches.
BASE_SCENE = "fleet"
#: Scene key tagging the surplus patches injected by burst fault events;
#: the chaos metrics exclude them from the delivered-fraction numerator
#: and denominator.
BURST_SCENE = "fault:burst"


@dataclass(frozen=True)
class FleetWorkloadConfig:
    """Shape of the synthetic fleet stream."""

    num_cameras: int = 8
    fps: float = 4.0
    duration_s: float = 8.0
    patches_per_frame: int = 2
    slo: float = 1.0
    seed: int = 7
    min_patch: float = 96.0
    max_patch: float = 256.0

    def __post_init__(self) -> None:
        # NaN and fractional counts pass ``< 1`` and would only fail in
        # ``range()`` mid-run, so they fail here.
        for name in ("num_cameras", "patches_per_frame"):
            count = getattr(self, name)
            if not isinstance(count, numbers.Integral) or count < 1:
                raise ValueError(f"{name} must be an integer of at least 1")
        # ``not x > 0`` rather than ``x <= 0``, so NaN fails too.
        if not (self.fps > 0 and self.duration_s > 0 and self.slo > 0):
            raise ValueError("fps, duration_s and slo must be positive")
        # An infinite rate or duration has no frame count, an infinite
        # patch never finishes its transfer, and an infinite SLO sets the
        # batch timer at t = inf, so every patch is "on time" in one batch.
        if not all(map(math.isfinite, (self.fps, self.duration_s, self.slo))):
            raise ValueError("fps, duration_s and slo must be finite")
        if not 0 < self.min_patch <= self.max_patch < math.inf:
            raise ValueError("need 0 < min_patch <= max_patch < inf")
        # The seed reaches ``counter_uniform`` as text, so 2.0 would draw
        # another workload than 2, and True another than 1; NaN is no
        # ``Integral`` either.
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be an integer of at least 0, got {seed!r}")

    @property
    def frames_per_camera(self) -> int:
        return int(self.duration_s * self.fps)

    @property
    def total_base_patches(self) -> int:
        """The fault-free denominator of every delivered-fraction metric."""
        return self.num_cameras * self.frames_per_camera * self.patches_per_frame


def camera_ids(config: FleetWorkloadConfig) -> List[str]:
    return [f"cam-{index:03d}" for index in range(config.num_cameras)]


def capture_times(config: FleetWorkloadConfig, camera_id: str) -> List[float]:
    """Capture instants for one camera: a per-camera phase plus the frame
    grid, so the fleet's arrivals interleave instead of stampeding."""
    interval = 1.0 / config.fps
    phase = interval * counter_uniform(config.seed, "fleet/phase", camera_id)
    return [phase + k * interval for k in range(config.frames_per_camera)]


def capture_schedule(config: FleetWorkloadConfig) -> List[Tuple[str, int, float]]:
    """``(camera_id, frame_index, capture_time)`` triples in the canonical
    camera-major order.

    Both the single-scheduler scenario and the sharded frontend schedule
    their capture events by iterating this exact sequence; since the
    simulator breaks equal-time ties by insertion order, sharing the
    iteration is what makes the ``shards=1`` byte-identity pin a
    structural property instead of a coincidence.
    """
    return [
        (camera_id, frame_index, when)
        for camera_id in camera_ids(config)
        for frame_index, when in enumerate(capture_times(config, camera_id))
    ]


def patch_dimensions(
    config: FleetWorkloadConfig, camera_id: str, frame_index: int, slot: int
) -> Tuple[float, float]:
    """Width/height of one patch, a pure function of its identity."""
    span = config.max_patch - config.min_patch
    width = config.min_patch + span * counter_uniform(
        config.seed, "fleet/patch-w", (camera_id, frame_index, slot)
    )
    height = config.min_patch + span * counter_uniform(
        config.seed, "fleet/patch-h", (camera_id, frame_index, slot)
    )
    return round(width, 1), round(height, 1)


def make_patch(
    config: FleetWorkloadConfig,
    camera_id: str,
    frame_index: int,
    slot: int,
    generation_time: float,
    scene_key: str = BASE_SCENE,
) -> Patch:
    """Materialise one patch of the deterministic stream."""
    width, height = patch_dimensions(config, camera_id, frame_index, slot)
    return Patch(
        camera_id=camera_id,
        frame_index=frame_index,
        region=Box(0.0, 0.0, width, height),
        generation_time=generation_time,
        slo=config.slo,
        scene_key=scene_key,
    )
