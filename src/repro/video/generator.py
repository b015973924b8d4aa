"""Synthetic scene generation.

:class:`SceneGenerator` turns a :class:`~repro.video.scenes.SceneProfile`
into a sequence of annotated :class:`~repro.video.frames.Frame` objects
whose aggregate statistics match what the paper reports for the PANDA4K
scenes:

* the mean RoI area proportion matches Table I;
* the RoI proportion fluctuates irregularly over time with occasional
  bursts (Fig. 3(a));
* object sizes follow a wide log-normal distribution with pedestrian-like
  aspect ratios, giving RoI widths up to ~250 px and heights up to ~400 px
  at 4K (Fig. 4(a));
* objects congregate around scene-specific cluster centres so that zone
  partitioning produces realistic, non-uniform patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame, GroundTruthObject
from repro.video.geometry import Box
from repro.video.scenes import SceneProfile


@dataclass
class _ObjectState:
    """Mutable state of one simulated person between frames."""

    object_id: int
    x: float
    y: float
    width: float
    height: float
    vx: float
    vy: float
    contrast: float
    active: bool = True


class SceneGenerator:
    """Generate annotated frames for a single scene profile.

    Parameters
    ----------
    profile:
        The calibrated scene description.
    streams:
        Random stream factory; the generator draws from the stream named
        ``"scene/<key>"`` so different scenes are independent.
    fps:
        Frame rate used only to stamp frame timestamps.
    max_concurrent_objects:
        Optional cap on the number of simultaneously simulated objects.
        The two very crowded scenes (Xinzhongguan, Huaqiangbei) list many
        hundreds of persons; the analytic pipeline handles that, and tests
        cap it to stay small.
    """

    def __init__(
        self,
        profile: SceneProfile,
        streams: Optional[RandomStreams] = None,
        fps: float = 2.0,
        max_concurrent_objects: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.fps = fps
        self.streams = streams or RandomStreams(root_seed=profile.index)
        self.rng = self.streams.get(f"scene/{profile.key}")
        if max_concurrent_objects is not None and max_concurrent_objects < 1:
            raise ValueError("max_concurrent_objects must be at least 1")
        self.max_concurrent_objects = max_concurrent_objects
        self._next_object_id = 0

    # ------------------------------------------------------------------ sizes
    def _target_population(self) -> int:
        population = self.profile.num_persons
        if self.max_concurrent_objects is not None:
            population = min(population, self.max_concurrent_objects)
        return max(1, population)

    def _mean_object_area(self, population: int) -> float:
        """Mean box area such that ``population`` objects cover the
        profile's RoI area fraction."""
        return self.profile.roi_area_fraction * self.profile.frame_area / population

    def _sample_object_size(self, mean_area: float) -> tuple[float, float]:
        """Draw (width, height) from a log-normal area distribution with a
        pedestrian aspect ratio.  Clamped so boxes stay plausible."""
        # Log-normal with sigma 0.6 gives the long tail visible in Fig. 4(a).
        area = mean_area * float(self.rng.lognormal(mean=-0.18, sigma=0.6))
        aspect = max(
            1.2, float(self.rng.normal(self.profile.mean_aspect_ratio, 0.35))
        )
        width = math.sqrt(area / aspect)
        height = width * aspect
        width = float(np.clip(width, 8.0, self.profile.frame_width * 0.12))
        height = float(np.clip(height, 16.0, self.profile.frame_height * 0.25))
        return width, height

    # -------------------------------------------------------------- placement
    def _sample_position(self, width: float, height: float) -> tuple[float, float]:
        """Place an object near one of the scene's cluster centres."""
        centers = self.profile.cluster_centers
        weights = np.array([c[2] for c in centers], dtype=float)
        weights = weights / weights.sum()
        chosen = centers[int(self.rng.choice(len(centers), p=weights))]
        spread_x = self.profile.cluster_spread * self.profile.frame_width
        spread_y = self.profile.cluster_spread * self.profile.frame_height
        x = float(self.rng.normal(chosen[0] * self.profile.frame_width, spread_x))
        y = float(self.rng.normal(chosen[1] * self.profile.frame_height, spread_y))
        x = float(np.clip(x, 0.0, self.profile.frame_width - width))
        y = float(np.clip(y, 0.0, self.profile.frame_height - height))
        return x, y

    def _sample_contrast(self) -> float:
        """Object contrast correlated with the scene's full-frame AP so the
        simulated detector reproduces Table III's per-scene accuracy."""
        base = self.profile.full_frame_ap
        contrast = float(self.rng.normal(base, 0.12))
        return float(np.clip(contrast, 0.05, 1.0))

    def _spawn_object(self) -> _ObjectState:
        population = self._target_population()
        width, height = self._sample_object_size(self._mean_object_area(population))
        x, y = self._sample_position(width, height)
        speed = max(0.0, float(self.rng.normal(self.profile.motion_speed, 2.0)))
        heading = float(self.rng.uniform(0, 2 * math.pi))
        state = _ObjectState(
            object_id=self._next_object_id,
            x=x,
            y=y,
            width=width,
            height=height,
            vx=speed * math.cos(heading),
            vy=speed * math.sin(heading),
            contrast=self._sample_contrast(),
        )
        self._next_object_id += 1
        return state

    # ----------------------------------------------------------- fluctuation
    def _active_count(self, frame_index: int, population: int) -> int:
        """Number of visible objects at ``frame_index``.

        A slow sinusoid plus noise plus occasional multiplicative bursts
        reproduces the irregular peaks of Fig. 3(a).
        """
        phase = 2 * math.pi * frame_index / max(1, self.profile.fluctuation_period)
        slow = 1.0 + self.profile.fluctuation_amplitude * 0.6 * math.sin(phase)
        noise = float(self.rng.normal(1.0, 0.08))
        burst = 1.0
        if self.rng.random() < self.profile.burst_probability:
            burst = 1.0 + self.profile.fluctuation_amplitude
        count = int(round(population * slow * noise * burst))
        return int(np.clip(count, max(1, population // 4), int(population * 1.8)))

    # ----------------------------------------------------------------- frames
    def generate(
        self, num_frames: Optional[int] = None, start_index: int = 0
    ) -> List[Frame]:
        """Generate ``num_frames`` consecutive annotated frames.

        When ``num_frames`` is omitted, the profile's full sequence length
        is generated.  ``start_index`` offsets frame indices and timestamps
        so train/eval splits can be generated separately yet consistently.
        """
        if num_frames is None:
            num_frames = self.profile.total_frames
        if num_frames < 0:
            raise ValueError("num_frames must be non-negative")

        population = self._target_population()
        objects: List[_ObjectState] = [self._spawn_object() for _ in range(population)]
        frames: List[Frame] = []

        for local_index in range(num_frames):
            frame_index = start_index + local_index
            target = self._active_count(frame_index, population)

            # Grow or shrink the live object pool toward the target count.
            while len(objects) < target:
                objects.append(self._spawn_object())
            while len(objects) > target:
                # Objects leave the scene from the end of the pool (oldest
                # spawned stay longer, mimicking loitering pedestrians).
                objects.pop()

            annotations: List[GroundTruthObject] = []
            for state in objects:
                motion = self._advance(state)
                box = Box(state.x, state.y, state.width, state.height)
                clipped = box.clip_to(
                    self.profile.frame_width, self.profile.frame_height
                )
                if clipped is None or clipped.area < 32.0:
                    continue
                annotations.append(
                    GroundTruthObject(
                        object_id=state.object_id,
                        box=clipped,
                        contrast=state.contrast,
                        motion=motion,
                    )
                )

            frames.append(
                Frame(
                    scene_key=self.profile.key,
                    frame_index=frame_index,
                    timestamp=frame_index / self.fps,
                    width=self.profile.frame_width,
                    height=self.profile.frame_height,
                    objects=tuple(annotations),
                )
            )
        return frames

    def _advance(self, state: _ObjectState) -> float:
        """Random-walk the object one frame forward; return displacement."""
        state.vx += float(self.rng.normal(0.0, 1.5))
        state.vy += float(self.rng.normal(0.0, 1.5))
        # Dampen so velocities stay near the profile's motion speed.
        speed = math.hypot(state.vx, state.vy)
        max_speed = self.profile.motion_speed * 2.5
        if speed > max_speed and speed > 0:
            state.vx *= max_speed / speed
            state.vy *= max_speed / speed
        old_x, old_y = state.x, state.y
        state.x += state.vx
        state.y += state.vy
        # Bounce at the frame border to keep objects in the field of view.
        if state.x < 0 or state.x + state.width > self.profile.frame_width:
            state.vx = -state.vx
            state.x = float(
                np.clip(state.x, 0.0, self.profile.frame_width - state.width)
            )
        if state.y < 0 or state.y + state.height > self.profile.frame_height:
            state.vy = -state.vy
            state.y = float(
                np.clip(state.y, 0.0, self.profile.frame_height - state.height)
            )
        return math.hypot(state.x - old_x, state.y - old_y)
