"""Assembly of the PANDA4K-like dataset used throughout the evaluation.

The paper combines the first 100 frames of each scene into a 1000-sample
training set and evaluates on the remaining frames (134/134/134/48/33/122/
80/134/134/134 frames per scene).  :func:`build_panda4k` reproduces that
split over the synthetic scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame
from repro.video.generator import SceneGenerator
from repro.video.scenes import PANDA4K_SCENES, SceneProfile, get_scene


@dataclass
class SceneSplit:
    """The train/eval frames of one scene."""

    profile: SceneProfile
    train: List[Frame] = field(default_factory=list)
    eval: List[Frame] = field(default_factory=list)

    @property
    def all_frames(self) -> List[Frame]:
        return list(self.train) + list(self.eval)


@dataclass
class PandaDataset:
    """The full ten-scene dataset with per-scene train/eval splits."""

    scenes: Dict[str, SceneSplit] = field(default_factory=dict)

    @property
    def scene_keys(self) -> List[str]:
        return sorted(self.scenes)

    def split(self, scene_key: str) -> SceneSplit:
        if scene_key not in self.scenes:
            raise KeyError(f"scene {scene_key!r} not in dataset")
        return self.scenes[scene_key]

    def eval_frames(self, scene_key: str) -> List[Frame]:
        return self.split(scene_key).eval

    def train_frames(self, scene_key: str) -> List[Frame]:
        return self.split(scene_key).train

    @property
    def total_train_frames(self) -> int:
        return sum(len(split.train) for split in self.scenes.values())

    @property
    def total_eval_frames(self) -> int:
        return sum(len(split.eval) for split in self.scenes.values())


def build_scene_split(
    profile: SceneProfile,
    streams: Optional[RandomStreams] = None,
    fps: float = 2.0,
    max_concurrent_objects: Optional[int] = None,
    limit_frames: Optional[int] = None,
) -> SceneSplit:
    """Generate one scene and split it into train/eval parts.

    ``limit_frames`` truncates the total sequence, preserving the split
    proportions; it exists so tests and quick benchmark runs do not have to
    generate the full 234-frame sequences.
    """
    total = profile.total_frames if limit_frames is None else min(
        limit_frames, profile.total_frames
    )
    generator = SceneGenerator(
        profile,
        streams=streams,
        fps=fps,
        max_concurrent_objects=max_concurrent_objects,
    )
    frames = generator.generate(num_frames=total)
    if limit_frames is None:
        train_count = profile.train_frames
    else:
        # Preserve the paper's ~100/total proportion when truncating.
        train_count = max(1, int(round(total * profile.train_frames / profile.total_frames)))
    train_count = min(train_count, total)
    return SceneSplit(
        profile=profile, train=frames[:train_count], eval=frames[train_count:]
    )


def build_panda4k(
    seed: int = 0,
    scene_keys: Optional[List[str]] = None,
    fps: float = 2.0,
    max_concurrent_objects: Optional[int] = None,
    limit_frames: Optional[int] = None,
) -> PandaDataset:
    """Build the synthetic PANDA4K dataset.

    Parameters
    ----------
    seed:
        Root seed; every scene derives its own independent stream.
    scene_keys:
        Subset of scenes to build (default: all ten).
    fps:
        Timestamp spacing of generated frames.
    max_concurrent_objects:
        Optional cap on simultaneously simulated objects (used by
        tests to keep scenes small).
    limit_frames:
        Optional truncation of each scene's sequence length.
    """
    streams = RandomStreams(seed)
    keys = scene_keys if scene_keys is not None else sorted(PANDA4K_SCENES)
    dataset = PandaDataset()
    for key in keys:
        profile = get_scene(key)
        dataset.scenes[key] = build_scene_split(
            profile,
            streams=streams.spawn(key),
            fps=fps,
            max_concurrent_objects=max_concurrent_objects,
            limit_frames=limit_frames,
        )
    return dataset
