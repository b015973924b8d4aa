"""Shared fixtures for the test suite.

Scene generation is the most expensive setup step, so the fixtures that
need frames are session-scoped and use reduced frame counts / object caps.
All fixtures are deterministic (fixed seeds) so test failures reproduce.
"""

from __future__ import annotations

import pytest

from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher
from repro.simulation.engine import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.video.dataset import build_panda4k
from repro.video.generator import SceneGenerator
from repro.video.geometry import Box
from repro.video.scenes import get_scene


@pytest.fixture()
def simulator() -> Simulator:
    return Simulator()


@pytest.fixture()
def streams() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture(scope="session")
def scene01_frames():
    """A short scene_01 sequence (reasonably dense, moderate object count)."""
    generator = SceneGenerator(get_scene("scene_01"), streams=RandomStreams(7))
    return generator.generate(num_frames=20)


@pytest.fixture(scope="session")
def scene05_frames():
    """A short scene_05 sequence (sparse scene, few objects)."""
    generator = SceneGenerator(get_scene("scene_05"), streams=RandomStreams(9))
    return generator.generate(num_frames=20)


@pytest.fixture(scope="session")
def small_dataset():
    """A two-scene dataset with truncated sequences for pipeline tests."""
    return build_panda4k(
        seed=3,
        scene_keys=["scene_01", "scene_05"],
        limit_frames=30,
        max_concurrent_objects=120,
    )


@pytest.fixture()
def sample_patches() -> list[Patch]:
    """A handful of hand-sized patches for stitching/scheduling tests."""
    sizes = [(200, 300), (400, 250), (150, 150), (600, 500), (90, 120), (320, 480)]
    patches = []
    for index, (width, height) in enumerate(sizes):
        patches.append(
            Patch(
                camera_id="camera-0",
                frame_index=0,
                region=Box(10.0 * index, 5.0 * index, float(width), float(height)),
                generation_time=0.0,
                slo=1.0,
            )
        )
    return patches


def make_patch(
    width: float,
    height: float,
    generation_time: float = 0.0,
    slo: float = 1.0,
    camera_id: str = "camera-0",
    frame_index: int = 0,
) -> Patch:
    """Helper used across tests to build a patch of a given size."""
    return Patch(
        camera_id=camera_id,
        frame_index=frame_index,
        region=Box(0.0, 0.0, width, height),
        generation_time=generation_time,
        slo=slo,
    )


class AlwaysRepackStitcher(IncrementalStitcher):
    """Test oracle: every probe batch-packs the whole queue plus the
    arriving patch, so a scheduler driving this stitcher makes exactly the
    literal Algorithm 2's decisions (``incremental=False``) through the
    incremental probe/commit plumbing."""

    def probe(self, patch: Patch):
        self.stats["probes"] += 1
        return self._full_repack_plan(patch)


def use_always_repack(scheduler):
    """Swap a fast-path scheduler's stitcher for the
    :class:`AlwaysRepackStitcher` oracle (same solver, accounting and
    options); returns the scheduler."""
    scheduler._packer = AlwaysRepackStitcher(
        scheduler.solver,
        equivalent_canvas_pixels=scheduler.estimator.canvas_pixels,
        options=scheduler.options,
    )
    return scheduler
