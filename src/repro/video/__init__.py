"""Synthetic high-resolution video substrate.

The paper evaluates on the PANDA4K dataset (ten gigapixel scenes resized to
3840x2160).  That dataset is not available offline, so this package provides
a synthetic replacement: ten scene profiles calibrated to the statistics the
paper reports in Table I (person counts, RoI area proportion, redundancy)
and Fig. 3 (temporal fluctuation of the RoI proportion).  The downstream
algorithms only consume object geometry -- bounding boxes, their sizes and
their dynamics -- which the profiles reproduce.

Public surface:

* :class:`~repro.video.geometry.Box` -- axis-aligned bounding boxes.
* :class:`~repro.video.scenes.SceneProfile` / ``PANDA4K_SCENES`` -- the ten
  calibrated scenes.
* :class:`~repro.video.generator.SceneGenerator` -- produces ground-truth
  annotated frames for a scene.
* :class:`~repro.video.frames.Frame` -- the annotated frame record.
* :func:`~repro.video.dataset.build_panda4k` -- assemble the train/eval
  splits the paper uses.
"""

from repro.video.geometry import Box
from repro.video.frames import Frame
from repro.video.scenes import SceneProfile, PANDA4K_SCENES, get_scene
from repro.video.generator import SceneGenerator
from repro.video.dataset import PandaDataset, build_panda4k

__all__ = [
    "Box",
    "Frame",
    "SceneProfile",
    "PANDA4K_SCENES",
    "get_scene",
    "SceneGenerator",
    "PandaDataset",
    "build_panda4k",
]
