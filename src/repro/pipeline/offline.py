"""Per-frame offline comparisons over the PANDA4K scenes.

These helpers drive the Fig. 8 (function cost), Fig. 9 (bandwidth) and
Table II (bandwidth vs. partition granularity) experiments: for every
evaluation frame of a scene, each strategy reports the bytes it uploads and
the invocation cost it incurs; the comparison aggregates per scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.offline import (
    ELFOfflineStrategy,
    FrameCostRecord,
    FullFrameStrategy,
    MaskedFrameStrategy,
    TangramOfflineStrategy,
    run_strategy_over_frames,
)
from repro.core.partitioning import FramePartitioner
from repro.network.encoding import FrameEncoder
from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame
from repro.vision.roi_extractors import make_extractor

#: Strategy display order used across the figures.
OFFLINE_STRATEGIES = ("tangram", "masked_frame", "full_frame", "elf")


@dataclass
class StrategySummary:
    """Per-scene aggregate of one strategy."""

    strategy: str
    total_cost: float
    total_uploaded_bytes: float
    total_requests: int
    num_frames: int
    records: List[FrameCostRecord] = field(default_factory=list)

    @property
    def cost_per_frame(self) -> float:
        return self.total_cost / self.num_frames if self.num_frames else 0.0


@dataclass
class SceneComparison:
    """All strategies on one scene, plus normalisations."""

    scene_key: str
    summaries: Dict[str, StrategySummary] = field(default_factory=dict)

    def normalised_bandwidth(self, reference: str = "tangram") -> Dict[str, float]:
        """Bandwidth of every strategy normalised to ``reference``
        (Fig. 9 normalises to Tangram)."""
        base = self.summaries[reference].total_uploaded_bytes
        if base <= 0:
            return {name: 0.0 for name in self.summaries}
        return {
            name: summary.total_uploaded_bytes / base
            for name, summary in self.summaries.items()
        }

    def bandwidth_vs_full_frame(self, strategy: str = "tangram") -> float:
        """Bandwidth of ``strategy`` as a fraction of Full Frame (Table II)."""
        full = self.summaries["full_frame"].total_uploaded_bytes
        if full <= 0:
            return 0.0
        return self.summaries[strategy].total_uploaded_bytes / full


def compare_strategies_on_scene(
    scene_key: str,
    frames: Sequence[Frame],
    zones_x: int = 4,
    zones_y: int = 4,
    seed: int = 0,
    strategies: Optional[Sequence[str]] = None,
) -> SceneComparison:
    """Run the four offline strategies over one scene's frames."""
    streams = RandomStreams(seed)
    encoder = FrameEncoder()
    available = {
        "tangram": lambda: TangramOfflineStrategy(
            zones_x=zones_x, zones_y=zones_y, streams=streams.spawn("tangram"), encoder=encoder
        ),
        "masked_frame": lambda: MaskedFrameStrategy(
            streams=streams.spawn("masked"), encoder=encoder
        ),
        "full_frame": lambda: FullFrameStrategy(
            streams=streams.spawn("full"), encoder=encoder
        ),
        "elf": lambda: ELFOfflineStrategy(
            zones_x=zones_x, zones_y=zones_y, streams=streams.spawn("elf"), encoder=encoder
        ),
    }
    selected = list(strategies) if strategies is not None else list(OFFLINE_STRATEGIES)
    comparison = SceneComparison(scene_key=scene_key)
    for name in selected:
        if name not in available:
            raise KeyError(f"unknown offline strategy {name!r}")
        strategy = available[name]()
        records = run_strategy_over_frames(strategy, frames)
        comparison.summaries[name] = StrategySummary(
            strategy=name,
            total_cost=sum(record.cost for record in records),
            total_uploaded_bytes=sum(record.uploaded_bytes for record in records),
            total_requests=sum(record.num_requests for record in records),
            num_frames=len(records),
            records=records,
        )
    return comparison


def partition_bandwidth_fraction(
    frames: Sequence[Frame],
    zones: int,
    seed: int = 0,
) -> float:
    """Table II: bandwidth of ``zones x zones`` partitioning as a fraction
    of transmitting the full frames."""
    streams = RandomStreams(seed)
    encoder = FrameEncoder()
    partitioner = FramePartitioner(
        zones_x=zones,
        zones_y=zones,
        roi_extractor=make_extractor("gmm", streams=streams),
    )
    patch_bytes = 0.0
    full_bytes = 0.0
    for frame in frames:
        patches = partitioner.partition(frame, generation_time=frame.timestamp, slo=1.0)
        patch_bytes += sum(encoder.patch_bytes(p.region) for p in patches)
        full_bytes += encoder.full_frame_bytes(frame)
    if full_bytes <= 0:
        return 0.0
    return patch_bytes / full_bytes


def patches_per_frame(
    frames: Sequence[Frame], zones: int = 4, seed: int = 0
) -> List[int]:
    """Fig. 10(a): the number of patches produced for each frame."""
    streams = RandomStreams(seed)
    partitioner = FramePartitioner(
        zones_x=zones, zones_y=zones, roi_extractor=make_extractor("gmm", streams=streams)
    )
    return [
        len(partitioner.partition(frame, generation_time=frame.timestamp, slo=1.0))
        for frame in frames
    ]


def canvas_efficiency_per_frame(
    frames: Sequence[Frame], zones: int = 4, canvas_size: float = 1024.0, seed: int = 0
) -> List[float]:
    """Fig. 10(b): per-frame mean canvas efficiency when each frame's
    patches are stitched independently."""
    from repro.core.stitching import PatchStitchingSolver

    streams = RandomStreams(seed)
    partitioner = FramePartitioner(
        zones_x=zones, zones_y=zones, roi_extractor=make_extractor("gmm", streams=streams)
    )
    solver = PatchStitchingSolver(canvas_width=canvas_size, canvas_height=canvas_size)
    efficiencies: List[float] = []
    for frame in frames:
        patches = partitioner.partition(frame, generation_time=frame.timestamp, slo=1.0)
        canvases = solver.pack(patches)
        if canvases:
            efficiencies.append(float(np.mean([c.efficiency for c in canvases])))
    return efficiencies
