"""The end-to-end cloud-edge pipeline (Fig. 12, 13, 14).

Event-driven flow for every camera:

1. the camera captures a frame at its frame interval;
2. the edge runs the adaptive frame partitioning filter (a small, fixed
   processing latency) and produces the frame's patches, each stamped with
   the capture time as its generation time and carrying the frame's SLO;
3. the patches are serialised over the one bandwidth-limited uplink all
   cameras share, one after another (this is how the paper's bandwidth
   knob controls the "arrival speed of patches" at the cloud);
4. on arrival the cloud scheduler (Tangram, Clipper, ELF, or MArk) decides
   when to batch and invoke the serverless function;
5. when an invocation completes, every patch it carried gets its
   end-to-end latency (completion time minus capture time) compared
   against the SLO, and the invocation's cost is billed with Eqn. (1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.clipper import ClipperScheduler
from repro.baselines.elf import ELFScheduler
from repro.baselines.mark import MArkScheduler
from repro.core.options import SchedulerOptions
from repro.core.partitioning import FramePartitioner
from repro.core.scheduler import BaseScheduler, BatchRecord, PatchOutcome, TangramScheduler
from repro.core.latency import LatencyEstimator
from repro.core.stitching import PatchStitchingSolver
from repro.network.encoding import FrameEncoder
from repro.network.link import Uplink
from repro.serverless.platform import ServerlessPlatform, ScalingPolicy
from repro.simulation.engine import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame
from repro.vision.detector import DetectorLatencyModel
from repro.vision.roi_extractors import make_extractor

#: Scheduling policies selectable by name in experiment configs.
STRATEGIES = ("tangram", "clipper", "elf", "mark")


@dataclass
class EndToEndConfig:
    """Parameters of one end-to-end run."""

    strategy: str = "tangram"
    bandwidth_mbps: float = 40.0
    slo: float = 1.0
    fps: float = 1.0
    zones_x: int = 4
    zones_y: int = 4
    canvas_size: float = 1024.0
    roi_method: str = "gmm"
    edge_latency: float = 0.04
    cold_start_time: float = 0.05
    max_instances: int = 32
    seed: int = 0
    #: Clipper/MArk fixed input size (pixels, square).
    baseline_input_size: float = 640.0
    mark_batch_size: int = 8
    mark_timeout: float = 0.25
    clipper_initial_batch: int = 4
    #: Every Tangram scheduler knob (see :class:`~repro.core.options.
    #: SchedulerOptions`).
    scheduler_options: SchedulerOptions = field(default_factory=SchedulerOptions)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; valid: {STRATEGIES}"
            )
        # ``not x > 0`` rather than ``x <= 0``, so NaN fails too.
        if not (self.bandwidth_mbps > 0 and self.slo > 0 and self.fps > 0):
            raise ValueError("bandwidth_mbps, slo and fps must be positive")


@dataclass
class EndToEndResult:
    """Aggregated metrics of one end-to-end run."""

    config: EndToEndConfig
    num_frames: int
    num_patches: int
    batches: List[BatchRecord] = field(default_factory=list)
    total_uploaded_bytes: float = 0.0
    total_transmission_time: float = 0.0
    simulated_duration: float = 0.0
    #: Always 0: this runner hands every delivered patch to the scheduler
    #: (stale expiry is the fleet ingest's rule).  Kept because the
    #: end-to-end benchmark's accounting reads it.
    expired_at_ingest: int = 0
    #: Transmissions the uplink dropped; 0 on the lossless uplink this
    #: runner builds.  Kept because the end-to-end benchmark's accounting
    #: reads it.
    dropped_transmissions: int = 0

    # ----------------------------------------------------------------- basics
    @property
    def completed_batches(self) -> List[BatchRecord]:
        return [batch for batch in self.batches if batch.outcomes]

    @property
    def outcomes(self) -> List[PatchOutcome]:
        return [o for batch in self.completed_batches for o in batch.outcomes]

    @property
    def total_cost(self) -> float:
        return sum(batch.cost for batch in self.completed_batches)

    @property
    def cost_per_frame(self) -> float:
        if self.num_frames == 0:
            return 0.0
        return self.total_cost / self.num_frames

    @property
    def slo_violation_rate(self) -> float:
        outcomes = self.outcomes
        if not outcomes:
            return 0.0
        return sum(1 for o in outcomes if o.violated) / len(outcomes)

    # --------------------------------------------------------------- insights
    @property
    def canvas_efficiencies(self) -> List[float]:
        return [
            efficiency
            for batch in self.completed_batches
            for efficiency in batch.canvas_efficiencies
        ]

    @property
    def mean_canvas_efficiency(self) -> float:
        efficiencies = self.canvas_efficiencies
        if not efficiencies:
            return 0.0
        return float(np.mean(efficiencies))

    @property
    def batch_execution_latencies(self) -> List[float]:
        return [batch.execution_time for batch in self.completed_batches]

    @property
    def patches_per_batch(self) -> List[int]:
        return [batch.num_patches for batch in self.completed_batches]

    @property
    def canvases_per_batch(self) -> List[int]:
        return [batch.num_canvases for batch in self.completed_batches]

    @property
    def total_execution_time(self) -> float:
        return sum(batch.execution_time for batch in self.completed_batches)

    @property
    def amortised_latency_per_patch(self) -> float:
        """Mean end-to-end latency per patch (the Fig. 14 amortisation)."""
        outcomes = self.outcomes
        if not outcomes:
            return 0.0
        return float(np.mean([o.latency for o in outcomes]))

    @property
    def mean_patch_latency(self) -> float:
        return self.amortised_latency_per_patch


class EndToEndRunner:
    """Build and run one end-to-end experiment."""

    def __init__(
        self,
        config: EndToEndConfig,
        frames_by_camera: Dict[str, Sequence[Frame]],
        streams: Optional[RandomStreams] = None,
        encoder: Optional[FrameEncoder] = None,
    ) -> None:
        if not frames_by_camera:
            raise ValueError("frames_by_camera must contain at least one camera")
        self.config = config
        self.frames_by_camera = frames_by_camera
        self.streams = streams or RandomStreams(config.seed)
        self.encoder = encoder or FrameEncoder()
        self.simulator = Simulator()
        self.latency_model = DetectorLatencyModel.serverless()
        self.platform = ServerlessPlatform(
            self.simulator,
            scaling=ScalingPolicy(max_instances=config.max_instances),
            cold_start_time=config.cold_start_time,
        )
        self.scheduler = self._build_scheduler()
        self.partitioners = {
            camera_id: FramePartitioner(
                zones_x=config.zones_x,
                zones_y=config.zones_y,
                roi_extractor=make_extractor(
                    config.roi_method, streams=self.streams.spawn(f"edge/{camera_id}")
                ),
            )
            for camera_id in frames_by_camera
        }
        #: The paper's setup: every camera shares one edge-to-cloud uplink
        #: of ``bandwidth_mbps``, so the bandwidth dial controls how fast
        #: patches arrive at the scheduler.
        self.uplink = Uplink(
            self.simulator, bandwidth_mbps=config.bandwidth_mbps, name="uplink/shared"
        )
        self._num_frames = sum(len(frames) for frames in frames_by_camera.values())
        self._num_patches = 0

    # -------------------------------------------------------------- scheduler
    def _build_scheduler(self) -> BaseScheduler:
        config = self.config
        if config.strategy == "tangram":
            options = config.scheduler_options
            solver = PatchStitchingSolver(
                canvas_width=config.canvas_size,
                canvas_height=config.canvas_size,
            )
            estimator = LatencyEstimator(
                latency_model=self.latency_model,
                canvas_width=config.canvas_size,
                canvas_height=config.canvas_size,
                iterations=200,
                streams=self.streams.spawn("estimator"),
            )
            return TangramScheduler(
                self.simulator,
                self.platform,
                solver=solver,
                estimator=estimator,
                latency_model=self.latency_model,
                streams=self.streams.spawn("scheduler"),
                options=options,
            )
        if config.strategy == "clipper":
            return ClipperScheduler(
                self.simulator,
                self.platform,
                latency_model=self.latency_model,
                input_size=config.baseline_input_size,
                initial_batch_size=config.clipper_initial_batch,
                streams=self.streams.spawn("scheduler"),
            )
        if config.strategy == "mark":
            return MArkScheduler(
                self.simulator,
                self.platform,
                latency_model=self.latency_model,
                input_size=config.baseline_input_size,
                batch_size=config.mark_batch_size,
                timeout=config.mark_timeout,
                streams=self.streams.spawn("scheduler"),
            )
        return ELFScheduler(
            self.simulator,
            self.platform,
            latency_model=self.latency_model,
            streams=self.streams.spawn("scheduler"),
        )

    # ------------------------------------------------------------------- run
    def run(self) -> EndToEndResult:
        """Schedule every camera's frames and run the simulation to the end."""
        config = self.config
        uplink = self.uplink

        for camera_id, frames in self.frames_by_camera.items():
            partitioner = self.partitioners[camera_id]
            frame_interval = 1.0 / config.fps
            for order, frame in enumerate(frames):
                capture_time = order * frame_interval

                def on_capture(
                    _sim: Simulator,
                    frame: Frame = frame,
                    capture_time: float = capture_time,
                    camera_id: str = camera_id,
                    partitioner: FramePartitioner = partitioner,
                ) -> None:
                    patches = partitioner.partition(
                        frame,
                        generation_time=capture_time,
                        slo=config.slo,
                        camera_id=camera_id,
                    )
                    self._num_patches += len(patches)
                    for patch in patches:
                        size = self.encoder.patch_bytes(patch.region)
                        uplink.send(
                            size,
                            payload=patch,
                            on_delivered=lambda record, patch=patch: (
                                self.scheduler.receive_patch(patch)
                            ),
                        )

                self.simulator.schedule_at(
                    capture_time + config.edge_latency,
                    on_capture,
                    name=f"{camera_id}:capture",
                )

        self.simulator.run()
        self.scheduler.flush()
        self.simulator.run()

        return EndToEndResult(
            config=config,
            num_frames=self._num_frames,
            num_patches=self._num_patches,
            batches=list(self.scheduler.batches),
            total_uploaded_bytes=uplink.total_bytes,
            total_transmission_time=sum(
                record.transfer_time for record in uplink.records
            ),
            simulated_duration=self.simulator.now,
            dropped_transmissions=len(uplink.drops),
        )


def run_end_to_end(
    config: EndToEndConfig,
    frames_by_camera: Dict[str, Sequence[Frame]],
    streams: Optional[RandomStreams] = None,
) -> EndToEndResult:
    """Convenience wrapper: build a runner and run it."""
    return EndToEndRunner(config, frames_by_camera, streams=streams).run()
