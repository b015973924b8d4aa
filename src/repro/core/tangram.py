"""The plug-and-play Tangram facade.

Section IV of the paper describes the public API a deployment implements:

* the edge calls ``partition(frame, X, Y, M, N)`` to get the patches plus
  their generation time, sizes, and SLO;
* the cloud instantiates ``Tangram(canvas_size=[M, N])`` and wires two
  callbacks: ``receive_patch(patch)`` for every arriving patch and
  ``invoke(canvases)`` when the scheduler decides to trigger the serverless
  function.

:class:`Tangram` is the offline, per-frame side of that shape:
:meth:`partition` is the edge call, :meth:`stitch` packs patches onto
canvases, and :meth:`process_frame_offline` stitches and invokes one
frame's patches as a single request -- the configuration used for the
cost/bandwidth comparison of Fig. 8 and Fig. 9 ("Tangram 4x4").  The
online side, ``receive_patch`` plus SLO-aware batching, is
:class:`~repro.core.scheduler.TangramScheduler`, which the end-to-end
runners (Fig. 12-14) build directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.partitioning import FramePartitioner
from repro.core.patches import Patch
from repro.core.stitching import Canvas, PatchStitchingSolver
from repro.network.encoding import FrameEncoder
from repro.serverless.cost import AlibabaCostModel
from repro.simulation.random_streams import RandomStreams
from repro.video.frames import Frame
from repro.vision.detector import DetectorLatencyModel
from repro.vision.roi_extractors import AnalyticRoIExtractor, make_extractor


@dataclass
class FrameResult:
    """Per-frame outcome of the offline (single-request) mode."""

    frame_index: int
    patches: List[Patch]
    canvases: List[Canvas]
    execution_time: float
    cost: float
    uploaded_bytes: float

    @property
    def num_patches(self) -> int:
        return len(self.patches)

    @property
    def num_canvases(self) -> int:
        return len(self.canvases)

    @property
    def mean_canvas_efficiency(self) -> float:
        if not self.canvases:
            return 0.0
        return sum(c.efficiency for c in self.canvases) / len(self.canvases)


@dataclass
class TangramConfig:
    """Knobs of the offline facade (defaults follow the paper)."""

    zones_x: int = 4
    zones_y: int = 4
    canvas_width: float = 1024.0
    canvas_height: float = 1024.0
    slo: float = 1.0
    roi_method: str = "gmm"


class Tangram:
    """Offline facade combining partitioning, stitching, and invocation."""

    def __init__(
        self,
        config: Optional[TangramConfig] = None,
        streams: Optional[RandomStreams] = None,
        roi_extractor: Optional[AnalyticRoIExtractor] = None,
        latency_model: Optional[DetectorLatencyModel] = None,
        cost_model: Optional[AlibabaCostModel] = None,
        encoder: Optional[FrameEncoder] = None,
    ) -> None:
        self.config = config or TangramConfig()
        self.streams = streams or RandomStreams(42)
        self.latency_model = latency_model or DetectorLatencyModel.serverless()
        self.cost_model = cost_model or AlibabaCostModel()
        self.encoder = encoder or FrameEncoder()
        extractor = roi_extractor or make_extractor(
            self.config.roi_method, streams=self.streams
        )
        self.partitioner = FramePartitioner(
            zones_x=self.config.zones_x,
            zones_y=self.config.zones_y,
            roi_extractor=extractor,
        )
        self.solver = PatchStitchingSolver(
            canvas_width=self.config.canvas_width,
            canvas_height=self.config.canvas_height,
        )
        self._execution_rng = self.streams.get("tangram/offline-execution")

    # ----------------------------------------------------------------- edge
    def partition(
        self,
        frame: Frame,
        generation_time: Optional[float] = None,
        slo: Optional[float] = None,
        camera_id: str = "camera-0",
    ) -> List[Patch]:
        """The edge API: extract RoIs and cut the frame into patches."""
        return self.partitioner.partition(
            frame,
            generation_time=frame.timestamp if generation_time is None else generation_time,
            slo=self.config.slo if slo is None else slo,
            camera_id=camera_id,
        )

    # ---------------------------------------------------------------- cloud
    def stitch(self, patches: Sequence[Patch]) -> List[Canvas]:
        """Pack patches onto canvases (the cloud-side stitching step)."""
        return self.solver.pack(patches)

    def process_frame_offline(self, frame: Frame, camera_id: str = "camera-0") -> FrameResult:
        """Partition, stitch, and "invoke" one frame as a single request.

        This is the Tangram(4x4) configuration of Fig. 8 / Fig. 9: it does
        not wait for other frames, so the cost reflects pure stitching
        gains over the baselines without cross-frame batching.
        """
        patches = self.partition(frame, camera_id=camera_id)
        canvases = self.stitch(patches)
        uploaded = sum(self.encoder.patch_bytes(p.region) for p in patches)
        if canvases:
            execution = self.latency_model.sample_latency(
                batch_size=len(canvases),
                total_pixels=sum(c.area for c in canvases),
                rng=self._execution_rng,
            )
            cost = self.cost_model.invocation_cost(execution)
        else:
            execution = 0.0
            cost = 0.0
        return FrameResult(
            frame_index=frame.frame_index,
            patches=patches,
            canvases=canvases,
            execution_time=execution,
            cost=cost,
            uploaded_bytes=uploaded,
        )
