"""The cloud scheduler: online SLO-aware batching invoker (Algorithm 2).

The scheduler receives patches one after another, keeps re-stitching the
current queue onto canvases, asks the latency estimator for the
conservative execution time ``T_slack`` of the current canvases, and
invokes the serverless function at

    t_remain = t_DDL - T_slack

i.e. at the last moment that still leaves the function enough time to meet
the earliest deadline in the queue.  Two situations force an immediate
invocation of the *old* canvases instead: (a) the newly arrived patch makes
``t_remain`` fall into the past (serving it together with the queue would
violate the SLO), or (b) the canvases no longer fit in the function's GPU
memory alongside the model.  In both cases the new patch starts a fresh
queue.

The queue's packing stays alive across arrivals in an
:class:`~repro.core.stitching.IncrementalStitcher`, which places each
arrival into the live canvases and re-packs only on a wasteful overflow,
so an arrival does not re-pack the whole queue from scratch.  The
literal re-pack per arrival survives as the test oracle in
``tests/oracles.py``, which reproduces the literal Algorithm 2's batches.

:class:`BaseScheduler` factors out the invocation and bookkeeping machinery
(execution-time sampling, billing, per-patch latency and SLO accounting) so
the baseline scheduling policies (Clipper, MArk, ELF) in
:mod:`repro.baselines` share identical measurement code and differ only in
*when* and *how* they batch.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.latency import LatencyEstimator
from repro.core.patches import Patch
from repro.core.stitching import Canvas, IncrementalStitcher, PatchStitchingSolver
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.function import InvocationRecord
from repro.simulation.engine import Simulator
from repro.simulation.events import Event
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel


@dataclass
class PatchOutcome:
    """End-to-end result for one patch."""

    patch: Patch
    completion_time: float

    @property
    def latency(self) -> float:
        """Capture-to-result latency, the quantity the SLO constrains."""
        return self.completion_time - self.patch.generation_time

    @property
    def violated(self) -> bool:
        return self.latency > self.patch.slo + 1e-9


@dataclass
class BatchRecord:
    """One completed function invocation and everything billed/measured."""

    batch_id: int
    invoke_time: float
    completion_time: float
    execution_time: float
    cost: float
    num_canvases: int
    num_patches: int
    total_canvas_pixels: float
    total_patch_pixels: float
    canvas_efficiencies: List[float] = field(default_factory=list)
    outcomes: List[PatchOutcome] = field(default_factory=list)
    #: Per-canvas placement tuples, captured at invoke time when the
    #: scheduler runs with ``record_placements=True`` (the sharded-fleet
    #: byte-identity pins compare these); ``None`` otherwise.  Keyed by
    #: run-independent patch identity, not ``patch_id`` (a process-global
    #: counter that differs between two runs in one process).
    placements: Optional[Tuple[tuple, ...]] = None

    @property
    def mean_canvas_efficiency(self) -> float:
        if not self.canvas_efficiencies:
            return 0.0
        return sum(self.canvas_efficiencies) / len(self.canvas_efficiencies)

    @property
    def violations(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.violated)

    @property
    def amortised_latency_per_patch(self) -> float:
        """Mean end-to-end latency per patch in this batch (Fig. 14)."""
        if not self.outcomes:
            return 0.0
        return sum(outcome.latency for outcome in self.outcomes) / len(self.outcomes)


class BaseScheduler:
    """Shared invocation/bookkeeping machinery for all scheduling policies."""

    def __init__(
        self,
        simulator: Simulator,
        platform: ServerlessPlatform,
        latency_model: Optional[DetectorLatencyModel] = None,
        streams: Optional[RandomStreams] = None,
        name: str = "scheduler",
        record_placements: bool = False,
    ) -> None:
        self.simulator = simulator
        self.platform = platform
        self.latency_model = latency_model or DetectorLatencyModel.serverless()
        self.streams = streams or RandomStreams(17)
        self._rng = self.streams.get(f"{name}/execution")
        self.name = name
        self.record_placements = record_placements
        self.batches: List[BatchRecord] = []
        self._batch_counter = 0

    # ----------------------------------------------------------------- invoke
    def invoke_canvases(self, canvases: Sequence[Canvas]) -> Optional[BatchRecord]:
        """Invoke one function execution for a batch of canvases."""
        canvases = [canvas for canvas in canvases if canvas.num_patches > 0]
        if not canvases:
            return None
        total_canvas_pixels = sum(canvas.area for canvas in canvases)
        total_patch_pixels = sum(canvas.used_area for canvas in canvases)
        execution_time = self.latency_model.sample_latency(
            batch_size=len(canvases),
            total_pixels=total_canvas_pixels,
            rng=self._rng,
        )
        patches = [patch for canvas in canvases for patch in canvas.patches]
        record = BatchRecord(
            batch_id=self._batch_counter,
            invoke_time=self.simulator.now,
            completion_time=float("nan"),
            execution_time=execution_time,
            cost=0.0,
            num_canvases=len(canvases),
            num_patches=len(patches),
            total_canvas_pixels=total_canvas_pixels,
            total_patch_pixels=total_patch_pixels,
            canvas_efficiencies=[canvas.efficiency for canvas in canvases],
        )
        if self.record_placements:
            record.placements = tuple(
                tuple(
                    (
                        pl.patch.camera_id,
                        pl.patch.frame_index,
                        pl.patch.scene_key,
                        pl.patch.region.width,
                        pl.patch.region.height,
                        pl.x,
                        pl.y,
                    )
                    for pl in canvas.placements
                )
                for canvas in canvases
            )
        self._batch_counter += 1

        def completed(invocation: InvocationRecord) -> None:
            record.completion_time = invocation.finish_time
            record.cost = invocation.cost
            record.outcomes = [
                PatchOutcome(patch=patch, completion_time=invocation.finish_time)
                for patch in patches
            ]

        self.platform.invoke(
            execution_time, payload=record, on_complete=completed
        )
        self.batches.append(record)
        return record

    # ---------------------------------------------------------------- metrics
    @property
    def completed_batches(self) -> List[BatchRecord]:
        return [b for b in self.batches if b.outcomes]

    @property
    def all_outcomes(self) -> List[PatchOutcome]:
        return [o for batch in self.completed_batches for o in batch.outcomes]

    @property
    def total_cost(self) -> float:
        return sum(batch.cost for batch in self.completed_batches)

    @property
    def slo_violation_rate(self) -> float:
        outcomes = self.all_outcomes
        if not outcomes:
            return 0.0
        return sum(1 for o in outcomes if o.violated) / len(outcomes)

    def flush(self) -> None:  # pragma: no cover - overridden by policies
        """Invoke whatever is still waiting (end of the experiment)."""


class TangramScheduler(BaseScheduler):
    """The paper's online SLO-aware batching invoker.

    Parameters
    ----------
    solver:
        The patch-stitching solver (canvas size fixes the batch geometry).
    estimator:
        The offline-profiled latency estimator providing ``T_slack``.
    gpu_memory_gb:
        GPU memory of the function instance (constraint (5)).
    model_memory_gb:
        Memory occupied by the DNN weights (``tau`` in the paper).
    canvas_memory_gb:
        GPU memory one canvas occupies during inference (``w``).
    record_placements:
        Capture each batch's per-canvas placement tuples on its
        :class:`BatchRecord` at invoke time (run-independent patch
        identity, not ``patch_id``).  Off by default — only the
        byte-identity pins pay for it.
    """

    def __init__(
        self,
        simulator: Simulator,
        platform: ServerlessPlatform,
        solver: Optional[PatchStitchingSolver] = None,
        estimator: Optional[LatencyEstimator] = None,
        latency_model: Optional[DetectorLatencyModel] = None,
        gpu_memory_gb: float = 6.0,
        model_memory_gb: float = 2.5,
        canvas_memory_gb: float = 0.35,
        streams: Optional[RandomStreams] = None,
        record_placements: bool = False,
    ) -> None:
        latency_model = latency_model or DetectorLatencyModel.serverless()
        super().__init__(
            simulator,
            platform,
            latency_model,
            streams=streams,
            name="tangram",
            record_placements=record_placements,
        )
        self.solver = solver or PatchStitchingSolver()
        self.estimator = estimator or LatencyEstimator(
            latency_model=latency_model,
            canvas_width=self.solver.canvas_width,
            canvas_height=self.solver.canvas_height,
            iterations=200,
        )
        # ``not x > 0`` rather than ``x <= 0``, so NaN fails too.
        if not model_memory_gb >= 0:
            raise ValueError("model_memory_gb must be non-negative")
        if not canvas_memory_gb > 0:
            raise ValueError("canvas_memory_gb must be positive")
        if not model_memory_gb < gpu_memory_gb < math.inf:
            raise ValueError("gpu_memory_gb must be finite and exceed model_memory_gb")
        self.gpu_memory_gb = gpu_memory_gb
        self.model_memory_gb = model_memory_gb
        self.canvas_memory_gb = canvas_memory_gb
        #: The live packing of the queue: its patches and canvases are
        #: the scheduler's pending state.
        self._packer = IncrementalStitcher(
            self.solver, equivalent_canvas_pixels=self.estimator.canvas_pixels
        )
        #: Always empty: every arriving patch is batched.  Kept because the
        #: end-to-end benchmark (``benchmarks/e2e/measure.py`` and
        #: ``tracing.py``) reads it; it goes with that benchmark's next
        #: revision.
        self.shed: List[Patch] = []
        self._deadline_heap: List[float] = []
        self._timer: Optional[Event] = None

    # ------------------------------------------------------------- constraint
    @property
    def max_canvases(self) -> int:
        """Largest batch that fits in GPU memory alongside the model."""
        available = self.gpu_memory_gb - self.model_memory_gb
        return max(1, int(available / self.canvas_memory_gb))

    # ---------------------------------------------------------------- arrival
    def receive_patch(self, patch: Patch) -> None:
        """Algorithm 2, lines 4-18: handle one arriving patch.

        Plan the placement without mutating the live packing, decide,
        then commit (or ship-and-reset).

        The probe/commit split matters: when the new patch would push
        ``t_remain`` into the past, Algorithm 2 ships the *old* canvases
        without the patch — so the patch must not have been placed yet.
        The slack is the estimator's for the plan's standard-canvas
        equivalent count (oversized canvases count as several).
        """
        packer = self._packer
        now = self.simulator.now
        plan = packer.probe(patch)
        deadline = patch.deadline
        if self._deadline_heap and self._deadline_heap[0] < deadline:
            deadline = self._deadline_heap[0]
        slack = self.estimator.slack_time(max(1, plan.equivalent_after))
        t_remain = deadline - slack

        if t_remain < now or plan.canvases_after > self.max_canvases:
            # Serving the whole queue together would violate the earliest
            # SLO (or exceed GPU memory): ship the old canvases now and
            # start a fresh queue with just the new patch.
            self.invoke_canvases(packer.canvases)
            self._deadline_heap = [patch.deadline]
            packer.reset([patch])
            slack = self.estimator.slack_time(max(1, packer.equivalent))
            t_remain = patch.deadline - slack
        else:
            heapq.heappush(self._deadline_heap, patch.deadline)
            packer.commit(plan)

        self._schedule_invocation(max(now, t_remain))

    def _schedule_invocation(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.simulator.schedule_at(
            when, lambda _sim: self._fire(), name="tangram:invoke"
        )

    def _fire(self) -> None:
        """Algorithm 2, lines 19-22: the invocation timer went off."""
        self._timer = None
        if not self._packer.canvases:
            return
        self.invoke_canvases(self._packer.canvases)
        self._clear_queue()

    # ------------------------------------------------------------------ flush
    def flush(self) -> None:
        """Invoke whatever is still queued (used at the end of a trace)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._packer.canvases:
            self.invoke_canvases(self._packer.canvases)
            self._clear_queue()

    def _clear_queue(self) -> None:
        self._deadline_heap = []
        self._packer.reset()

    # --------------------------------------------------------------- insight
    @property
    def pending_patches(self) -> int:
        return self._packer.num_patches

    @property
    def pending_canvases(self) -> int:
        return self._packer.num_canvases

    @property
    def packing_stats(self) -> dict:
        """Stitcher counters (probes, incremental placements, re-packs)."""
        return dict(self._packer.stats)

    @property
    def consolidation_stats(self) -> dict:
        """Consolidation-engine counters."""
        return self._packer.consolidation_stats
