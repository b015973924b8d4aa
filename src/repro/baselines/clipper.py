"""Clipper-style adaptive batching (AIMD), applied to patch requests.

Clipper serves fixed-shape model inputs, so every patch is resized or
padded to the model's input size before batching -- which is exactly the
practice the paper argues against (it either costs accuracy or wastes
compute on padding).  The batching policy is the additive-increase /
multiplicative-decrease scheme the paper cites: the target batch size grows
by one after every invocation that met all of its patches' SLOs and is
halved after an invocation that violated any of them.  An invocation is
triggered when the queue reaches the current target, or when waiting any
longer would push the earliest queued patch past its deadline (a safety
valve without which AIMD alone has unbounded waiting at low arrival rates).
"""

from __future__ import annotations

import math
import numbers
from typing import List, Optional

from repro.core.patches import Patch
from repro.core.scheduler import BaseScheduler, BatchRecord
from repro.core.stitching import Canvas
from repro.serverless.platform import ServerlessPlatform
from repro.simulation.engine import Simulator
from repro.simulation.events import Event
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel


def fixed_size_inputs(patches: List[Patch], input_size: float) -> List[Canvas]:
    """Wrap each patch as a fixed-size model input, as Clipper and MArk do.

    Patches smaller than the input are padded up (wasted pixels); patches
    larger than the input are, in a real deployment, resized down --
    modelled here as an oversized single-patch input with the same pixel
    cost.  Either way the GPU processes at least ``input_size**2`` pixels
    per request, which is the cost disadvantage relative to stitching.
    """
    inputs: List[Canvas] = []
    for patch in patches:
        canvas = Canvas(width=input_size, height=input_size, canvas_id=patch.patch_id)
        if canvas.try_place(patch) is None:
            # Oversized patch: modelled as filling the whole input after
            # resizing (same pixel cost, single patch carried).
            canvas = Canvas(
                width=max(input_size, patch.width),
                height=max(input_size, patch.height),
                canvas_id=patch.patch_id,
                oversized=True,
            )
            canvas.try_place(patch)
        inputs.append(canvas)
    return inputs


class ClipperScheduler(BaseScheduler):
    """AIMD adaptive batch size over fixed-size inference inputs."""

    def __init__(
        self,
        simulator: Simulator,
        platform: ServerlessPlatform,
        latency_model: Optional[DetectorLatencyModel] = None,
        input_size: float = 640.0,
        initial_batch_size: int = 4,
        max_batch_size: int = 32,
        additive_increase: int = 1,
        multiplicative_decrease: float = 0.5,
        safety_margin: float = 0.35,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        super().__init__(
            simulator,
            platform,
            latency_model,
            streams=streams or RandomStreams(29),
            name="clipper",
        )
        # Written so that NaN fails each check: a NaN batch target would
        # run silently, and a NaN or infinite input size fails only at the
        # first canvas, mid-run.
        if not 0 < input_size < math.inf:
            raise ValueError("input_size must be finite and positive")
        for size in (initial_batch_size, max_batch_size):
            if not isinstance(size, numbers.Integral) or size < 1:
                raise ValueError("batch sizes must be integers of at least 1")
        # A NaN decrease fails mid-run in ``int()``, one above 1 turns each
        # decrease into an increase, and ``max(0.05, nan)`` reads a NaN
        # margin as the 0.05 floor.
        if not 0 < multiplicative_decrease <= 1:
            raise ValueError("multiplicative_decrease must be in (0, 1]")
        if not isinstance(additive_increase, numbers.Integral) or additive_increase < 1:
            raise ValueError("additive_increase must be an integer of at least 1")
        if not 0 <= safety_margin <= 1:
            raise ValueError("safety_margin must be in [0, 1]")
        self.input_size = input_size
        self.batch_size_target = initial_batch_size
        self.max_batch_size = max_batch_size
        self.additive_increase = additive_increase
        self.multiplicative_decrease = multiplicative_decrease
        #: Fraction of the SLO reserved for function execution when deciding
        #: the latest safe invocation time for the earliest queued patch.
        self.safety_margin = safety_margin
        self._queue: List[Patch] = []
        self._timer: Optional[Event] = None

    # ---------------------------------------------------------------- arrival
    def receive_patch(self, patch: Patch) -> None:
        self._queue.append(patch)
        if len(self._queue) >= self.batch_size_target:
            self._invoke_batch()
            return
        self._reschedule_deadline_guard()

    def _reschedule_deadline_guard(self) -> None:
        if not self._queue:
            return
        earliest = min(p.deadline for p in self._queue)
        exec_budget = max(0.05, self.safety_margin * self._queue[0].slo)
        fire_at = max(self.simulator.now, earliest - exec_budget)
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.simulator.schedule_at(
            fire_at, lambda _sim: self._invoke_batch(), name="clipper:deadline-guard"
        )

    # ----------------------------------------------------------------- invoke
    def _invoke_batch(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._queue:
            return
        batch = self._queue[: self.max_batch_size]
        self._queue = self._queue[self.max_batch_size:]
        inputs = fixed_size_inputs(batch, self.input_size)
        record = self.invoke_canvases(inputs)
        if record is not None:
            self._attach_aimd_feedback(record)
        if self._queue:
            self._reschedule_deadline_guard()

    def _attach_aimd_feedback(self, record: BatchRecord) -> None:
        """Adjust the target batch size when the invocation completes."""

        def adjust(_sim: Simulator) -> None:
            if not record.outcomes:
                return
            if record.violations > 0:
                self.batch_size_target = max(
                    1, int(self.batch_size_target * self.multiplicative_decrease)
                )
            else:
                self.batch_size_target = min(
                    self.max_batch_size,
                    self.batch_size_target + self.additive_increase,
                )

        # Completion callbacks fill the record at the invocation finish
        # time; adjust right after by scheduling at the same instant with a
        # later priority (the platform schedules its completion first).
        self.simulator.schedule_in(
            record.execution_time + 1e-6, adjust, name="clipper:aimd"
        )

    # ------------------------------------------------------------------ flush
    def flush(self) -> None:
        while self._queue:
            self._invoke_batch()
