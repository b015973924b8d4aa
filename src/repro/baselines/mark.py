"""MArk-style batching: a batch-size target plus a timeout.

MArk accumulates requests until either the batch-size target is reached or
a timeout has elapsed since the first request in the batch arrived, then
invokes.  Like Clipper, it serves fixed-shape inputs, so each patch is
padded/resized to the model input size by the same
:func:`~repro.baselines.clipper.fixed_size_inputs`.  The paper notes that
MArk needs its timeout tuned per bandwidth setting; the workload configs
expose that knob.
"""

from __future__ import annotations

import math
import numbers
from typing import List, Optional

from repro.baselines.clipper import fixed_size_inputs
from repro.core.patches import Patch
from repro.core.scheduler import BaseScheduler
from repro.serverless.platform import ServerlessPlatform
from repro.simulation.engine import Simulator
from repro.simulation.events import Event
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel


class MArkScheduler(BaseScheduler):
    """Batch-size + timeout batching over fixed-size inference inputs."""

    def __init__(
        self,
        simulator: Simulator,
        platform: ServerlessPlatform,
        latency_model: Optional[DetectorLatencyModel] = None,
        input_size: float = 640.0,
        batch_size: int = 8,
        timeout: float = 0.25,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        super().__init__(
            simulator,
            platform,
            latency_model,
            streams=streams or RandomStreams(31),
            name="mark",
        )
        # Written so that NaN fails each check; a fractional batch size
        # would only fail mid-run, as a slice index.
        if not isinstance(batch_size, numbers.Integral) or batch_size < 1:
            raise ValueError("batch_size must be an integer of at least 1")
        if not 0 < timeout < math.inf:
            raise ValueError("timeout must be finite and positive")
        if not 0 < input_size < math.inf:
            raise ValueError("input_size must be finite and positive")
        self.input_size = input_size
        self.batch_size = batch_size
        self.timeout = timeout
        self._queue: List[Patch] = []
        self._timer: Optional[Event] = None

    # ---------------------------------------------------------------- arrival
    def receive_patch(self, patch: Patch) -> None:
        self._queue.append(patch)
        if len(self._queue) >= self.batch_size:
            self._invoke_batch()
        elif self._timer is None:
            # The timeout window opens when the first request of the batch
            # arrives.
            self._timer = self.simulator.schedule_in(
                self.timeout, lambda _sim: self._invoke_batch(), name="mark:timeout"
            )

    # ----------------------------------------------------------------- invoke
    def _invoke_batch(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._queue:
            return
        batch = self._queue[: self.batch_size]
        self._queue = self._queue[self.batch_size:]
        self.invoke_canvases(fixed_size_inputs(batch, self.input_size))
        if self._queue:
            self._timer = self.simulator.schedule_in(
                self.timeout, lambda _sim: self._invoke_batch(), name="mark:timeout"
            )

    # ------------------------------------------------------------------ flush
    def flush(self) -> None:
        while self._queue:
            self._invoke_batch()
