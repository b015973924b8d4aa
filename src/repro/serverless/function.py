"""Serverless function instances.

A :class:`FunctionInstance` is a GPU-backed container that serves
invocations with bounded concurrency (the paper sets concurrency 1).  The
first invocation routed to a freshly created instance pays a cold-start
penalty covering container provisioning and model loading; the paper cites
tens of milliseconds for serverless scale-up, far below VM boot times,
which is what makes the platform suitable for fluctuating workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.simulation.engine import Simulator
from repro.simulation.resources import Resource, ResourceJob
from repro.serverless.cost import AlibabaCostModel, FunctionResources


@dataclass
class InvocationRecord:
    """Everything known about one completed invocation."""

    instance_id: str
    payload: Any
    submit_time: float
    start_time: float
    finish_time: float
    execution_time: float
    cold_start: float
    cost: float

    @property
    def queueing_delay(self) -> float:
        return self.start_time - self.submit_time


class FunctionInstance:
    """One warm (or warming) function instance.

    Parameters
    ----------
    simulator:
        The event loop.
    instance_id:
        Identifier used in records and load-balancer bookkeeping.
    resources:
        vCPU / memory / GPU memory allocation; also fixes the billing rate.
    cost_model:
        Billing calculator (defaults to the paper's Alibaba prices).
    cold_start_time:
        Extra delay added to the first invocation this instance serves,
        covering container start and model load.
    """

    def __init__(
        self,
        simulator: Simulator,
        instance_id: str,
        resources: Optional[FunctionResources] = None,
        cost_model: Optional[AlibabaCostModel] = None,
        cold_start_time: float = 0.05,
    ) -> None:
        self.simulator = simulator
        self.instance_id = instance_id
        self.resources = resources or FunctionResources()
        self.cost_model = cost_model or AlibabaCostModel(resources=self.resources)
        self.cold_start_time = cold_start_time
        self._resource = Resource(
            simulator, capacity=self.resources.concurrency, name=f"fn/{instance_id}"
        )
        self._warm = False
        self.invocations: List[InvocationRecord] = []

    # ------------------------------------------------------------------ state
    @property
    def outstanding(self) -> int:
        """Invocations queued or running on this instance."""
        return self._resource.queue_length + self._resource.in_service

    @property
    def total_cost(self) -> float:
        return sum(record.cost for record in self.invocations)

    # ----------------------------------------------------------------- invoke
    def invoke(
        self,
        execution_time: float,
        payload: Any = None,
        on_complete: Optional[Callable[[InvocationRecord], None]] = None,
    ) -> None:
        """Submit one invocation whose pure execution takes
        ``execution_time`` seconds.

        The caller (the platform's latency model) decides the execution
        time; this class adds queueing behind earlier invocations, the cold
        start if applicable, and computes the billed cost.  Cold-start time
        is not billed (the provider absorbs provisioning), matching how
        Function Compute charges only for execution.
        """
        if execution_time < 0:
            raise ValueError("execution_time must be non-negative")
        cold = 0.0
        if not self._warm:
            cold = self.cold_start_time
            self._warm = True
        submit_time = self.simulator.now

        def finished(job: ResourceJob) -> None:
            record = InvocationRecord(
                instance_id=self.instance_id,
                payload=payload,
                submit_time=submit_time,
                start_time=job.start_time,
                finish_time=job.finish_time,
                execution_time=execution_time,
                cold_start=cold,
                cost=self.cost_model.invocation_cost(execution_time),
            )
            self.invocations.append(record)
            if on_complete is not None:
                on_complete(record)

        self._resource.submit(
            execution_time + cold, payload=payload, on_complete=finished
        )
