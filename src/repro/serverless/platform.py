"""The serverless platform facade.

:class:`ServerlessPlatform` owns the pool of function instances, scales the
pool out when every warm instance is busy (serverless functions scale in
tens of milliseconds, so it simply adds an instance rather than queueing)
until the pool reaches ``max_instances``, routes each invocation round
robin to an idle instance whenever one exists (NGINX's default policy),
and aggregates billing across all instances.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.simulation.engine import Simulator
from repro.serverless.cost import AlibabaCostModel, FunctionResources
from repro.serverless.function import FunctionInstance, InvocationRecord


@dataclass(frozen=True)
class ScalingPolicy:
    """When to add a new function instance.

    The platform adds an instance whenever all existing instances have at
    least one outstanding invocation, which is how request-driven FaaS
    platforms behave.  ``max_instances`` bounds the pool (a per-account
    concurrency quota in real deployments) and must be an integer of at
    least 1.
    """

    max_instances: int = 32

    def __post_init__(self) -> None:
        # NaN passes ``< 1`` and then caps nothing (``len < NaN`` is
        # false, so the pool never grows), and 2.5 acts as 3.
        if not isinstance(self.max_instances, numbers.Integral) or self.max_instances < 1:
            raise ValueError("max_instances must be an integer of at least 1")


class ServerlessPlatform:
    """A pool of GPU function instances with auto-scaling and billing."""

    def __init__(
        self,
        simulator: Simulator,
        resources: Optional[FunctionResources] = None,
        cost_model: Optional[AlibabaCostModel] = None,
        scaling: Optional[ScalingPolicy] = None,
        cold_start_time: float = 0.05,
        initial_instances: int = 1,
        name: str = "faas",
    ) -> None:
        if initial_instances < 0:
            raise ValueError("initial_instances must be non-negative")
        # Written so that NaN fails too; an infinite cold start would
        # silently miss every SLO.
        if not 0 <= cold_start_time < math.inf:
            raise ValueError("cold_start_time must be finite and non-negative")
        self.simulator = simulator
        self.resources = resources or FunctionResources()
        self.cost_model = cost_model or AlibabaCostModel(resources=self.resources)
        self.scaling = scaling or ScalingPolicy()
        self.cold_start_time = cold_start_time
        self.name = name
        self.instances: List[FunctionInstance] = []
        self._instance_counter = 0
        #: The round-robin position; it advances once per routed
        #: invocation, whichever list it indexes.
        self._cursor = 0
        for _ in range(initial_instances):
            self._add_instance()

    # -------------------------------------------------------------- instances
    def _add_instance(self) -> FunctionInstance:
        instance = FunctionInstance(
            self.simulator,
            instance_id=f"{self.name}-{self._instance_counter}",
            resources=self.resources,
            cost_model=self.cost_model,
            cold_start_time=self.cold_start_time,
        )
        self._instance_counter += 1
        self.instances.append(instance)
        return instance

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    def _pick_instance(self) -> FunctionInstance:
        if not self.instances:
            return self._add_instance()
        # Concurrency is one invocation per instance, so an idle instance
        # always beats queueing behind a busy one; the cursor rotates
        # among the idle instances and falls back to all of them only
        # when every instance is busy and the pool cannot grow.
        idle = [instance for instance in self.instances if instance.outstanding == 0]
        if not idle and len(self.instances) < self.scaling.max_instances:
            return self._add_instance()
        candidates = idle or self.instances
        instance = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return instance

    # ----------------------------------------------------------------- invoke
    def invoke(
        self,
        execution_time: float,
        payload: Any = None,
        on_complete: Optional[Callable[[InvocationRecord], None]] = None,
    ) -> FunctionInstance:
        """Route one invocation to an instance.

        Returns the instance the invocation was assigned to (useful for
        tests asserting scaling behaviour).
        """
        # Checked before an instance is picked, so a bad call neither
        # scales the pool nor advances the cursor.
        if not execution_time >= 0:
            raise ValueError("execution_time must be non-negative")
        instance = self._pick_instance()
        instance.invoke(execution_time, payload=payload, on_complete=on_complete)
        return instance

    # ---------------------------------------------------------------- metrics
    @property
    def all_invocations(self) -> List[InvocationRecord]:
        records: List[InvocationRecord] = []
        for instance in self.instances:
            records.extend(instance.invocations)
        return sorted(records, key=lambda record: record.submit_time)

    @property
    def total_cost(self) -> float:
        """Total USD billed across every instance (Eqn. 1 per invocation)."""
        return sum(instance.total_cost for instance in self.instances)

    @property
    def total_invocations(self) -> int:
        return sum(len(instance.invocations) for instance in self.instances)

    @property
    def total_execution_time(self) -> float:
        return sum(
            record.execution_time
            for instance in self.instances
            for record in instance.invocations
        )
