"""FIFO resources with bounded concurrency.

A :class:`Resource` models anything that serves jobs one (or ``capacity``)
at a time: a GPU function instance with concurrency 1, an uplink that
serialises bytes, or the single Jetson CPU running the partitioning filter.
Jobs are submitted with a service time; the resource queues them, serves
them in order, and reports per-job waiting/service/completion times.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from repro.simulation.engine import Simulator


@dataclass
class ResourceJob:
    """A unit of work submitted to a :class:`Resource`."""

    service_time: float
    payload: Any = None
    on_complete: Optional[Callable[["ResourceJob"], None]] = None
    submit_time: float = 0.0
    start_time: float = float("nan")
    finish_time: float = float("nan")

    @property
    def waiting_time(self) -> float:
        """Seconds spent queued before service began."""
        return self.start_time - self.submit_time


class Resource:
    """A server pool with FIFO queueing and fixed concurrency.

    Parameters
    ----------
    simulator:
        The event loop this resource schedules on.
    capacity:
        Number of jobs that may be in service simultaneously.
    name:
        Label used in event names and error messages.

    A finished job is handed to its ``on_complete`` callback and then
    dropped, so a long run holds no per-job history (and no callback a
    job captured).  Callers that need a job's timings keep the
    :class:`ResourceJob` :meth:`submit` returns.
    """

    def __init__(
        self,
        simulator: Simulator,
        capacity: int = 1,
        name: str = "resource",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.simulator = simulator
        self.capacity = capacity
        self.name = name
        self._queue: Deque[ResourceJob] = deque()
        self._in_service = 0

    # ------------------------------------------------------------------ state
    @property
    def queue_length(self) -> int:
        """Number of jobs waiting (not yet in service)."""
        return len(self._queue)

    @property
    def in_service(self) -> int:
        """Number of jobs currently being served."""
        return self._in_service

    @property
    def is_idle(self) -> bool:
        return self._in_service == 0 and not self._queue

    def backlog_time(self) -> float:
        """Total service time of queued jobs, a lower bound on drain time."""
        return sum(job.service_time for job in self._queue)

    # ----------------------------------------------------------------- submit
    def submit(
        self,
        service_time: float,
        payload: Any = None,
        on_complete: Optional[Callable[[ResourceJob], None]] = None,
    ) -> ResourceJob:
        """Queue a job requiring ``service_time`` seconds of service."""
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        job = ResourceJob(
            service_time=service_time,
            payload=payload,
            on_complete=on_complete,
            submit_time=self.simulator.now,
        )
        self._queue.append(job)
        self._try_start_next()
        return job

    # --------------------------------------------------------------- internal
    def _try_start_next(self) -> None:
        while self._queue and self._in_service < self.capacity:
            job = self._queue.popleft()
            self._in_service += 1
            job.start_time = self.simulator.now
            self.simulator.schedule_in(
                job.service_time,
                lambda _sim, job=job: self._finish(job),
                name=f"{self.name}:finish",
            )

    def _finish(self, job: ResourceJob) -> None:
        self._in_service -= 1
        job.finish_time = self.simulator.now
        if job.on_complete is not None:
            job.on_complete(job)
        self._try_start_next()
