"""The discrete-event simulation engine.

The :class:`Simulator` owns the clock and the event queue.  Components
(cameras, network links, the scheduler, function instances) schedule
callbacks on it; running the simulator advances time from event to event
until the queue drains or a time horizon is reached.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simulation.events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised when the simulator is used inconsistently."""


def _check_start_time(start_time: float) -> None:
    # ``not x >= 0`` rather than ``x < 0``, so NaN fails too.
    if not start_time >= 0:
        raise ValueError("start_time must be non-negative")


class Simulator:
    """A deterministic single-threaded discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock in seconds.
    trace:
        When true, every fired event is appended to :attr:`trace_log` as a
        ``(time, name)`` tuple.  Useful in tests and for debugging
        scheduling order; off by default to keep long runs cheap.
    """

    def __init__(self, start_time: float = 0.0, trace: bool = False) -> None:
        _check_start_time(start_time)
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._fired_events = 0
        self.trace = trace
        self.trace_log: list[tuple[float, str]] = []

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def fired_events(self) -> int:
        """Number of events executed so far."""
        return self._fired_events

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    # ------------------------------------------------------------- scheduling
    def schedule_at(
        self,
        time: float,
        callback: Callable[["Simulator"], Any],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(simulator)`` at absolute time ``time``."""
        # ``not x >= now`` rather than ``x < now``: a NaN time would
        # corrupt the heap order.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event {name!r} at {time:.6f}, "
                f"which is in the past or not a number (now={self._now:.6f})"
            )
        return self._queue.push(time, callback, priority=priority, name=name)

    def schedule_in(
        self,
        delay: float,
        callback: Callable[["Simulator"], Any],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(simulator)`` after ``delay`` seconds."""
        if not delay >= 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(
            self._now + delay, callback, priority=priority, name=name
        )

    # ---------------------------------------------------------------- running
    def step(self) -> bool:
        """Fire the next event.  Return ``False`` when the queue is empty."""
        try:
            event = self._queue.pop()
        except IndexError:
            return False
        if event.time < self._now:
            raise SimulationError(
                f"event {event.name!r} scheduled in the past: "
                f"{event.time} < {self._now}"
            )
        self._now = event.time
        self._fired_events += 1
        if self.trace:
            self.trace_log.append((event.time, event.name))
        if event.callback is not None:
            event.callback(self)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or the budget
        of ``max_events`` is exhausted.

        Returns the simulation time at which the run stopped.  When
        ``until`` is given and the queue drains early, the clock is advanced
        to ``until`` so that repeated ``run`` calls compose predictably.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        fired = 0
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def reset(self, start_time: float = 0.0) -> None:
        """Discard all pending events and rewind the clock."""
        _check_start_time(start_time)
        self._queue.clear()
        self._now = float(start_time)
        self._fired_events = 0
        self.trace_log.clear()
