"""Event primitives for the discrete-event simulator.

An :class:`Event` is a callback scheduled at an absolute simulation time.
Events are totally ordered by ``(time, priority, sequence)`` so that the
simulation is deterministic: two events scheduled for the same instant fire
in the order they were scheduled unless an explicit priority says otherwise.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(order=True)
class Event:
    """A single scheduled occurrence in the simulation.

    Attributes
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    priority:
        Tie-breaker for events at the same time; lower fires first.
    sequence:
        Monotonic insertion counter, the final tie-breaker.
    callback:
        Callable invoked as ``callback(simulator)`` when the event fires.
    name:
        Human-readable label used in traces and error messages.
    cancelled:
        Cancelled events stay in the heap but are skipped when popped.
    """

    time: float
    priority: int = 0
    sequence: int = 0
    callback: Optional[Callable[..., Any]] = field(default=None, compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the queue discards it instead of firing it.

        Cancellation is lazy: the event stays in the heap until it reaches
        the top.  Dropping the callback here lets whatever it captured be
        freed now rather than when the dead entry is finally popped.
        """
        self.cancelled = True
        self.callback = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, name={self.name!r}, {state})"


class EventQueue:
    """A priority queue of :class:`Event` objects.

    The queue is a thin wrapper over :mod:`heapq` that also assigns the
    monotonically increasing sequence numbers used for deterministic
    tie-breaking and supports lazy cancellation.  Heap entries are
    ``(time, priority, sequence, event)`` tuples, so sifts compare tuples
    natively; ``sequence`` is unique, so the event itself is never
    compared and the order is exactly :class:`Event`'s.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return any(not entry[3].cancelled for entry in self._heap)

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return the event."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        sequence = next(self._counter)
        event = Event(
            time=time,
            priority=priority,
            sequence=sequence,
            callback=callback,
            name=name,
        )
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises
        ------
        IndexError
            If the queue contains no live events.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if not event.cancelled:
                return event
        raise IndexError("pop from an empty EventQueue")

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event, or ``None``."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
