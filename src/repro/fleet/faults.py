"""Seeded, deterministic fault plans for chaos experiments.

A :class:`FaultPlan` is a pre-computed list of :class:`FaultEvent` windows
that a scenario consults while it runs -- camera dropout windows, uplink
loss probability, latency jitter bounds, and arrival-burst windows.  Two
design rules make the chaos suite's contracts *exact* rather than
statistical:

1. **Everything is decided up front.**  The plan is generated from a seed
   (via :class:`~repro.simulation.random_streams.RandomStreams` and the
   counter-based uniforms of :mod:`repro.network.link`) before the
   simulation starts; runtime queries are pure functions of ``(plan,
   camera, now)``.  Re-running a scenario with the same plan seed is
   byte-for-byte identical.
2. **Intensity nests.**  :meth:`FaultPlan.generate` draws one *candidate
   skeleton* -- which cameras could drop, when bursts could start -- that
   does not depend on the ``intensity`` dial, then scales selection
   thresholds and magnitudes by the dial.  Raising the intensity can only
   add fault windows or widen magnitudes, never move or remove existing
   ones, so "more injected faults" produces a superset of disturbances and
   monotone degradation becomes a structural property.

A query reads only the windows that can answer it: the plan indexes its
events once, by kind and camera, so a capture or uplink send costs the
same whatever the number of cameras with faults of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.network.link import counter_uniform
from repro.simulation.random_streams import RandomStreams

#: Fault classes a plan can contain.
DROPOUT = "dropout"
LOSS = "loss"
JITTER = "jitter"
BURST = "burst"

FAULT_KINDS = (DROPOUT, LOSS, JITTER, BURST)

#: A fault window as the queries read it: ``(start, end, magnitude)``.
_Window = Tuple[float, float, float]


@dataclass(frozen=True)
class FaultEvent:
    """One fault window.

    ``camera_id`` is ``None`` for fleet-wide events (loss, jitter, burst);
    ``magnitude`` is a loss probability in [0, 1], a finite jitter bound
    in seconds, or a finite burst arrival multiplier of at least 1,
    depending on ``kind``.
    """

    kind: str
    start: float
    end: float
    magnitude: float = 1.0
    camera_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; valid: {FAULT_KINDS}")
        # ``not start <= end`` rather than ``end < start``, so NaN fails too.
        if not self.start <= self.end:
            raise ValueError("fault window must have end >= start")
        # Each magnitude check is written so that NaN fails it; a dropout
        # reads no magnitude.
        if self.kind == LOSS and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("a loss magnitude is a probability in [0, 1]")
        if self.kind == JITTER and not 0.0 <= self.magnitude < math.inf:
            raise ValueError("a jitter magnitude must be non-negative and finite")
        if self.kind == BURST and not 1.0 <= self.magnitude < math.inf:
            raise ValueError("a burst magnitude must be at least 1 and finite")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events for one scenario run."""

    seed: int
    duration: float
    events: Tuple[FaultEvent, ...] = ()
    intensity: float = 1.0

    # ------------------------------------------------------------- generation
    @classmethod
    def generate(
        cls,
        seed: int,
        camera_ids: Sequence[str],
        duration: float,
        dropout_fraction: float = 0.0,
        dropout_duration: Optional[float] = None,
        loss_probability: float = 0.0,
        jitter_s: float = 0.0,
        burst_count: int = 0,
        burst_multiplier: float = 2.0,
        burst_duration: Optional[float] = None,
        intensity: float = 1.0,
    ) -> "FaultPlan":
        """Draw a plan from ``seed`` with nested-by-``intensity`` windows.

        ``dropout_fraction`` is the fraction of cameras that lose their
        uplink for one ``dropout_duration`` window (default: a quarter of
        the run); ``burst_count`` bursts of ``burst_multiplier``x arrivals
        last ``burst_duration`` each (default: a tenth of the run).  All
        knobs are scaled by ``intensity`` in ``[0, 1]`` -- the candidate
        skeleton below is drawn *before* the dial is applied, so plans of
        the same seed nest as the dial rises.
        """
        # Every check is written so that NaN fails it too.
        if not 0.0 < duration < math.inf:
            raise ValueError("duration must be positive and finite")
        for name, value in (
            ("dropout_duration", dropout_duration),
            ("burst_duration", burst_duration),
        ):
            if value is not None and not value > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= jitter_s < math.inf:
            raise ValueError("jitter_s must be non-negative and finite")
        if not 1.0 <= burst_multiplier < math.inf:
            raise ValueError("burst_multiplier must be at least 1 and finite")
        if not burst_count >= 0:
            raise ValueError("burst_count must be non-negative")
        if not 0.0 <= intensity <= 1.0:
            raise ValueError("intensity must be in [0, 1]")
        if not 0.0 <= dropout_fraction <= 1.0:
            raise ValueError("dropout_fraction must be in [0, 1]")
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        streams = RandomStreams(seed)
        events: List[FaultEvent] = []

        # Camera dropout: every camera gets a candidate window position;
        # the intensity-scaled fraction threshold decides who actually
        # drops.  Selection uniforms are counter-based on the camera id,
        # so the selected set is a superset of every lower-intensity set.
        window = dropout_duration if dropout_duration is not None else duration * 0.25
        window = min(window, duration)
        for camera_id in camera_ids:
            selector = counter_uniform(seed, "fault/dropout-select", camera_id)
            if selector < dropout_fraction * intensity:
                offset = counter_uniform(seed, "fault/dropout-start", camera_id)
                start = offset * max(0.0, duration - window)
                events.append(
                    FaultEvent(
                        kind=DROPOUT,
                        start=start,
                        end=start + window,
                        camera_id=camera_id,
                    )
                )

        # Uplink loss and jitter: fleet-wide, constant over the run, with
        # intensity-scaled magnitudes.  Per-send coupling (same uniform,
        # larger threshold) lives in :class:`repro.network.link.Uplink`.
        if loss_probability * intensity > 0.0:
            events.append(
                FaultEvent(
                    kind=LOSS,
                    start=0.0,
                    end=duration,
                    magnitude=loss_probability * intensity,
                )
            )
        if jitter_s * intensity > 0.0:
            events.append(
                FaultEvent(
                    kind=JITTER, start=0.0, end=duration, magnitude=jitter_s * intensity
                )
            )

        # Arrival bursts: draw the full candidate list of start times once,
        # then keep an intensity-scaled prefix with intensity-scaled
        # multipliers -- again a nested family.
        if burst_count > 0:
            burst_rng = streams.get("fault/bursts")
            blen = burst_duration if burst_duration is not None else duration * 0.1
            blen = min(blen, duration)
            candidates = [
                float(burst_rng.uniform(0.0, max(1e-9, duration - blen)))
                for _ in range(burst_count)
            ]
            kept = int(round(burst_count * intensity))
            magnitude = 1.0 + (burst_multiplier - 1.0) * intensity
            for start in candidates[:kept]:
                if magnitude > 1.0:
                    events.append(
                        FaultEvent(
                            kind=BURST, start=start, end=start + blen, magnitude=magnitude
                        )
                    )

        events.sort(key=lambda e: (e.start, e.kind, e.camera_id or ""))
        return cls(
            seed=seed, duration=duration, events=tuple(events), intensity=intensity
        )

    # ---------------------------------------------------------------- queries
    @cached_property
    def _windows(self) -> Dict[Tuple[str, Optional[str]], Tuple[_Window, ...]]:
        """The windows each camera query reads, built on the first query.

        ``(kind, None)`` holds the fleet-wide windows of ``kind``.  A
        camera with windows of its own has a ``(kind, camera_id)`` entry
        that holds those and the fleet-wide ones.  Both keep event order.
        """
        index: Dict[Tuple[str, Optional[str]], List[_Window]] = {
            (kind, None): [] for kind in FAULT_KINDS
        }
        for event in self.events:
            window = (event.start, event.end, event.magnitude)
            if event.camera_id is None:
                # A fleet-wide window covers every camera.
                for (kind, _camera), windows in index.items():
                    if kind == event.kind:
                        windows.append(window)
            else:
                key = (event.kind, event.camera_id)
                if key not in index:
                    index[key] = list(index[(event.kind, None)])
                index[key].append(window)
        return {key: tuple(windows) for key, windows in index.items()}

    @cached_property
    def _burst_windows(self) -> Tuple[_Window, ...]:
        """Every burst window, camera-scoped ones included: the arrival
        multiplier takes no camera and counts them all."""
        return tuple((e.start, e.end, e.magnitude) for e in self.events if e.kind == BURST)

    def _covering(self, kind: str, camera_id: str) -> Tuple[_Window, ...]:
        """The windows of ``kind`` that cover ``camera_id``, in event order."""
        windows = self._windows
        own = windows.get((kind, camera_id))
        return windows[(kind, None)] if own is None else own

    def camera_down(self, camera_id: str, now: float) -> bool:
        """Whether ``camera_id`` is inside a dropout window at ``now``."""
        for start, end, _magnitude in self._covering(DROPOUT, camera_id):
            if start <= now < end:
                return True
        return False

    def loss_probability(self, camera_id: str, now: float) -> float:
        """Effective per-send loss probability for the camera's uplink."""
        return _peak(self._covering(LOSS, camera_id), now, 0.0)

    def extra_jitter(self, camera_id: str, now: float) -> float:
        """Upper bound on extra propagation jitter (seconds)."""
        return _peak(self._covering(JITTER, camera_id), now, 0.0)

    def burst_multiplier(self, now: float) -> float:
        """Arrival multiplier at ``now`` (1.0 outside burst windows)."""
        return _peak(self._burst_windows, now, 1.0)

    # ------------------------------------------------------------- link dials
    def loss_dial(self, camera_id: str) -> Callable[[float], float]:
        """A ``f(now) -> p`` dial for :class:`repro.network.link.Uplink`."""
        windows = self._covering(LOSS, camera_id)
        return lambda now: _peak(windows, now, 0.0)

    def jitter_dial(self, camera_id: str) -> Callable[[float], float]:
        """A ``f(now) -> bound`` jitter dial for the camera's uplink."""
        windows = self._covering(JITTER, camera_id)
        return lambda now: _peak(windows, now, 0.0)

    # ---------------------------------------------------------------- summary
    def dropout_cameras(self) -> List[str]:
        return sorted(
            {e.camera_id for e in self.events if e.kind == DROPOUT and e.camera_id}
        )

    def describe(self) -> dict:
        """A JSON-friendly summary (used by docs/examples and tests)."""
        by_kind = {kind: 0 for kind in FAULT_KINDS}
        for event in self.events:
            by_kind[event.kind] += 1
        return {
            "seed": self.seed,
            "duration": self.duration,
            "intensity": self.intensity,
            "events": by_kind,
            "dropout_cameras": self.dropout_cameras(),
        }


def _peak(windows: Iterable[_Window], now: float, default: float) -> float:
    """The largest magnitude among ``windows`` open at ``now``."""
    return max(
        (magnitude for start, end, magnitude in windows if start <= now < end),
        default=default,
    )


@dataclass
class FaultFreePlan:
    """The null object: a plan with no events (every query says "healthy").

    Scenario code can hold a plan unconditionally instead of branching on
    ``None`` everywhere.
    """

    seed: int = 0
    duration: float = 0.0
    events: Tuple[FaultEvent, ...] = field(default=())
    intensity: float = 0.0

    def camera_down(self, camera_id: str, now: float) -> bool:
        return False

    def loss_probability(self, camera_id: str, now: float) -> float:
        return 0.0

    def extra_jitter(self, camera_id: str, now: float) -> float:
        return 0.0

    def burst_multiplier(self, now: float) -> float:
        return 1.0

    def loss_dial(self, camera_id: str) -> float:
        return 0.0

    def jitter_dial(self, camera_id: str) -> float:
        return 0.0

    def dropout_cameras(self) -> List[str]:
        return []

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "duration": self.duration,
            "intensity": 0.0,
            "events": {kind: 0 for kind in FAULT_KINDS},
            "dropout_cameras": [],
        }
