"""Heartbeat-based camera liveness tracking.

A fleet frontend should not spend scheduler work on a camera that
silently went away: a late delivery from a dead camera will never be
joined by the rest of its frame, so the ingest filter expires it (see
:mod:`repro.fleet.ingest`).  The tracker implements the dropout /
reconnect state machine

    ALIVE -> SUSPECT -> DEAD -> RECONNECTING -> ALIVE

driven by heartbeats (in the simulation a camera heartbeats whenever it
captures a frame, so a fault-plan dropout window silences both the frames
and the heartbeats) and by :meth:`sweep` calls that age the silence out.
Sweeps are *lazy*: the ingest layer calls :meth:`sweep` on its own
activity instead of keeping a perpetual timer event alive, which keeps the
discrete-event queue finite and the runs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.simulation.engine import Simulator

#: Liveness states (plain strings so they read well in counters/JSON).
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
RECONNECTING = "reconnecting"

LIVENESS_STATES = (ALIVE, SUSPECT, DEAD, RECONNECTING)


@dataclass
class CameraHealth:
    """Per-camera liveness record."""

    camera_id: str
    state: str = ALIVE
    last_heartbeat: float = 0.0
    state_since: float = 0.0


class LivenessTracker:
    """Tracks per-camera liveness from heartbeats and silence.

    Parameters
    ----------
    suspect_after:
        Seconds of silence before an ``alive`` camera becomes ``suspect``.
    dead_after:
        Seconds of silence before a ``suspect`` camera is declared
        ``dead`` (must exceed ``suspect_after``), at the first sweep
        after that much silence.
    reconnect_settle:
        A heartbeat from a ``dead`` camera moves it to ``reconnecting``;
        it is promoted back to ``alive`` once heartbeats have kept coming
        for this long (a camera that blips once and goes silent again is
        re-declared dead without ever counting as alive).
    """

    def __init__(
        self,
        simulator: Simulator,
        suspect_after: float = 2.0,
        dead_after: float = 5.0,
        reconnect_settle: float = 1.0,
    ) -> None:
        # ``not x > 0`` rather than ``x <= 0``, so NaN fails too.
        if not (suspect_after > 0 and dead_after > 0 and reconnect_settle >= 0):
            raise ValueError("liveness timeouts must be positive")
        if dead_after <= suspect_after:
            raise ValueError("dead_after must exceed suspect_after")
        self.simulator = simulator
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.reconnect_settle = reconnect_settle
        self._cameras: Dict[str, CameraHealth] = {}
        self.transitions = {state: 0 for state in LIVENESS_STATES}

    # ------------------------------------------------------------------ state
    def register(self, camera_id: str) -> None:
        """Start tracking ``camera_id`` as alive from now."""
        if camera_id not in self._cameras:
            now = self.simulator.now
            self._cameras[camera_id] = CameraHealth(
                camera_id=camera_id, last_heartbeat=now, state_since=now
            )

    def state(self, camera_id: str) -> str:
        health = self._cameras.get(camera_id)
        return health.state if health is not None else ALIVE

    def is_dead(self, camera_id: str) -> bool:
        return self.state(camera_id) == DEAD

    @property
    def counts(self) -> Dict[str, int]:
        """Cameras per state (after the most recent sweep)."""
        counts = {state: 0 for state in LIVENESS_STATES}
        for health in self._cameras.values():
            counts[health.state] += 1
        return counts

    # ------------------------------------------------------------- transitions
    def _enter(self, health: CameraHealth, state: str) -> None:
        health.state = state
        health.state_since = self.simulator.now
        self.transitions[state] += 1

    def heartbeat(self, camera_id: str) -> str:
        """Record a heartbeat and return the camera's (new) state."""
        self.register(camera_id)
        health = self._cameras[camera_id]
        now = self.simulator.now
        if health.state == DEAD:
            self._enter(health, RECONNECTING)
        elif health.state == RECONNECTING:
            if now - health.state_since >= self.reconnect_settle:
                self._enter(health, ALIVE)
        elif health.state == SUSPECT:
            self._enter(health, ALIVE)
        health.last_heartbeat = now
        return health.state

    def sweep(self) -> None:
        """Age silence into state transitions (called on ingest activity)."""
        now = self.simulator.now
        for health in self._cameras.values():
            silence = now - health.last_heartbeat
            if health.state in (ALIVE, SUSPECT, RECONNECTING):
                if silence >= self.dead_after:
                    self._enter(health, DEAD)
                elif health.state == ALIVE and silence >= self.suspect_after:
                    self._enter(health, SUSPECT)
