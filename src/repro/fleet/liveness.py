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

A sweep costs O(1 + suspects + transitions), whatever the fleet size.
The tracker keeps its non-dead cameras ordered by last heartbeat, oldest
first; simulated time never runs backwards, so a heartbeat moves its
camera to the end.  A sweep walks from the oldest camera and stops at the
first one silent for less than ``suspect_after``: every camera after it
last heartbeat no earlier, so none of them has been silent long enough to
change state.  Cameras the sweep declares dead leave the walk until they
heartbeat again.
"""

from __future__ import annotations

from collections import OrderedDict
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
        suspect_after: float = 0.75,
        dead_after: float = 2.0,
        reconnect_settle: float = 0.5,
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
        #: The non-dead cameras, oldest heartbeat first: the sweep's walk.
        self._walk: "OrderedDict[str, CameraHealth]" = OrderedDict()
        self.transitions = {state: 0 for state in LIVENESS_STATES}

    # ------------------------------------------------------------------ state
    def register(self, camera_id: str) -> None:
        """Start tracking ``camera_id`` as alive from now."""
        if camera_id not in self._cameras:
            now = self.simulator.now
            health = CameraHealth(
                camera_id=camera_id, last_heartbeat=now, state_since=now
            )
            self._cameras[camera_id] = health
            self._walk[camera_id] = health

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
            self._walk[camera_id] = health
        elif health.state == RECONNECTING:
            if now - health.state_since >= self.reconnect_settle:
                self._enter(health, ALIVE)
        elif health.state == SUSPECT:
            self._enter(health, ALIVE)
        self._walk.move_to_end(camera_id)
        health.last_heartbeat = now
        return health.state

    def sweep(self) -> None:
        """Age silence into state transitions (called on ingest activity).

        Silence only shrinks along the walk, so the cameras this sweep
        declares dead are the walk's first ``dead`` entries.
        """
        now = self.simulator.now
        walk = self._walk
        dead = 0
        for health in walk.values():
            silence = now - health.last_heartbeat
            if silence < self.suspect_after:
                break
            if silence >= self.dead_after:
                self._enter(health, DEAD)
                dead += 1
            elif health.state == ALIVE:
                self._enter(health, SUSPECT)
        for _ in range(dead):
            walk.popitem(last=False)
