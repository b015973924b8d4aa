"""The fleet's admission filter in front of the scheduler.

:class:`FleetIngestor` sits between the per-camera uplinks and a
scheduler (anything with ``receive_patch``) and decides, for each
delivered patch, whether the scheduler gets it:

* **liveness** -- every delivery first sweeps the liveness tracker, so
  camera silence ages into state transitions on the ingest's own
  activity;
* **dead-camera expiry** -- a late delivery from a camera the tracker
  has declared dead is counted as ``expired_dead``: the rest of its
  frames will never come;
* **stale expiry before the packer sees the patch** -- a patch whose
  deadline passed in flight is counted as ``expired_stale`` and never
  reaches ``IncrementalStitcher.probe``, instead of burning a probe to
  produce a guaranteed SLO miss;
* every other delivery goes straight to the scheduler and is counted
  as ``admitted``.

The ingestor holds nothing: each delivery is decided before
:meth:`FleetIngestor.offer` returns, and every decision is counted, so
expiry is always separable from genuine scheduler-side SLO violations.
"""

from __future__ import annotations

from typing import Optional

from repro.core.patches import Patch
from repro.fleet.liveness import LivenessTracker
from repro.simulation.engine import Simulator


class FleetIngestor:
    """Admission filter between the uplinks and one scheduler."""

    def __init__(
        self,
        simulator: Simulator,
        scheduler,
        liveness: Optional[LivenessTracker] = None,
    ) -> None:
        self.simulator = simulator
        self.scheduler = scheduler
        self.liveness = liveness
        self.admitted = 0
        self.expired_stale = 0
        self.expired_dead = 0

    def offer(self, patch: Patch) -> str:
        """Decide one delivered patch; returns the verdict for tests.

        Verdicts: ``"expired_dead"``, ``"expired_stale"``, ``"admitted"``.
        """
        if self.liveness is not None:
            self.liveness.sweep()
            if self.liveness.is_dead(patch.camera_id):
                self.expired_dead += 1
                return "expired_dead"
        if patch.deadline <= self.simulator.now:
            self.expired_stale += 1
            return "expired_stale"
        self.scheduler.receive_patch(patch)
        self.admitted += 1
        return "admitted"

    @property
    def stats(self) -> dict:
        return {
            "admitted": self.admitted,
            "expired_stale": self.expired_stale,
            "expired_dead": self.expired_dead,
        }
