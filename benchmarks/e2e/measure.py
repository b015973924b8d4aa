"""What one worker run measures: outcome accounting, the simulated
end-to-end metrics, and the correctness checks.

The runners' results carry no billed cost and no per-patch latencies, so
:class:`Capture` hooks the constructors of the objects that hold them --
every :class:`~repro.core.scheduler.TangramScheduler`,
:class:`~repro.serverless.platform.ServerlessPlatform` and
:class:`~repro.network.link.Uplink` a run builds.  A hook fires once per
object, never per call; after the run the worker reads ``batches``,
``outcomes``, ``invocations`` and ``total_bytes`` from the objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

#: The simulated end-to-end metrics: deterministic per seed, moved only by
#: scheduling decisions (scheduler compute is charged no simulated time).
SIMULATED = (
    "slo_attainment",
    "patch_latency_p50_s",
    "patch_latency_tail_s",
    "cost_per_frame_uusd",
    "uplink_kb_per_frame",
)


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = (len(sorted_values) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


class Capture:
    """The schedulers, platforms and uplinks a run constructs."""

    def __init__(self) -> None:
        self.schedulers: List[Any] = []
        self.platforms: List[Any] = []
        self.uplinks: List[Any] = []

    def install(self) -> None:
        from repro.core.scheduler import TangramScheduler
        from repro.network.link import Uplink
        from repro.serverless.platform import ServerlessPlatform

        _record_instances(TangramScheduler, self.schedulers)
        _record_instances(ServerlessPlatform, self.platforms)
        _record_instances(Uplink, self.uplinks)

    @property
    def completed_batches(self) -> List[Any]:
        return [b for s in self.schedulers for b in s.batches if b.outcomes]

    @property
    def outcomes(self) -> List[Any]:
        return [o for b in self.completed_batches for o in b.outcomes]


def _record_instances(cls: type, sink: List[Any]) -> None:
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sink.append(self)

    cls.__init__ = __init__


@dataclass
class Accounting:
    """Where every patch that left a camera ended up.

    ``attempted`` is counted where patches are produced and the buckets
    where they end, so conservation is a check, not an identity.  ``lost``
    patches got no result at all; ``ops_failed`` adds the late ones, so it
    counts every attempted patch not completed within its SLO.
    """

    attempted: int
    frames: int
    on_time: int
    late: int
    shed: int
    expired: int
    dropped: int
    transfer_failed: int
    pending: int
    errors: int

    @property
    def lost(self) -> int:
        return self.shed + self.expired + self.dropped + self.transfer_failed + self.pending

    @property
    def ops_failed(self) -> int:
        return self.attempted - self.on_time

    def as_dict(self) -> Dict[str, int]:
        return {
            "ops_attempted": self.attempted,
            "ops_failed": self.ops_failed,
            "frames": self.frames,
            "on_time": self.on_time,
            "late": self.late,
            "shed": self.shed,
            "expired": self.expired,
            "dropped": self.dropped,
            "transfer_failed": self.transfer_failed,
            "pending": self.pending,
            "lost": self.lost,
        }


def fleet_of(result: Any) -> Any:
    """The fleet-level result of a fleet or sharded run, else ``None``."""
    fleet = getattr(result, "fleet", result)
    return fleet if hasattr(fleet, "captured_base") else None


def account(result: Any, capture: Capture, patches_per_frame: int) -> Accounting:
    """Classify every attempted patch of one run."""
    outcomes = capture.outcomes
    on_time = sum(1 for o in outcomes if not o.violated)
    shed = sum(len(s.shed) for s in capture.schedulers)
    pending = sum(s.pending_patches for s in capture.schedulers) + sum(
        b.num_patches for s in capture.schedulers for b in s.batches if not b.outcomes
    )
    fleet = fleet_of(result)
    if fleet is not None:
        ingest = fleet.ingest
        return Accounting(
            attempted=fleet.captured_base + fleet.burst_sent,
            frames=fleet.captured_base // patches_per_frame,
            on_time=on_time,
            late=len(outcomes) - on_time,
            shed=shed + ingest.get("shed_degraded", 0),
            expired=ingest.get("expired_stale", 0) + ingest.get("expired_dead", 0),
            dropped=ingest.get("dropped_backpressure", 0),
            transfer_failed=fleet.failed_base + fleet.failed_burst,
            pending=pending + ingest.get("pending", 0),
            errors=fleet.errors,
        )
    return Accounting(
        attempted=result.num_patches,
        frames=result.num_frames,
        on_time=on_time,
        late=len(outcomes) - on_time,
        shed=shed,
        expired=result.expired_at_ingest,
        dropped=result.dropped_transmissions,
        transfer_failed=0,
        pending=pending + sum(u.queue_length for u in capture.uplinks),
        errors=0,
    )


def simulated_metrics(acc: Accounting, capture: Capture, tail_pct: float) -> Dict[str, float]:
    """The end-to-end metrics read from simulated time and billing."""
    latencies = sorted(o.latency for o in capture.outcomes)
    cost = sum(b.cost for b in capture.completed_batches)
    delivered = sum(u.total_bytes for u in capture.uplinks)
    return {
        "slo_attainment": acc.on_time / acc.attempted,
        "patch_latency_p50_s": percentile(latencies, 50.0),
        "patch_latency_tail_s": percentile(latencies, tail_pct),
        "cost_per_frame_uusd": cost * 1e6 / acc.frames,
        "uplink_kb_per_frame": delivered / 1e3 / acc.frames,
    }


def run_checks(
    result: Any, acc: Accounting, capture: Capture, tail_pct: float
) -> Dict[str, bool]:
    """Correctness checks every worker run must pass."""
    fleet = fleet_of(result)
    reported = fleet.completed_patches if fleet is not None else len(result.outcomes)
    completed = len(capture.outcomes)
    billed = sum(b.cost for b in capture.completed_batches)
    charged = sum(p.total_cost for p in capture.platforms)
    return {
        "attempted_some": acc.attempted > 0 and acc.frames > 0,
        # Each attempted patch lands in exactly one terminal bucket and
        # nothing is still queued, in flight or invoked-but-unfinished.
        "conservation": acc.attempted == acc.on_time + acc.late + acc.lost
        and acc.pending == 0,
        "no_errors": acc.errors == 0,
        "captured_every_outcome": completed == reported,
        "billing_matches_platform": math.isclose(billed, charged, rel_tol=1e-9),
        "tail_has_ten_beyond": completed * (1.0 - tail_pct / 100.0) >= 10,
    }
