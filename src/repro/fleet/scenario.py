"""The fleet scenario: its configuration, its result, and the unsharded run.

A fleet run wires the whole fault-tolerant path together over the
deterministic patch workload of :mod:`repro.workloads.fleet`: cameras
capture on phase-shifted grids and heartbeat the liveness tracker, every
patch rides a retrying per-camera uplink whose loss/jitter dials the
:class:`~repro.fleet.faults.FaultPlan` drives, and deliveries pass a
:class:`~repro.fleet.ingest.FleetIngestor`, which expires dead-camera and
stale deliveries and hands every other one straight to the
:class:`~repro.core.scheduler.TangramScheduler`.  The
one runner that does this wiring is
:func:`~repro.fleet.shard.run_sharded_scenario`;
:func:`run_fleet_scenario` is its ``shards=1`` case -- one scheduler
behind the router.

The result object exposes every counter the chaos contracts compare:
two runs with the same config and plan produce identical
:meth:`FleetRunResult.counters`, and the base-stream
:attr:`~FleetRunResult.delivered_fraction` degrades monotonically in the
plan intensity (see ``tests/chaos/test_fault_matrix.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fleet.faults import FaultPlan
from repro.fleet.retry import RetryPolicy
from repro.workloads.fleet import FleetWorkloadConfig


@dataclass
class FleetScenarioConfig:
    """Everything one fleet run needs besides the fault plan."""

    workload: FleetWorkloadConfig = field(default_factory=FleetWorkloadConfig)
    #: Per-camera uplink bandwidth (the fleet path never shares uplinks).
    bandwidth_mbps: float = 40.0
    propagation_delay: float = 0.005
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Liveness knobs; ``track_liveness=False`` disables the tracker.
    track_liveness: bool = True
    suspect_after_s: float = 0.75
    dead_after_s: float = 2.0
    reconnect_settle_s: float = 0.5
    #: Canvas size, seed, platform and estimator settings of each worker's
    #: scheduler.
    canvas_size: float = 1024.0
    seed: int = 0
    max_instances: int = 32
    cold_start_time: float = 0.05
    estimator_iterations: int = 150
    #: Function GPU memory; raising it (e.g. to 24) lifts the
    #: ``max_canvases`` ship-and-reset cap, which is what lets the
    #: per-scheduler live canvas set -- and hence per-patch probe cost --
    #: grow with fleet size (the regime the sharded bench measures).
    gpu_memory_gb: float = 6.0
    #: Capture per-batch placement tuples for the byte-identity pins
    #: (fills :attr:`FleetRunResult.batch_keys`; off by default).
    record_placements: bool = False


@dataclass
class FleetRunResult:
    """Counters and derived metrics of one fleet run."""

    expected_base: int
    captured_base: int = 0
    suppressed_base: int = 0
    burst_sent: int = 0
    failed_base: int = 0
    failed_burst: int = 0
    admitted_base: int = 0
    admitted_burst: int = 0
    slo_violations: int = 0
    completed_patches: int = 0
    num_batches: int = 0
    #: Canvases invoked across all completed batches, and their mean
    #: efficiency -- the quantities the cross-policy matrix states its
    #: sharded-vs-unsharded contract bounds over.
    num_canvases: int = 0
    mean_canvas_efficiency: float = 0.0
    ingest: Dict[str, int] = field(default_factory=dict)
    transfers: Dict[str, int] = field(default_factory=dict)
    liveness_transitions: Dict[str, int] = field(default_factory=dict)
    fault_summary: Dict[str, object] = field(default_factory=dict)
    #: Simulated time at which the run ended: the firing time of the last
    #: event that fired, the final flush's batches included.  A retry
    #: attempt's timeout is cancelled once the attempt resolves, so no
    #: no-op timeout stretches the run past its last real work.
    simulated_duration: float = 0.0
    errors: int = 0
    #: Run-independent per-batch keys (times, cost, efficiencies,
    #: placements, outcome identities); only populated when the config
    #: asked for ``record_placements`` -- the byte-identity pins hash
    #: these lists.
    batch_keys: List[tuple] = field(default_factory=list)

    # ---------------------------------------------------------------- derived
    @property
    def delivered_base(self) -> int:
        """Base patches the scheduler accepted: every admitted one."""
        return self.admitted_base

    @property
    def delivered_fraction(self) -> float:
        """Fraction of the fault-free base stream delivered in time --
        the "delivered stream efficiency" the monotonicity contract and
        the bench ratio gate are stated over."""
        if self.expected_base == 0:
            return 0.0
        return self.delivered_base / self.expected_base

    @property
    def injected_fault_fraction(self) -> float:
        """Fraction of offered load that faults touched: suppressed
        captures, transfers that exhausted retries, and the burst
        surplus itself."""
        offered = self.expected_base + self.burst_sent
        if offered == 0:
            return 0.0
        injected = (
            self.suppressed_base + self.failed_base + self.failed_burst + self.burst_sent
        )
        return injected / offered

    @property
    def shed_expired_fraction(self) -> float:
        """Fraction of offered load lost *inside* the pipeline: the
        ingest's dead-camera and stale expiry (nothing is shed)."""
        offered = self.expected_base + self.burst_sent
        if offered == 0:
            return 0.0
        lost = self.ingest.get("expired_stale", 0) + self.ingest.get("expired_dead", 0)
        return lost / offered

    def counters(self) -> Dict[str, int]:
        """The integer counters two same-seed runs must agree on."""
        flat = {
            "expected_base": self.expected_base,
            "captured_base": self.captured_base,
            "suppressed_base": self.suppressed_base,
            "burst_sent": self.burst_sent,
            "failed_base": self.failed_base,
            "failed_burst": self.failed_burst,
            "admitted_base": self.admitted_base,
            "admitted_burst": self.admitted_burst,
            "slo_violations": self.slo_violations,
            "completed_patches": self.completed_patches,
            "num_batches": self.num_batches,
            "num_canvases": self.num_canvases,
            "errors": self.errors,
        }
        for key, value in sorted(self.ingest.items()):
            flat[f"ingest_{key}"] = value
        for key, value in sorted(self.transfers.items()):
            flat[f"transfer_{key}"] = value
        for key, value in sorted(self.liveness_transitions.items()):
            flat[f"liveness_{key}"] = value
        return flat


def run_fleet_scenario(
    config: Optional[FleetScenarioConfig] = None,
    plan: Optional[FaultPlan] = None,
) -> FleetRunResult:
    """Run one seeded fleet scenario under an optional fault plan: the
    ``shards=1`` run of :func:`~repro.fleet.shard.run_sharded_scenario`."""
    from repro.fleet.shard import ShardScenarioConfig, run_sharded_scenario

    base = config or FleetScenarioConfig()
    return run_sharded_scenario(ShardScenarioConfig(base=base, shards=1), plan).fleet


__all__: List[str] = [
    "FleetScenarioConfig",
    "FleetRunResult",
    "run_fleet_scenario",
]
