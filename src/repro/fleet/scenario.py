"""End-to-end fleet scenario: cameras -> retrying uplinks -> ingest -> scheduler.

:func:`run_fleet_scenario` wires the whole fault-tolerant path together
over the deterministic patch workload of :mod:`repro.workloads.fleet`:

* each camera captures frames on its own phase-shifted grid, heartbeating
  the liveness tracker with every capture (so a dropout window silences
  both frames and heartbeats);
* every patch rides a :class:`~repro.fleet.retry.ReliableSender` over a
  per-camera :class:`~repro.network.link.Uplink` whose loss/jitter dials
  are driven by the :class:`~repro.fleet.faults.FaultPlan`;
* deliveries land in the :class:`~repro.fleet.ingest.FleetIngestor`,
  which expires stale patches, bounds per-camera backlog, and feeds the
  :class:`~repro.core.scheduler.TangramScheduler` in deadline order;
* burst fault events inject surplus patches tagged ``"fault:burst"``,
  excluded from the delivered-fraction metric so they only *pressure* the
  pipeline.

The result object exposes every counter the chaos contracts compare:
two runs with the same config and plan produce identical
:meth:`FleetRunResult.counters`, and the base-stream
:attr:`~FleetRunResult.delivered_fraction` degrades monotonically in the
plan intensity (see ``tests/chaos/test_fault_matrix.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.latency import LatencyEstimator
from repro.core.options import SchedulerOptions
from repro.core.scheduler import BatchRecord, TangramScheduler
from repro.core.stitching import PatchStitchingSolver
from repro.fleet.faults import FaultFreePlan, FaultPlan
from repro.fleet.ingest import FleetIngestor
from repro.fleet.liveness import LivenessTracker
from repro.fleet.retry import ReliableSender, RetryPolicy, TransferStats
from repro.network.encoding import FrameEncoder
from repro.network.link import Uplink
from repro.serverless.platform import ScalingPolicy, ServerlessPlatform
from repro.simulation.engine import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel
from repro.workloads.fleet import (
    BASE_SCENE,
    BURST_SCENE,
    FleetWorkloadConfig,
    camera_ids,
    capture_schedule,
    make_patch,
)


@dataclass
class FleetScenarioConfig:
    """Everything one fleet run needs besides the fault plan."""

    workload: FleetWorkloadConfig = field(default_factory=FleetWorkloadConfig)
    #: Per-camera uplink bandwidth (the fleet path never shares uplinks).
    bandwidth_mbps: float = 40.0
    propagation_delay: float = 0.005
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Ingest knobs (see :class:`repro.fleet.ingest.FleetIngestor`).
    queue_capacity: int = 64
    high_watermark: Optional[int] = None
    low_watermark: Optional[int] = None
    drain_interval: float = 0.05
    #: Liveness knobs; ``track_liveness=False`` disables the tracker.
    track_liveness: bool = True
    suspect_after_s: float = 0.75
    dead_after_s: float = 2.0
    reconnect_settle_s: float = 0.5
    #: Scheduler knobs (subset of :class:`repro.core.tangram.TangramConfig`).
    canvas_size: float = 1024.0
    repack_scope: str = "canvas"
    admission_watermark: Optional[int] = None
    seed: int = 0
    max_instances: int = 32
    cold_start_time: float = 0.05
    estimator_iterations: int = 150
    #: Function GPU memory; raising it (e.g. to 24) lifts the
    #: ``max_canvases`` ship-and-reset cap, which is what lets the
    #: per-scheduler live canvas set -- and hence per-patch probe cost --
    #: grow with fleet size (the regime the sharded bench measures).
    gpu_memory_gb: float = 6.0
    #: One :class:`~repro.core.options.SchedulerOptions` for the
    #: scheduler; when set it wins wholesale over the per-knob fields
    #: above (``repack_scope`` / ``admission_watermark``), and it is the
    #: record the sharded frontend clones per worker.
    scheduler_options: Optional[SchedulerOptions] = None
    #: Capture per-batch placement tuples for the byte-identity pins
    #: (fills :attr:`FleetRunResult.batch_keys`; off by default).
    record_placements: bool = False

    def resolved_scheduler_options(self) -> SchedulerOptions:
        """The options record the run's scheduler(s) are built from."""
        if self.scheduler_options is not None:
            return self.scheduler_options
        return SchedulerOptions(
            repack_scope=self.repack_scope,
            admission_watermark=self.admission_watermark,
        )


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
    shed_scheduler_base: int = 0
    shed_scheduler_burst: int = 0
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
    simulated_duration: float = 0.0
    #: Wall-clock seconds the scheduler(s) spent inside their own entry
    #: points (see :attr:`repro.core.scheduler.BaseScheduler.
    #: compute_seconds`); summed across workers in the sharded path.
    scheduler_compute_seconds: float = 0.0
    errors: int = 0
    #: Run-independent per-batch keys (times, cost, efficiencies,
    #: placements, outcome identities); only populated when the config
    #: asked for ``record_placements`` -- the sharded frontend's
    #: ``shards=1`` pin compares these lists byte-for-byte.
    batch_keys: List[tuple] = field(default_factory=list)

    # ---------------------------------------------------------------- derived
    @property
    def delivered_base(self) -> int:
        """Base patches the scheduler actually accepted (post-shedding)."""
        return self.admitted_base - self.shed_scheduler_base

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
        """Fraction of offered load lost *inside* the pipeline (ingest
        drops/expiry plus watermark shedding at either layer)."""
        offered = self.expected_base + self.burst_sent
        if offered == 0:
            return 0.0
        lost = (
            self.ingest.get("dropped_backpressure", 0)
            + self.ingest.get("expired_stale", 0)
            + self.ingest.get("expired_dead", 0)
            + self.ingest.get("shed_degraded", 0)
            + self.shed_scheduler_base
            + self.shed_scheduler_burst
        )
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
            "shed_scheduler_base": self.shed_scheduler_base,
            "shed_scheduler_burst": self.shed_scheduler_burst,
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


class _CountingFrontend:
    """Scheduler facade that splits admissions by scene key.

    The ingestor drains into this instead of the scheduler directly, so
    the result can separate the base stream from burst-injected surplus
    without threading tags through the scheduler itself.
    """

    def __init__(self, scheduler: TangramScheduler) -> None:
        self.scheduler = scheduler
        self.base = 0
        self.burst = 0

    @property
    def estimator(self) -> LatencyEstimator:
        return self.scheduler.estimator

    @property
    def pending_patches(self) -> int:
        return self.scheduler.pending_patches

    def receive_patch(self, patch) -> None:
        if patch.scene_key == BURST_SCENE:
            self.burst += 1
        else:
            self.base += 1
        self.scheduler.receive_patch(patch)

    def flush(self) -> None:
        self.scheduler.flush()


def batch_key(batch: BatchRecord) -> tuple:
    """A run-independent identity for one completed batch.

    ``patch_id`` is a process-global counter, so two separate runs of the
    same scenario number their patches differently; outcome identities
    are keyed by ``(camera, frame, scene, width, height)`` instead, which
    is unique per patch slot of the deterministic fleet workload.  The
    ``shards=1`` byte-identity pin compares lists of these keys.
    """
    return (
        batch.invoke_time,
        batch.completion_time,
        batch.execution_time,
        batch.cost,
        tuple(batch.canvas_efficiencies),
        batch.placements,
        tuple(
            (
                o.patch.camera_id,
                o.patch.frame_index,
                o.patch.scene_key,
                o.patch.region.width,
                o.patch.region.height,
                o.completion_time,
            )
            for o in batch.outcomes
        ),
    )


def run_fleet_scenario(
    config: Optional[FleetScenarioConfig] = None,
    plan: Optional[FaultPlan] = None,
) -> FleetRunResult:
    """Run one seeded fleet scenario under an optional fault plan."""
    config = config or FleetScenarioConfig()
    active_plan = plan if plan is not None else FaultFreePlan()
    workload = config.workload
    simulator = Simulator()
    streams = RandomStreams(config.seed)
    latency_model = DetectorLatencyModel.serverless()
    platform = ServerlessPlatform(
        simulator,
        scaling=ScalingPolicy(max_instances=config.max_instances),
        cold_start_time=config.cold_start_time,
    )
    options = config.resolved_scheduler_options()
    solver = PatchStitchingSolver(
        canvas_width=config.canvas_size,
        canvas_height=config.canvas_size,
        canvas_structure=options.canvas_structure,
    )
    estimator = LatencyEstimator(
        latency_model=latency_model,
        canvas_width=config.canvas_size,
        canvas_height=config.canvas_size,
        iterations=config.estimator_iterations,
        streams=streams.spawn("estimator"),
    )
    scheduler = TangramScheduler(
        simulator,
        platform,
        solver=solver,
        estimator=estimator,
        latency_model=latency_model,
        streams=streams.spawn("scheduler"),
        options=options,
        record_placements=config.record_placements,
        gpu_memory_gb=config.gpu_memory_gb,
    )
    frontend = _CountingFrontend(scheduler)
    liveness = (
        LivenessTracker(
            simulator,
            suspect_after=config.suspect_after_s,
            dead_after=config.dead_after_s,
            reconnect_settle=config.reconnect_settle_s,
        )
        if config.track_liveness
        else None
    )
    ingestor = FleetIngestor(
        simulator,
        frontend,
        queue_capacity=config.queue_capacity,
        high_watermark=config.high_watermark,
        low_watermark=config.low_watermark,
        liveness=liveness,
        drain_interval=config.drain_interval,
    )
    encoder = FrameEncoder()
    result = FleetRunResult(expected_base=workload.total_base_patches)

    cameras = camera_ids(workload)
    senders: Dict[str, ReliableSender] = {}
    for camera_id in cameras:
        uplink = Uplink(
            simulator,
            bandwidth_mbps=config.bandwidth_mbps,
            propagation_delay=config.propagation_delay,
            name=f"uplink/{camera_id}",
            loss_probability=active_plan.loss_dial(camera_id),
            jitter_s=active_plan.jitter_dial(camera_id),
            fault_seed=getattr(active_plan, "seed", 0),
        )
        senders[camera_id] = ReliableSender(simulator, uplink, policy=config.retry)
        if liveness is not None:
            liveness.register(camera_id)

    def transmit(camera_id: str, frame_index: int, slot: int, scene_key: str) -> None:
        patch = make_patch(
            workload,
            camera_id,
            frame_index,
            slot,
            generation_time=simulator.now,
            scene_key=scene_key,
        )
        is_burst = scene_key == BURST_SCENE
        if is_burst:
            result.burst_sent += 1
        else:
            result.captured_base += 1

        def failed(reason: str, is_burst: bool = is_burst) -> None:
            if is_burst:
                result.failed_burst += 1
            else:
                result.failed_base += 1

        senders[camera_id].send(
            encoder.patch_bytes(patch.region),
            payload=patch,
            key=(camera_id, frame_index, slot),
            deadline=patch.deadline,
            on_delivered=lambda record: ingestor.offer(record.payload),
            on_failed=failed,
        )

    per_frame = workload.patches_per_frame
    for camera_id, frame_index, when in capture_schedule(workload):

        def on_capture(
            _sim: Simulator,
            camera_id: str = camera_id,
            frame_index: int = frame_index,
        ) -> None:
            now = simulator.now
            if active_plan.camera_down(camera_id, now):
                result.suppressed_base += per_frame
                return
            if liveness is not None:
                liveness.heartbeat(camera_id)
            for slot in range(per_frame):
                transmit(camera_id, frame_index, slot, BASE_SCENE)
            multiplier = active_plan.burst_multiplier(now)
            extra = int(round(per_frame * (multiplier - 1.0)))
            for offset in range(extra):
                transmit(camera_id, frame_index, per_frame + offset, BURST_SCENE)

        simulator.schedule_at(when, on_capture, name=f"{camera_id}:capture")

    simulator.run()
    ingestor.flush(force=True)
    frontend.flush()
    simulator.run()

    result.admitted_base = frontend.base
    result.admitted_burst = frontend.burst
    for patch in scheduler.shed:
        if patch.scene_key == BURST_SCENE:
            result.shed_scheduler_burst += 1
        else:
            result.shed_scheduler_base += 1
    outcomes = [o for batch in scheduler.batches for o in batch.outcomes]
    result.completed_patches = len(outcomes)
    result.slo_violations = sum(1 for o in outcomes if o.violated)
    result.num_batches = sum(1 for batch in scheduler.batches if batch.outcomes)
    efficiencies = [
        eff
        for batch in scheduler.batches
        if batch.outcomes
        for eff in batch.canvas_efficiencies
    ]
    result.num_canvases = len(efficiencies)
    result.mean_canvas_efficiency = (
        sum(efficiencies) / len(efficiencies) if efficiencies else 0.0
    )
    result.ingest = dict(ingestor.stats)
    merged = TransferStats()
    for sender in senders.values():
        stats = sender.stats
        merged.transfers += stats.transfers
        merged.attempts += stats.attempts
        merged.delivered += stats.delivered
        merged.failed += stats.failed
        merged.retries += stats.retries
        merged.timeouts += stats.timeouts
        merged.gave_up_deadline += stats.gave_up_deadline
    result.transfers = merged.as_dict()
    if liveness is not None:
        result.liveness_transitions = dict(liveness.transitions)
    result.fault_summary = active_plan.describe()
    result.simulated_duration = simulator.now
    result.scheduler_compute_seconds = scheduler.compute_seconds
    if config.record_placements:
        result.batch_keys = [
            batch_key(batch) for batch in scheduler.batches if batch.outcomes
        ]
    return result


def fleet_scenario_counters(
    config: Optional[FleetScenarioConfig] = None,
    plan: Optional[FaultPlan] = None,
) -> Dict[str, int]:
    """Convenience for determinism checks: run and return the counters."""
    return run_fleet_scenario(config, plan).counters()


__all__: List[str] = [
    "FleetScenarioConfig",
    "FleetRunResult",
    "batch_key",
    "run_fleet_scenario",
    "fleet_scenario_counters",
]
