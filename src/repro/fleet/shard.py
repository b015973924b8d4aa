"""The fleet runner: cameras -> retrying uplinks -> ingest -> N scheduler shards.

:func:`run_sharded_scenario` wires the whole fault-tolerant path together
over the deterministic patch workload of :mod:`repro.workloads.fleet`:

* each camera captures frames on its own phase-shifted grid, heartbeating
  the liveness tracker with every capture (so a dropout window silences
  both frames and heartbeats);
* every patch rides a :class:`~repro.fleet.retry.ReliableSender` over a
  per-camera :class:`~repro.network.link.Uplink` whose loss/jitter dials
  are driven by the :class:`~repro.fleet.faults.FaultPlan`;
* each delivery is routed to the worker that currently owns its camera,
  whose :class:`~repro.fleet.ingest.FleetIngestor` expires dead-camera
  and stale deliveries and hands every other one straight to that
  worker's :class:`~repro.core.scheduler.TangramScheduler`;
* burst fault events inject surplus patches tagged ``"fault:burst"``,
  excluded from the delivered-fraction metric so they only *pressure* the
  pipeline.

One scheduler owns one packing, one deadline heap, one consolidation
engine — state that is deliberately *not* shared, which is what makes
scale-out routing rather than surgery: the camera fleet is partitioned
across ``shards`` independent workers.  ``shards=1`` is the unsharded
fleet, and :func:`~repro.fleet.scenario.run_fleet_scenario` is exactly
that run.

* **Dispatch** is a :mod:`repro.serverless.loadbalancer` policy
  (``"consistent_hash"`` by default — ownership is a pure function of
  the camera id and the shard count; ``"least_loaded"`` balances by
  owned-camera count at registration and by live backlog afterwards).
* **Work stealing**: on a fixed rebalance cadence the router compares
  shard backlogs (each scheduler's queue); when one shard runs hot it
  moves the ownership of up to ``steal_fraction`` of its cameras, in
  camera-id order, to the coldest shard.  Only **future** arrivals move
  — patches already queued on the hot shard's scheduler stay there
  (they are mid-flight state, like a canvas's residents).  Rebalance
  ticks are only scheduled for ``shards > 1``.
* **Faults** compose per camera: the plan drives capture suppression,
  uplink dials, and burst surplus, so shard-targeted chaos is just a
  plan over one shard's camera set (under ``"consistent_hash"`` that set
  is a pure function of the camera ids and the shard count).

Every worker's scheduler is built from the one frozen
:class:`~repro.core.options.SchedulerOptions` record of the base config.
The result exposes every counter the chaos contracts compare: two runs
with the same config and plan produce identical
:meth:`ShardRunResult.counters`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.latency import LatencyEstimator
from repro.core.scheduler import BatchRecord, TangramScheduler
from repro.core.stitching import PatchStitchingSolver
from repro.fleet.faults import FaultFreePlan, FaultPlan
from repro.fleet.ingest import FleetIngestor
from repro.fleet.liveness import LivenessTracker
from repro.fleet.retry import ReliableSender, TransferStats
from repro.fleet.scenario import FleetRunResult, FleetScenarioConfig
from repro.network.encoding import FrameEncoder
from repro.network.link import Uplink
from repro.serverless.loadbalancer import BALANCER_POLICIES, make_balancer
from repro.serverless.platform import ScalingPolicy, ServerlessPlatform
from repro.simulation.engine import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel
from repro.workloads.fleet import (
    BASE_SCENE,
    BURST_SCENE,
    camera_ids,
    capture_schedule,
    make_patch,
)


@dataclass
class ShardScenarioConfig:
    """One sharded fleet run: the single-scheduler config plus routing."""

    #: Everything a single worker needs (workload, uplinks, liveness,
    #: scheduler options).  Every worker's scheduler is built from
    #: ``base.scheduler_options``.
    base: FleetScenarioConfig = field(default_factory=FleetScenarioConfig)
    #: Independent scheduler workers the cameras are partitioned across.
    shards: int = 4
    #: Camera->shard dispatch policy (:data:`~repro.serverless.
    #: loadbalancer.BALANCER_POLICIES`).
    dispatch: str = "consistent_hash"
    #: Work stealing: compare shard backlogs every ``rebalance_interval``
    #: simulated seconds and migrate camera ownership off a hot shard.
    #: Disabled automatically at ``shards=1`` (nothing to steal from).
    steal_enabled: bool = True
    rebalance_interval: float = 0.25
    #: A shard is "hot" when its backlog exceeds ``hot_factor`` times the
    #: mean backlog and leads the coldest shard by ``min_steal_gap``.
    hot_factor: float = 2.0
    min_steal_gap: int = 8
    #: At most this fraction of the hot shard's cameras migrates per
    #: rebalance (the steal quota).
    steal_fraction: float = 0.25

    def __post_init__(self) -> None:
        # NaN and fractional counts pass ``< 1`` and would only fail in
        # ``range()`` mid-run, so they fail here.
        if not isinstance(self.shards, numbers.Integral) or self.shards < 1:
            raise ValueError("shards must be an integer of at least 1")
        if self.dispatch not in BALANCER_POLICIES:
            raise ValueError(
                f"unknown dispatch policy {self.dispatch!r}; "
                f"valid: {BALANCER_POLICIES}"
            )
        # ``not x > 0`` rather than ``x <= 0``, so NaN fails too.
        if not self.rebalance_interval > 0:
            raise ValueError("rebalance_interval must be positive")
        if not self.hot_factor >= 1.0:
            raise ValueError("hot_factor must be at least 1.0")
        if self.min_steal_gap < 1:
            raise ValueError("min_steal_gap must be at least 1")
        if not 0.0 < self.steal_fraction <= 1.0:
            raise ValueError("steal_fraction must be in (0, 1]")


class _CountingFrontend:
    """Scheduler facade that splits admissions by scene key.

    The ingestor admits into this instead of the scheduler directly, so
    the result can separate the base stream from burst-injected surplus
    without threading tags through the scheduler itself.
    """

    def __init__(self, scheduler: TangramScheduler) -> None:
        self.scheduler = scheduler
        self.base = 0
        self.burst = 0

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
    recorded byte-identity pins hash lists of these keys.
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


class ShardWorker:
    """One scheduler worker: its own solver, estimator, scheduler, and
    ingestor, plus the set of cameras it currently owns.

    Shard 0 spawns the random streams ``"estimator"`` / ``"scheduler"``;
    higher shards suffix theirs.  Streams are name-keyed
    (order-independent), so adding shards leaves shard 0's draws as
    they are.
    """

    def __init__(
        self,
        shard_id: int,
        simulator: Simulator,
        platform: ServerlessPlatform,
        latency_model: DetectorLatencyModel,
        streams: RandomStreams,
        config: FleetScenarioConfig,
        liveness: Optional[LivenessTracker],
    ) -> None:
        self.shard_id = shard_id
        suffix = "" if shard_id == 0 else f"/shard-{shard_id}"
        options = config.scheduler_options
        solver = PatchStitchingSolver(
            canvas_width=config.canvas_size,
            canvas_height=config.canvas_size,
        )
        estimator = LatencyEstimator(
            latency_model=latency_model,
            canvas_width=config.canvas_size,
            canvas_height=config.canvas_size,
            iterations=config.estimator_iterations,
            streams=streams.spawn(f"estimator{suffix}"),
        )
        self.scheduler = TangramScheduler(
            simulator,
            platform,
            solver=solver,
            estimator=estimator,
            latency_model=latency_model,
            streams=streams.spawn(f"scheduler{suffix}"),
            options=options,
            record_placements=config.record_placements,
            gpu_memory_gb=config.gpu_memory_gb,
        )
        self.frontend = _CountingFrontend(self.scheduler)
        self.ingestor = FleetIngestor(simulator, self.frontend, liveness=liveness)
        self.cameras: set = set()

    # ------------------------------------------------------------------ load
    @property
    def backlog(self) -> int:
        """Patches in this worker's scheduler queue; the quantity the
        work-stealing planner compares."""
        return self.scheduler.pending_patches

    @property
    def load(self) -> int:
        """Dispatch-time load: live backlog plus owned-camera count (the
        camera count is the proxy for imminent arrivals, and it is what
        spreads registrations when every backlog is still zero)."""
        return self.backlog + len(self.cameras)


class ShardRouter:
    """Camera->shard ownership: sticky dispatch plus work stealing."""

    def __init__(
        self,
        workers: Sequence[ShardWorker],
        dispatch: str = "consistent_hash",
        hot_factor: float = 2.0,
        min_steal_gap: int = 8,
        steal_fraction: float = 0.25,
    ) -> None:
        if not workers:
            raise ValueError("need at least one shard worker")
        self.workers = list(workers)
        self.dispatch = dispatch
        self._balancer = make_balancer(dispatch)
        self.hot_factor = hot_factor
        self.min_steal_gap = min_steal_gap
        self.steal_fraction = steal_fraction
        self._owner: Dict[str, ShardWorker] = {}
        self.counters: Dict[str, int] = {
            "assignments": 0,
            "rebalances": 0,
            "steals_committed": 0,
            "steals_aborted": 0,
            "cameras_moved": 0,
        }

    # ------------------------------------------------------------- ownership
    def assign(self, camera_id: str) -> ShardWorker:
        """Bind a camera to its shard via the dispatch policy (sticky)."""
        worker = self._owner.get(camera_id)
        if worker is None:
            worker = self._balancer.select(self.workers, key=camera_id)
            self._owner[camera_id] = worker
            worker.cameras.add(camera_id)
            self.counters["assignments"] += 1
        return worker

    def owner(self, camera_id: str) -> ShardWorker:
        """The worker currently owning ``camera_id`` (assigns if new)."""
        return self._owner.get(camera_id) or self.assign(camera_id)

    def assignments(self) -> Dict[str, int]:
        """Current camera -> shard-id map (a copy)."""
        return {
            camera_id: worker.shard_id for camera_id, worker in self._owner.items()
        }

    # ---------------------------------------------------------- work stealing
    def rebalance(self) -> int:
        """One work-stealing pass; returns the number of cameras moved.

        When a shard runs hot, the first ``steal_fraction`` of its
        cameras in id order (at least one) move to the coldest shard.
        A hot shard that owns no camera commits nothing.
        """
        self.counters["rebalances"] += 1
        count = len(self.workers)
        if count < 2:
            return 0
        backlogs = [worker.backlog for worker in self.workers]
        mean = sum(backlogs) / count
        hot_index = max(range(count), key=lambda i: (backlogs[i], -i))
        cold_index = min(range(count), key=lambda i: (backlogs[i], i))
        hot, cold = self.workers[hot_index], self.workers[cold_index]
        if (
            hot_index == cold_index
            or backlogs[hot_index] < self.hot_factor * max(1.0, mean)
            or backlogs[hot_index] - backlogs[cold_index] < self.min_steal_gap
        ):
            return 0
        # Only the cameras' *future* arrivals move: their queued patches
        # stay on the hot shard, like a drained canvas's residents.
        candidates = sorted(hot.cameras)
        moved = candidates[: max(1, int(len(candidates) * self.steal_fraction))]
        if not moved:
            self.counters["steals_aborted"] += 1
            return 0
        for camera_id in moved:
            hot.cameras.discard(camera_id)
            cold.cameras.add(camera_id)
            self._owner[camera_id] = cold
        self.counters["steals_committed"] += 1
        self.counters["cameras_moved"] += len(moved)
        return len(moved)


@dataclass
class ShardRunResult:
    """Counters and derived metrics of one sharded fleet run."""

    #: The merged fleet-level result (counters sum across shards;
    #: ``batch_keys`` concatenate in shard order when recorded).
    fleet: FleetRunResult
    shards: int = 1
    dispatch: str = "consistent_hash"
    #: Per-shard admissions, completed batches, and final owned-camera
    #: counts (index = shard id).
    shard_admitted: List[int] = field(default_factory=list)
    shard_batches: List[int] = field(default_factory=list)
    shard_cameras: List[int] = field(default_factory=list)
    #: Per-shard scheduler wall-clock compute (index = shard id).  In
    #: deployment each worker is an independent process, so the sharded
    #: run's scheduling throughput is bounded by the *max*, not the sum
    #: (which is what :attr:`FleetRunResult.scheduler_compute_seconds`
    #: carries).
    shard_compute_seconds: List[float] = field(default_factory=list)
    #: Router counters (assignments / rebalances / steals / moves).
    routing: Dict[str, int] = field(default_factory=dict)
    #: Final camera -> shard-id ownership.
    assignments: Dict[str, int] = field(default_factory=dict)

    @property
    def delivered_fraction(self) -> float:
        return self.fleet.delivered_fraction

    @property
    def slo_violation_rate(self) -> float:
        if self.fleet.completed_patches == 0:
            return 0.0
        return self.fleet.slo_violations / self.fleet.completed_patches

    @property
    def critical_path_seconds(self) -> float:
        """Scheduler compute on the slowest shard -- the deployment's
        scheduling-side critical path."""
        if not self.shard_compute_seconds:
            return 0.0
        return max(self.shard_compute_seconds)

    def counters(self) -> Dict[str, int]:
        """The integer counters two same-seed runs must agree on: the
        merged fleet counters plus the routing/ownership breakdown."""
        flat = self.fleet.counters()
        flat["shard_count"] = self.shards
        for key, value in sorted(self.routing.items()):
            flat[f"shard_{key}"] = value
        for shard_id, admitted in enumerate(self.shard_admitted):
            flat[f"shard{shard_id}_admitted"] = admitted
        for shard_id, count in enumerate(self.shard_cameras):
            flat[f"shard{shard_id}_cameras"] = count
        return flat


def run_sharded_scenario(
    config: Optional[ShardScenarioConfig] = None,
    plan: Optional[FaultPlan] = None,
) -> ShardRunResult:
    """Run one seeded fleet scenario across N scheduler shards.

    All shards share one platform, the per-camera retrying uplinks and
    the capture schedule; deliveries are routed to the owning shard's
    ingestor at delivery time (so a mid-run ownership migration redirects
    retransmissions too).
    """
    config = config or ShardScenarioConfig()
    base = config.base
    active_plan = plan if plan is not None else FaultFreePlan()
    workload = base.workload
    simulator = Simulator()
    streams = RandomStreams(base.seed)
    latency_model = DetectorLatencyModel.serverless()
    platform = ServerlessPlatform(
        simulator,
        scaling=ScalingPolicy(max_instances=base.max_instances),
        cold_start_time=base.cold_start_time,
    )
    liveness = (
        LivenessTracker(
            simulator,
            suspect_after=base.suspect_after_s,
            dead_after=base.dead_after_s,
            reconnect_settle=base.reconnect_settle_s,
        )
        if base.track_liveness
        else None
    )
    workers = [
        ShardWorker(
            shard_id, simulator, platform, latency_model, streams, base, liveness
        )
        for shard_id in range(config.shards)
    ]
    router = ShardRouter(
        workers,
        dispatch=config.dispatch,
        hot_factor=config.hot_factor,
        min_steal_gap=config.min_steal_gap,
        steal_fraction=config.steal_fraction,
    )
    encoder = FrameEncoder()
    result = FleetRunResult(expected_base=workload.total_base_patches)

    cameras = camera_ids(workload)
    senders: Dict[str, ReliableSender] = {}
    for camera_id in cameras:
        uplink = Uplink(
            simulator,
            bandwidth_mbps=base.bandwidth_mbps,
            propagation_delay=base.propagation_delay,
            name=f"uplink/{camera_id}",
            loss_probability=active_plan.loss_dial(camera_id),
            jitter_s=active_plan.jitter_dial(camera_id),
            fault_seed=getattr(active_plan, "seed", 0),
        )
        senders[camera_id] = ReliableSender(simulator, uplink, policy=base.retry)
        if liveness is not None:
            liveness.register(camera_id)
        router.assign(camera_id)

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
            # Ownership is looked up at delivery time, so work stealing
            # redirects retransmissions along with fresh arrivals.
            on_delivered=lambda record: router.owner(
                record.payload.camera_id
            ).ingestor.offer(record.payload),
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

    # Rebalance cadence: only when there is more than one shard (with one
    # shard there is nothing to steal, and no tick events are queued).
    if config.shards > 1 and config.steal_enabled:
        horizon = workload.duration_s + 1.0 / workload.fps + workload.slo
        tick = config.rebalance_interval
        while tick <= horizon:
            simulator.schedule_at(
                tick, lambda _sim: router.rebalance(), name="shard:rebalance"
            )
            tick += config.rebalance_interval

    simulator.run()
    # End of run: one last sweep of the shared tracker, then every
    # scheduler ships what it still holds.
    if liveness is not None:
        liveness.sweep()
    for worker in workers:
        worker.frontend.flush()
    simulator.run()

    # ------------------------------------------------------------ aggregation
    merged_ingest: Dict[str, int] = {}
    efficiencies: List[float] = []
    shard_admitted: List[int] = []
    shard_batches: List[int] = []
    for worker in workers:
        result.admitted_base += worker.frontend.base
        result.admitted_burst += worker.frontend.burst
        shard_admitted.append(worker.ingestor.admitted)
        completed = [b for b in worker.scheduler.batches if b.outcomes]
        shard_batches.append(len(completed))
        result.num_batches += len(completed)
        for batch in completed:
            result.completed_patches += len(batch.outcomes)
            result.slo_violations += sum(1 for o in batch.outcomes if o.violated)
            efficiencies.extend(batch.canvas_efficiencies)
        for key, value in worker.ingestor.stats.items():
            merged_ingest[key] = merged_ingest.get(key, 0) + value
        if base.record_placements:
            result.batch_keys.extend(batch_key(batch) for batch in completed)
    result.num_canvases = len(efficiencies)
    result.mean_canvas_efficiency = (
        sum(efficiencies) / len(efficiencies) if efficiencies else 0.0
    )
    result.ingest = merged_ingest
    compute = [worker.scheduler.compute_seconds for worker in workers]
    result.scheduler_compute_seconds = sum(compute)
    result.transfers = TransferStats().as_dict()
    for sender in senders.values():
        for key, value in sender.stats.as_dict().items():
            result.transfers[key] += value
    if liveness is not None:
        result.liveness_transitions = dict(liveness.transitions)
    result.fault_summary = active_plan.describe()
    result.simulated_duration = simulator.now
    return ShardRunResult(
        fleet=result,
        shards=config.shards,
        dispatch=config.dispatch,
        shard_admitted=shard_admitted,
        shard_batches=shard_batches,
        shard_cameras=[len(worker.cameras) for worker in workers],
        shard_compute_seconds=compute,
        routing=dict(router.counters),
        assignments=router.assignments(),
    )


__all__ = [
    "ShardRouter",
    "ShardRunResult",
    "ShardScenarioConfig",
    "ShardWorker",
    "batch_key",
    "run_sharded_scenario",
]
