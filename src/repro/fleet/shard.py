"""The fleet runner: cameras -> retrying uplinks -> ingest -> N scheduler shards.

:func:`run_sharded_scenario` wires the whole fault-tolerant path together
over the deterministic patch workload of :mod:`repro.workloads.fleet`:

* each camera captures frames on its own phase-shifted grid, heartbeating
  the liveness tracker with every capture (so a dropout window silences
  both frames and heartbeats);
* every patch rides a :class:`~repro.fleet.retry.ReliableSender` over a
  per-camera :class:`~repro.network.link.Uplink` whose loss/jitter dials
  are driven by the :class:`~repro.fleet.faults.FaultPlan`;
* each delivery goes to the worker its camera registered with, whose
  :class:`~repro.fleet.ingest.FleetIngestor` expires dead-camera and
  stale deliveries and hands every other one straight to that worker's
  :class:`~repro.core.scheduler.TangramScheduler`; the delivery callback
  counts each admission as base stream or burst surplus;
* burst fault events inject surplus patches tagged ``"fault:burst"``,
  excluded from the delivered-fraction metric so they only *pressure* the
  pipeline.

One scheduler owns one packing, one earliest deadline, one consolidation
engine — state that is deliberately *not* shared, which is what makes
scale-out routing rather than surgery: the camera fleet is partitioned
across ``shards`` independent workers.  ``shards=1`` is the unsharded
fleet, and :func:`~repro.fleet.scenario.run_fleet_scenario` is exactly
that run.

* **Dispatch** is round robin: cameras register in
  :func:`~repro.workloads.fleet.camera_ids` order, and the *i*-th goes to
  shard *i* mod N.  Ownership is fixed when a camera registers: nothing
  moves a camera to another shard afterwards.
* **Faults** compose per camera: the plan drives capture suppression,
  uplink dials, and burst surplus, so shard-targeted chaos is just a
  plan over one shard's camera set, ``camera_ids(workload)[k::N]`` for
  shard *k*.

Each worker's stack comes from
:func:`~repro.core.scheduler.build_tangram_scheduler`, the builder the
end-to-end runner uses too, and every deployment value (platform,
uplink propagation, liveness timeouts) is the default of the part built.
The run returns one :class:`~repro.fleet.scenario.FleetRunResult`, whose
counters sum across shards and carry the per-shard breakdown: two runs
with the same config and plan produce identical
:meth:`~repro.fleet.scenario.FleetRunResult.counters`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.patches import Patch
from repro.core.scheduler import BatchRecord, build_tangram_scheduler
from repro.fleet.faults import FaultFreePlan, FaultPlan
from repro.fleet.ingest import FleetIngestor
from repro.fleet.liveness import LivenessTracker
from repro.fleet.retry import ReliableSender, TransferStats
from repro.fleet.scenario import FleetRunResult, FleetScenarioConfig
from repro.network.encoding import FrameEncoder
from repro.network.link import TransmissionRecord, Uplink
from repro.serverless.platform import ServerlessPlatform
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
    """One sharded fleet run: the single-scheduler config plus a shard count."""

    #: Everything the fleet run varies besides the shard count (workload,
    #: uplink bandwidth, retries, liveness, estimator and memory settings).
    base: FleetScenarioConfig = field(default_factory=FleetScenarioConfig)
    #: Independent scheduler workers the cameras are partitioned across.
    shards: int = 4

    def __post_init__(self) -> None:
        # NaN and fractional counts pass ``< 1`` and would only fail in
        # ``range()`` mid-run, so they fail here.
        if not isinstance(self.shards, numbers.Integral) or self.shards < 1:
            raise ValueError("shards must be an integer of at least 1")


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
        self.scheduler = build_tangram_scheduler(
            simulator,
            platform,
            latency_model,
            streams,
            iterations=config.estimator_iterations,
            suffix="" if shard_id == 0 else f"/shard-{shard_id}",
            gpu_memory_gb=config.gpu_memory_gb,
            record_placements=config.record_placements,
        )
        self.ingestor = FleetIngestor(simulator, self.scheduler, liveness=liveness)
        self.cameras: set = set()


class ShardRouter:
    """Camera->shard ownership, dealt round robin and fixed when a camera
    registers."""

    def __init__(self, workers: Sequence[ShardWorker]) -> None:
        if not workers:
            raise ValueError("need at least one shard worker")
        self.workers = list(workers)
        self._owner: Dict[str, ShardWorker] = {}

    def assign(self, camera_id: str) -> ShardWorker:
        """The camera's worker: on the first call, the camera is the
        *i*-th to register and gets worker *i* mod N; every later call
        returns the same worker."""
        worker = self._owner.get(camera_id)
        if worker is None:
            worker = self.workers[len(self._owner) % len(self.workers)]
            self._owner[camera_id] = worker
            worker.cameras.add(camera_id)
        return worker

    def assignments(self) -> Dict[str, int]:
        """Current camera -> shard-id map (a copy)."""
        return {
            camera_id: worker.shard_id for camera_id, worker in self._owner.items()
        }

    def rebalance(self) -> int:
        """Moves nothing and returns 0: ownership is fixed at registration.

        Nothing calls it.  Kept because the end-to-end benchmark's tracer
        (``benchmarks/e2e/tracing.py``) wraps it; it goes with that
        benchmark's next revision.
        """
        return 0


def run_sharded_scenario(
    config: Optional[ShardScenarioConfig] = None,
    plan: Optional[FaultPlan] = None,
) -> FleetRunResult:
    """Run one seeded fleet scenario across N scheduler shards.

    All shards share one platform, the per-camera retrying uplinks and
    the capture schedule.  Each camera registers with one shard, and its
    deliveries, retransmissions included, go to that shard's ingestor.
    """
    config = config or ShardScenarioConfig()
    base = config.base
    active_plan = plan if plan is not None else FaultFreePlan()
    workload = base.workload
    simulator = Simulator()
    streams = RandomStreams(base.seed)
    latency_model = DetectorLatencyModel.serverless()
    platform = ServerlessPlatform(simulator)
    liveness = LivenessTracker(simulator) if base.track_liveness else None
    workers = [
        ShardWorker(
            shard_id, simulator, platform, latency_model, streams, base, liveness
        )
        for shard_id in range(config.shards)
    ]
    router = ShardRouter(workers)
    encoder = FrameEncoder()
    result = FleetRunResult(expected_base=workload.total_base_patches, shards=config.shards)

    cameras = camera_ids(workload)
    senders: Dict[str, ReliableSender] = {}
    offers: Dict[str, Callable[[Patch], str]] = {}
    for camera_id in cameras:
        uplink = Uplink(
            simulator,
            bandwidth_mbps=base.bandwidth_mbps,
            name=f"uplink/{camera_id}",
            loss_probability=active_plan.loss_dial(camera_id),
            jitter_s=active_plan.jitter_dial(camera_id),
            fault_seed=active_plan.seed,
        )
        senders[camera_id] = ReliableSender(simulator, uplink, policy=base.retry)
        if liveness is not None:
            liveness.register(camera_id)
        offers[camera_id] = router.assign(camera_id).ingestor.offer

    def deliver(record: TransmissionRecord) -> None:
        patch = record.payload
        if offers[patch.camera_id](patch) == "admitted":
            if patch.scene_key == BURST_SCENE:
                result.admitted_burst += 1
            else:
                result.admitted_base += 1

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
            on_delivered=deliver,
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
    # End of run: one last sweep of the shared tracker, then every
    # scheduler ships what it still holds.
    if liveness is not None:
        liveness.sweep()
    for worker in workers:
        worker.scheduler.flush()
    simulator.run()

    # ------------------------------------------------------------ aggregation
    merged_ingest: Dict[str, int] = {}
    efficiencies: List[float] = []
    for worker in workers:
        result.shard_admitted.append(worker.ingestor.admitted)
        result.shard_cameras.append(len(worker.cameras))
        completed = [b for b in worker.scheduler.batches if b.outcomes]
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
    result.transfers = TransferStats().as_dict()
    for sender in senders.values():
        for key, value in sender.stats.as_dict().items():
            result.transfers[key] += value
    if liveness is not None:
        result.liveness_transitions = dict(liveness.transitions)
    result.fault_summary = active_plan.describe()
    result.simulated_duration = simulator.now
    result.assignments = router.assignments()
    return result


__all__ = [
    "ShardRouter",
    "ShardScenarioConfig",
    "ShardWorker",
    "batch_key",
    "run_sharded_scenario",
]
