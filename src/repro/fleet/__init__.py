"""Fault-tolerant fleet ingestion in front of the Tangram scheduler.

The paper's end-to-end story assumes cameras that never disconnect and
uplinks that never drop a byte.  This package is the robustness layer a
real fleet needs between frame capture and ``TangramScheduler``:

* :mod:`repro.fleet.ingest` -- the admission filter: it sweeps liveness,
  expires deliveries from dead cameras and stale ones before the packer
  sees them, and hands every other delivery straight to the scheduler;
* :mod:`repro.fleet.liveness` -- heartbeat liveness with the
  alive/suspect/dead/reconnecting state machine;
* :mod:`repro.fleet.retry` -- exponential backoff + jitter retransmission
  over the lossy uplink mode of :mod:`repro.network.link`;
* :mod:`repro.fleet.faults` -- seeded, deterministic fault plans
  (dropout, loss, jitter, burst) whose windows nest as intensity rises;
* :mod:`repro.fleet.scenario` -- the fleet run's config and its one
  fully-counted result type, and :func:`run_fleet_scenario`, the
  unsharded run;
* :mod:`repro.fleet.shard` -- the one fleet runner, which wires all of
  the above together: the cameras dealt round robin across N independent
  scheduler workers, each camera's owner fixed when it registers, and
  each worker's stack built by
  :func:`~repro.core.scheduler.build_tangram_scheduler`, as the
  end-to-end runner builds its own.  :func:`run_fleet_scenario` is its
  ``shards=1`` run, and both return a :class:`FleetRunResult`.
"""

from repro.fleet.faults import FaultEvent, FaultFreePlan, FaultPlan
from repro.fleet.ingest import FleetIngestor
from repro.fleet.liveness import (
    ALIVE,
    DEAD,
    LIVENESS_STATES,
    RECONNECTING,
    SUSPECT,
    LivenessTracker,
)
from repro.fleet.retry import ReliableSender, RetryPolicy, TransferStats
from repro.fleet.scenario import (
    FleetRunResult,
    FleetScenarioConfig,
    run_fleet_scenario,
)
from repro.fleet.shard import (
    ShardRouter,
    ShardScenarioConfig,
    ShardWorker,
    run_sharded_scenario,
)
from repro.workloads.fleet import FleetWorkloadConfig, camera_ids

__all__ = [
    "ALIVE",
    "DEAD",
    "LIVENESS_STATES",
    "RECONNECTING",
    "SUSPECT",
    "FaultEvent",
    "FaultFreePlan",
    "FaultPlan",
    "FleetIngestor",
    "FleetRunResult",
    "FleetScenarioConfig",
    "FleetWorkloadConfig",
    "LivenessTracker",
    "ShardRouter",
    "ShardScenarioConfig",
    "ShardWorker",
    "camera_ids",
    "ReliableSender",
    "RetryPolicy",
    "TransferStats",
    "run_fleet_scenario",
    "run_sharded_scenario",
]
