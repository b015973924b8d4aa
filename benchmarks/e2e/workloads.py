"""The benchmark workloads: runner inputs built from a seed.

Every workload calls one public runner (``run_end_to_end``,
``run_fleet_scenario`` or ``run_sharded_scenario``) with the runner's
default scheduler options.  The seed builds the runner's *inputs* -- the
camera traces, or the :class:`~repro.workloads.fleet.FleetWorkloadConfig`
and its :class:`~repro.fleet.faults.FaultPlan` -- and nothing else; the
deployment settings around them (uplink, function size, liveness) are
fixed per workload.  ``quick`` sizes shrink every workload for the smoke
test.

The load model is open loop in simulated time: cameras capture on a fixed
grid whatever the scheduler does, and every latency is timed from capture.
The simulation replays as fast as it can, so the generator is never late
and wall time measures work done per second at the stated input size.

This module imports ``repro`` only inside the functions, so the parent
process can list workloads without paying for (or needing) the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple


@dataclass(frozen=True)
class Size:
    """How big one run of a workload is."""

    cameras: int
    #: Frames per camera (``paper_e2e``) or simulated capture seconds.
    length: float
    #: Percentile reported as the latency tail: the highest of 99.9/99/90
    #: that leaves at least ten samples beyond it at this size.
    tail_pct: float


@dataclass(frozen=True)
class Workload:
    name: str
    full: Size
    quick: Size
    #: ``(seed, size) -> inputs`` and ``inputs -> runner result``.
    build: Callable[[int, Size], Any]
    run: Callable[[Any], Any]

    def size(self, quick: bool) -> Size:
        return self.quick if quick else self.full


# ------------------------------------------------------------------ paper_e2e
#: Objects simulated at once per scene.  The RoI extractor merges
#: overlapping boxes on a random fifth of frames at a cost cubic in the box
#: count.  At the scene generator's default cap of 200 those merges take
#: ~70% of a run and the seed-to-seed spread of their count moves wall time
#: by +-15%; at 100 they take ~30% and edge work still holds ~88% of the run.
OBJECT_CAP = 100


def _paper_inputs(seed: int, size: Size) -> Dict[str, list]:
    from repro.workloads import build_camera_traces

    return build_camera_traces(
        num_cameras=size.cameras,
        frames_per_camera=int(size.length),
        seed=seed,
        max_concurrent_objects=OBJECT_CAP,
    )


def _paper_run(traces: Dict[str, list]) -> Any:
    from repro.pipeline.endtoend import EndToEndConfig, run_end_to_end

    return run_end_to_end(EndToEndConfig(), traces)


# -------------------------------------------------------------------- fleets
def _churn_inputs(seed: int, size: Size) -> Tuple[Any, Any]:
    from repro.fleet import FaultPlan, FleetScenarioConfig, FleetWorkloadConfig, camera_ids

    workload = FleetWorkloadConfig(
        num_cameras=size.cameras,
        fps=4.0,
        duration_s=size.length,
        patches_per_frame=2,
        slo=1.0,
        seed=seed,
    )
    plan = FaultPlan.generate(
        seed=seed,
        camera_ids=camera_ids(workload),
        duration=workload.duration_s,
        dropout_fraction=0.1,
        # Longer than the tracker's 2 s dead_after, so dropped cameras
        # walk the whole alive -> suspect -> dead -> reconnecting cycle.
        dropout_duration=min(3.0, workload.duration_s),
        loss_probability=0.02,
        burst_count=2,
        burst_multiplier=2.0,
    )
    return FleetScenarioConfig(workload=workload), plan


def _deep_config(seed: int, size: Size) -> Any:
    from repro.fleet import FleetScenarioConfig, FleetWorkloadConfig

    workload = FleetWorkloadConfig(
        num_cameras=size.cameras,
        fps=4.0,
        duration_s=size.length,
        patches_per_frame=2,
        slo=2.0,
        seed=seed,
        min_patch=64.0,
        max_patch=640.0,
    )
    # A 24 GB function holds 61 canvases per batch, so the live packing --
    # and with it the probe and consolidation cost per patch -- grows deep.
    return FleetScenarioConfig(workload=workload, gpu_memory_gb=24.0, track_liveness=False)


def _deep_inputs(seed: int, size: Size) -> Tuple[Any, Any]:
    from repro.fleet import FaultFreePlan

    # No bursts: two 2x bursts tip this configuration over a cliff where
    # 0-35% of patches miss, depending only on where the seed puts them.
    return _deep_config(seed, size), FaultFreePlan(seed=seed)


def _fleet_run(inputs: Tuple[Any, Any]) -> Any:
    from repro.fleet import run_fleet_scenario

    config, plan = inputs
    return run_fleet_scenario(config, plan)


def _sharded_run(inputs: Tuple[Any, Any]) -> Any:
    from repro.fleet import ShardScenarioConfig, run_sharded_scenario

    config, plan = inputs
    return run_sharded_scenario(ShardScenarioConfig(base=config, shards=4), plan)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper_e2e",
            full=Size(cameras=8, length=40, tail_pct=99.0),
            quick=Size(cameras=2, length=6, tail_pct=90.0),
            build=_paper_inputs,
            run=_paper_run,
        ),
        Workload(
            name="fleet_churn",
            full=Size(cameras=256, length=4.0, tail_pct=99.0),
            quick=Size(cameras=16, length=1.0, tail_pct=90.0),
            build=_churn_inputs,
            run=_fleet_run,
        ),
        Workload(
            name="fleet_deep",
            full=Size(cameras=256, length=4.0, tail_pct=99.0),
            quick=Size(cameras=16, length=1.0, tail_pct=90.0),
            build=_deep_inputs,
            run=_fleet_run,
        ),
        Workload(
            name="fleet_sharded",
            full=Size(cameras=256, length=4.0, tail_pct=99.0),
            quick=Size(cameras=16, length=1.0, tail_pct=90.0),
            build=_deep_inputs,
            run=_sharded_run,
        ),
    )
}
