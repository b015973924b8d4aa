"""Timed sections of the performance harness.

Every section is a pure function returning wall-clock seconds for one run
of a fixed, seeded workload; :func:`run_all` takes the best of ``repeats``
runs (minimum, the standard way to suppress scheduler noise) and derives
the headline speedup figures.  The workloads are deliberately identical
across PRs — change them only together with ``--update-baseline``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

#: The committed baseline every ``--check`` run compares against.
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_perf.json"

SCHEMA_VERSION = 2

#: Queue depth of the scheduler arrival microbenchmark (the acceptance
#: criterion's ">= 5x at queue depth 256").
ARRIVAL_QUEUE_DEPTH = 256

#: Sections cheap enough for the ``--quick`` tier-1 smoke gate (see
#: ``tests/test_perf_smoke.py``): the 256-depth workloads, the edge stage
#: of one 4K camera, the small end-to-end run, and one batch pack of the
#: 4096-patch fleet queue (the cost unit of one full re-pack); the
#: deep-queue arrival and fleet scenarios are full-run only.
QUICK_SECTIONS = [
    "stitching_batch_pack_256",
    "stitching_incremental_256",
    "validate_packing_1024",
    "scheduler_arrival_full_256",
    "scheduler_arrival_fast_256",
    "stitching_fleet_repack_skyline_4096",
    "edge_extract_partition_40",
    "end_to_end_small",
]


@dataclass
class BenchResult:
    """Timing of one section."""

    name: str
    seconds: float
    meta: Dict[str, object] = field(default_factory=dict)


# --------------------------------------------------------------------- setup
def _make_patches(count: int, seed: int, lo: float = 64.0, hi: float = 640.0):
    from repro.core.patches import Patch
    from repro.video.geometry import Box

    rng = np.random.default_rng(seed)
    widths = rng.uniform(lo, hi, size=count)
    heights = rng.uniform(lo, hi, size=count)
    return [
        Patch(
            camera_id="bench",
            frame_index=index,
            region=Box(0.0, 0.0, float(w), float(h)),
            generation_time=0.0,
            slo=1e9,
        )
        for index, (w, h) in enumerate(zip(widths, heights))
    ]


def _make_heavytail_patches(count: int, seed: int):
    """A heavy-tailed (lognormal) patch-size mix: mostly small crops with
    occasional near-canvas-size giants — the fleet distribution a few
    crowded cameras plus many quiet ones produce."""
    from repro.core.patches import Patch
    from repro.video.geometry import Box

    rng = np.random.default_rng(seed)
    widths = np.clip(rng.lognormal(mean=4.8, sigma=0.8, size=count), 32.0, 1000.0)
    heights = np.clip(rng.lognormal(mean=4.8, sigma=0.8, size=count), 32.0, 1000.0)
    return [
        Patch(
            camera_id="bench",
            frame_index=index,
            region=Box(0.0, 0.0, float(w), float(h)),
            generation_time=0.0,
            slo=1e9,
        )
        for index, (w, h) in enumerate(zip(widths, heights))
    ]


def _make_crowded_patches(count: int, seed: int):
    """The crowded-fleet mix: 30% wide-flat RoIs (560-700 x 360-480 —
    exactly two stack per canvas, so a victim pool of flat-pair canvases
    can never consolidate), 60% near-canvas giants (800-1020 square —
    they overflow on arrival but their singleton canvases are efficient
    enough to stay out of the victim set), and 10% small crops (they
    land in victims' gaps, churning the pools).  The regime of sustained
    wasteful overflows whose trial re-packs keep failing on
    slowly-changing victim pools — the worst case the consolidation
    subsystem exists for."""
    from repro.core.patches import Patch
    from repro.video.geometry import Box

    rng = np.random.default_rng(seed)
    kind = rng.random(count)
    widths = np.where(
        kind < 0.3,
        rng.uniform(560.0, 700.0, count),
        np.where(
            kind < 0.4,
            rng.uniform(64.0, 200.0, count),
            rng.uniform(800.0, 1020.0, count),
        ),
    )
    heights = np.where(
        kind < 0.3,
        rng.uniform(360.0, 480.0, count),
        np.where(
            kind < 0.4,
            rng.uniform(64.0, 200.0, count),
            rng.uniform(800.0, 1020.0, count),
        ),
    )
    return [
        Patch(
            camera_id="bench",
            frame_index=index,
            region=Box(0.0, 0.0, float(w), float(h)),
            generation_time=0.0,
            slo=1e9,
        )
        for index, (w, h) in enumerate(zip(widths, heights))
    ]


def _make_timed_trace(count: int, seed: int, slo: float = 2.0, spacing: float = 0.008):
    """Patches with increasing generation times and a realistic SLO, so a
    scheduler run flushes its queue the way production traffic does.  The
    default arrival rate and SLO hold roughly 100 patches in flight, deep
    enough that fast-path runs exercise genuine victim consolidation
    (not just the small-queue whole-queue re-pack)."""
    from repro.core.patches import Patch
    from repro.video.geometry import Box

    rng = np.random.default_rng(seed)
    widths = rng.integers(80, 640, size=count)
    heights = rng.integers(80, 640, size=count)
    gen_times = np.sort(rng.uniform(0.0, count * spacing, size=count))
    return [
        Patch(
            camera_id="bench",
            frame_index=index,
            region=Box(0.0, 0.0, float(w), float(h)),
            generation_time=float(t),
            slo=slo,
        )
        for index, (w, h, t) in enumerate(zip(widths, heights, gen_times))
    ]


def _build_scheduler(literal: bool = False, unconstrained: bool = True, **scheduler_kwargs):
    """A scheduler on its production stitcher or, with ``literal=True``,
    on the always-re-pack oracle of ``tests/oracles.py``, which makes the
    literal Algorithm 2's decisions (a full re-pack per arrival);
    ``scheduler_kwargs`` are constructor arguments such as
    ``gpu_memory_gb``."""
    from repro.core.latency import LatencyEstimator
    from repro.core.scheduler import TangramScheduler
    from repro.serverless.platform import ServerlessPlatform
    from repro.simulation.engine import Simulator
    from repro.simulation.random_streams import RandomStreams
    from repro.vision.detector import DetectorLatencyModel

    simulator = Simulator()
    platform = ServerlessPlatform(simulator, cold_start_time=0.0)
    latency_model = DetectorLatencyModel.serverless()
    estimator = LatencyEstimator(
        latency_model=latency_model, iterations=50, streams=RandomStreams(5)
    )
    if unconstrained:
        # A deep queue needs room: patches use a huge SLO and the memory
        # constraint is lifted so no invocation happens mid-benchmark.
        scheduler_kwargs.setdefault("gpu_memory_gb", 1e6)
    scheduler = TangramScheduler(
        simulator,
        platform,
        estimator=estimator,
        latency_model=latency_model,
        streams=RandomStreams(6),
        model_memory_gb=2.5,
        canvas_memory_gb=0.35,
        **scheduler_kwargs,
    )
    if literal:
        from tests.oracles import use_always_repack

        use_always_repack(scheduler)
    return simulator, scheduler


# ------------------------------------------------------------------ sections
def bench_stitching_batch_pack() -> BenchResult:
    """One batch pack of 256 patches (the offline / re-pack cost unit)."""
    from repro.core.stitching import PatchStitchingSolver

    patches = _make_patches(256, seed=11)
    solver = PatchStitchingSolver()
    start = time.perf_counter()
    canvases = solver.pack(patches)
    elapsed = time.perf_counter() - start
    return BenchResult(
        "stitching_batch_pack_256",
        elapsed,
        {"patches": len(patches), "canvases": len(canvases)},
    )


def bench_stitching_incremental() -> BenchResult:
    """256 arrivals through the incremental stitcher (drift re-packs on)."""
    from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver

    patches = _make_patches(256, seed=11)
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    start = time.perf_counter()
    for patch in patches:
        stitcher.add(patch)
    elapsed = time.perf_counter() - start
    return BenchResult(
        "stitching_incremental_256",
        elapsed,
        {
            "patches": len(patches),
            "canvases": stitcher.num_canvases,
            "full_repacks": stitcher.stats["full_repacks"],
        },
    )


def bench_validate_packing() -> BenchResult:
    """Invariant validation (x-sorted sweep) over a 1024-patch packing."""
    from repro.core.stitching import PatchStitchingSolver

    patches = _make_patches(1024, seed=13, lo=48.0, hi=400.0)
    solver = PatchStitchingSolver()
    canvases = solver.pack(patches)
    start = time.perf_counter()
    # strict=True keeps timing the full sweep (the default validation is
    # now a cheap bounds check that would make this section vacuous).
    PatchStitchingSolver.validate_packing(canvases, strict=True)
    elapsed = time.perf_counter() - start
    return BenchResult(
        "validate_packing_1024",
        elapsed,
        {"patches": len(patches), "canvases": len(canvases)},
    )


def _bench_scheduler_arrival(literal: bool, name: str) -> BenchResult:
    patches = _make_patches(ARRIVAL_QUEUE_DEPTH, seed=17)
    simulator, scheduler = _build_scheduler(literal)
    start = time.perf_counter()
    for patch in patches:
        scheduler.receive_patch(patch)
    elapsed = time.perf_counter() - start
    meta: Dict[str, object] = {
        "queue_depth": ARRIVAL_QUEUE_DEPTH,
        "pending_canvases": scheduler.pending_canvases,
        "packing_stats": scheduler.packing_stats,
    }
    return BenchResult(name, elapsed, meta)


def bench_scheduler_arrival_full() -> BenchResult:
    """The literal Algorithm 2 arrival path (the always-re-pack oracle):
    full re-pack per arrival."""
    return _bench_scheduler_arrival(True, "scheduler_arrival_full_256")


def bench_scheduler_arrival_fast() -> BenchResult:
    """The incremental fast path at the same queue depth."""
    return _bench_scheduler_arrival(False, "scheduler_arrival_fast_256")


def _bench_deep_arrival(name: str, patches) -> BenchResult:
    """Deep-queue arrival microbenchmark: push every patch through
    ``receive_patch`` with a huge SLO and unconstrained memory so the
    queue only grows, and time the arrival path alone."""
    simulator, scheduler = _build_scheduler()
    start = time.perf_counter()
    for patch in patches:
        scheduler.receive_patch(patch)
    elapsed = time.perf_counter() - start
    meta: Dict[str, object] = {
        "queue_depth": len(patches),
        "pending_canvases": scheduler.pending_canvases,
        "packing_stats": scheduler.packing_stats,
    }
    consolidation_stats = scheduler.consolidation_stats
    if consolidation_stats and consolidation_stats.get("attempts"):
        meta["consolidation_stats"] = consolidation_stats
    return BenchResult(name, elapsed, meta)


def bench_arrival_fleet_4096() -> BenchResult:
    """The fleet-scale arrival path at queue depth 4096: budget-bounded
    partial re-packs on skyline canvases (informational)."""
    return _bench_deep_arrival("scheduler_arrival_fleet_4096", _make_patches(4096, seed=19))


def bench_fleet_repack_skyline() -> BenchResult:
    """One batch ``pack()`` of the 4096-patch fleet queue — the unit of
    work every full re-pack (and ``IncrementalStitcher.reset``) pays."""
    from repro.core.stitching import PatchStitchingSolver

    patches = _make_patches(4096, seed=19)
    solver = PatchStitchingSolver()
    start = time.perf_counter()
    canvases = solver.pack(patches)
    elapsed = time.perf_counter() - start
    return BenchResult(
        "stitching_fleet_repack_skyline_4096",
        elapsed,
        {
            "patches": len(patches),
            "canvases": len(canvases),
            "mean_canvas_efficiency": round(
                PatchStitchingSolver.mean_efficiency(canvases), 4
            ),
        },
    )


def bench_arrival_heavytail_1024() -> BenchResult:
    """Heavy-tailed patch sizes (many tiny crops, occasional near-canvas
    giants) stress the partial re-pack's patch budget (tiny patches pile
    up dozens per canvas)."""
    return _bench_deep_arrival(
        "scheduler_arrival_heavytail_1024", _make_heavytail_patches(1024, seed=29)
    )


def _bench_scheduler_stream(name: str, literal: bool) -> BenchResult:
    """A realistic 2048-patch stream (timed arrivals, 2 s SLO, a larger
    GPU instance so queues run ~100 patches deep) through the scheduler:
    queues flush at invocations, so this measures the packing quality
    each mode sustains in the operating regime — the committed evidence
    for the partial-re-pack efficiency criterion.  The depth matters: the
    fast-path run must exercise genuine victim consolidation
    (``partial_repacks`` in its meta stays well above zero), not just the
    small-queue whole-queue re-pack."""
    patches = _make_timed_trace(2048, seed=31)
    simulator, scheduler = _build_scheduler(literal, unconstrained=False, gpu_memory_gb=60.0)
    for patch in patches:
        simulator.schedule_at(
            patch.generation_time + 0.02,
            lambda _sim, p=patch: scheduler.receive_patch(p),
        )
    start = time.perf_counter()
    simulator.run()
    scheduler.flush()
    simulator.run()
    elapsed = time.perf_counter() - start
    efficiencies = [
        efficiency
        for batch in scheduler.completed_batches
        for efficiency in batch.canvas_efficiencies
    ]
    mean_efficiency = float(np.mean(efficiencies)) if efficiencies else 0.0
    return BenchResult(
        name,
        elapsed,
        {
            "patches": len(patches),
            "batches": len(scheduler.completed_batches),
            "mean_canvas_efficiency": round(mean_efficiency, 4),
            "packing_stats": scheduler.packing_stats,
        },
    )


def bench_stream_batch_packer_2048() -> BenchResult:
    """The batch packer reference: the literal Algorithm 2 (the
    always-re-pack oracle) re-packs the whole queue on every arrival."""
    return _bench_scheduler_stream("scheduler_stream_batchpack_2048", literal=True)


def bench_stream_partial_repack_2048() -> BenchResult:
    """The same stream on the incremental fast path (budget-bounded
    re-packs and partial consolidation)."""
    return _bench_scheduler_stream("scheduler_stream_partial_2048", literal=False)


_EDGE_FRAMES = None


def bench_edge_extract_partition() -> BenchResult:
    """The edge stage of one PANDA-like 4K camera over 40 frames: the
    analytic GMM extractor's RoIs, then Algorithm 1's 4x4 partitioning.
    Trace generation is untimed and cached across repeats; the meta's
    digests of the patch regions and of the object ids each region carries
    (``visible_objects`` of the patch's region alone, computed after the
    timed loop) show any change of a partition."""
    from repro.core.partitioning import FramePartitioner
    from repro.simulation.random_streams import RandomStreams
    from repro.vision.detector import visible_objects
    from repro.vision.roi_extractors import make_extractor
    from repro.workloads import build_camera_traces

    global _EDGE_FRAMES
    if _EDGE_FRAMES is None:
        (_EDGE_FRAMES,) = build_camera_traces(
            num_cameras=1, frames_per_camera=40, seed=2024, max_concurrent_objects=100
        ).values()
    extractor = make_extractor("gmm", streams=RandomStreams(77))
    partitioner = FramePartitioner(4, 4, roi_extractor=extractor)
    rois = 0
    patches = []
    start = time.perf_counter()
    for frame in _EDGE_FRAMES:
        frame_rois = extractor.extract(frame)
        rois += len(frame_rois)
        patches.extend(partitioner.partition(frame, 0.0, 1.0, rois=frame_rois))
    elapsed = time.perf_counter() - start
    frames = {frame.frame_index: frame for frame in _EDGE_FRAMES}
    regions = repr([patch.region.as_tuple() for patch in patches])
    objects = repr(
        [
            tuple(
                obj.object_id
                for obj in visible_objects(frames[patch.frame_index].objects, [patch.region])
            )
            for patch in patches
        ]
    )
    return BenchResult(
        "edge_extract_partition_40",
        elapsed,
        {
            "frames": len(_EDGE_FRAMES),
            "rois": rois,
            "patches": len(patches),
            "regions_sha256": hashlib.sha256(regions.encode()).hexdigest(),
            "objects_sha256": hashlib.sha256(objects.encode()).hexdigest(),
        },
    )


def bench_end_to_end() -> BenchResult:
    """A small multi-camera end-to-end run with the default (fast) path."""
    from repro.pipeline.endtoend import EndToEndConfig, run_end_to_end
    from repro.workloads import build_camera_traces

    traces = build_camera_traces(
        num_cameras=2, frames_per_camera=6, seed=2024, max_concurrent_objects=80
    )
    config = EndToEndConfig(strategy="tangram", bandwidth_mbps=40.0, slo=1.0, seed=77)
    start = time.perf_counter()
    result = run_end_to_end(config, traces)
    elapsed = time.perf_counter() - start
    return BenchResult(
        "end_to_end_small",
        elapsed,
        {
            "num_patches": result.num_patches,
            "num_batches": len(result.completed_batches),
            "mean_canvas_efficiency": round(result.mean_canvas_efficiency, 4),
        },
    )


_FLEET_TRACES = None


def bench_end_to_end_fleet() -> BenchResult:
    """A 64-camera fleet sharing one fat uplink through the Tangram
    scheduler.  Trace generation is untimed and cached across repeats."""
    from repro.pipeline.endtoend import EndToEndConfig, run_end_to_end
    from repro.workloads import build_camera_traces

    global _FLEET_TRACES
    if _FLEET_TRACES is None:
        _FLEET_TRACES = build_camera_traces(
            num_cameras=64, frames_per_camera=2, seed=4096, max_concurrent_objects=60
        )
    config = EndToEndConfig(strategy="tangram", bandwidth_mbps=400.0, slo=2.0, seed=77)
    start = time.perf_counter()
    result = run_end_to_end(config, _FLEET_TRACES)
    elapsed = time.perf_counter() - start
    return BenchResult(
        "end_to_end_fleet_64",
        elapsed,
        {
            "num_cameras": 64,
            "num_patches": result.num_patches,
            "num_batches": len(result.completed_batches),
            "mean_canvas_efficiency": round(result.mean_canvas_efficiency, 4),
            "slo_violation_rate": round(result.slo_violation_rate, 4),
        },
    )


def _fleet_scenario_config():
    from repro.fleet import FleetScenarioConfig, FleetWorkloadConfig

    # 64 cameras x 2 fps x 4 s x 2 patches/frame = 1024 base patches.
    return FleetScenarioConfig(
        workload=FleetWorkloadConfig(
            num_cameras=64,
            fps=2.0,
            duration_s=4.0,
            patches_per_frame=2,
            slo=1.0,
            seed=7,
        ),
        estimator_iterations=100,
    )


def _bench_fleet_scenario(name: str, with_faults: bool) -> BenchResult:
    """One 64-camera / 1024-base-patch fleet run through the full
    fault-tolerant path (retrying uplinks -> ingest filter -> scheduler).
    The churn arm injects the ISSUE's cocktail — 10% camera churn, 2%
    uplink loss, and a burst window — and its meta carries the fractions
    the robustness gates are stated over (zero escaped errors, delivered
    stream efficiency >= 0.95 of fault-free, ingest expiry bounded by
    the injected-fault fraction + 5%)."""
    from repro.fleet import FaultPlan, camera_ids, run_fleet_scenario

    config = _fleet_scenario_config()
    plan = None
    if with_faults:
        plan = FaultPlan.generate(
            seed=23,
            camera_ids=camera_ids(config.workload),
            duration=config.workload.duration_s,
            dropout_fraction=0.1,
            loss_probability=0.02,
            burst_count=2,
            burst_multiplier=2.0,
        )
    start = time.perf_counter()
    result = run_fleet_scenario(config, plan)
    elapsed = time.perf_counter() - start
    return BenchResult(
        name,
        elapsed,
        {
            "num_cameras": config.workload.num_cameras,
            "expected_base": result.expected_base,
            "burst_sent": result.burst_sent,
            "delivered_fraction": round(result.delivered_fraction, 4),
            "injected_fault_fraction": round(result.injected_fault_fraction, 4),
            "shed_expired_fraction": round(result.shed_expired_fraction, 4),
            "slo_violations": result.slo_violations,
            "errors": result.errors,
            "fault_summary": result.fault_summary,
        },
    )


def bench_fleet_faultfree_1024() -> BenchResult:
    """The fault-free arm of the fleet robustness pair."""
    return _bench_fleet_scenario("fleet_faultfree_1024", with_faults=False)


def bench_fleet_churn_1024() -> BenchResult:
    """The churn arm: burst + 10% camera churn + 2% loss."""
    return _bench_fleet_scenario("fleet_churn_1024", with_faults=True)


def _sharded_fleet_config():
    from repro.fleet import FleetScenarioConfig, FleetWorkloadConfig

    # 1024 cameras x 4 fps x 2 s x 2 patches/frame = 16384 base patches,
    # plus two 2x burst windows (~3.3k surplus).  Liveness is off: the
    # per-offer liveness sweep is O(fleet) bookkeeping shared by both
    # arms, not the scheduling work this pair compares.
    return FleetScenarioConfig(
        workload=FleetWorkloadConfig(
            num_cameras=1024,
            fps=4.0,
            duration_s=2.0,
            patches_per_frame=2,
            slo=1.0,
            seed=11,
        ),
        seed=3,
        track_liveness=False,
    )


def _sharded_fleet_plan(config):
    from repro.fleet import FaultPlan, camera_ids

    return FaultPlan.generate(
        seed=17,
        camera_ids=camera_ids(config.workload),
        duration=config.workload.duration_s,
        burst_count=2,
        burst_multiplier=2.0,
    )


def _bench_sharded_fleet(name: str, shards: int) -> BenchResult:
    """One 1024-camera burst run, single-scheduler vs 4-shard frontend.

    The pair gates what the simulation decides, not a speed-up: the
    sharded arm's SLO-violation rate may be no worse than the single
    scheduler's, and neither arm may raise.  The fleet runner deals camera
    *i* to shard *i* mod N, so the 4-shard arm owns 256 cameras per shard.
    """
    from repro.fleet import ShardScenarioConfig, run_sharded_scenario

    config = _sharded_fleet_config()
    plan = _sharded_fleet_plan(config)
    start = time.perf_counter()
    # shards=1 is exactly ``run_fleet_scenario``: one worker owns every camera.
    fleet = run_sharded_scenario(ShardScenarioConfig(base=config, shards=shards), plan)
    elapsed = time.perf_counter() - start
    violation_rate = (
        fleet.slo_violations / fleet.completed_patches if fleet.completed_patches else 0.0
    )
    return BenchResult(
        name,
        elapsed,
        {
            "num_cameras": config.workload.num_cameras,
            "shards": shards,
            "shard_cameras": fleet.shard_cameras,
            "completed_patches": fleet.completed_patches,
            "slo_violation_rate": round(violation_rate, 4),
            "delivered_fraction": round(fleet.delivered_fraction, 4),
            "mean_canvas_efficiency": round(fleet.mean_canvas_efficiency, 4),
            "errors": fleet.errors,
        },
    )


def bench_fleet_unsharded_1024() -> BenchResult:
    """The single-scheduler arm of the sharded-frontend pair."""
    return _bench_sharded_fleet("fleet_unsharded_1024", shards=1)


def bench_fleet_sharded_1024() -> BenchResult:
    """The 4-shard arm: camera ownership split across four workers."""
    return _bench_sharded_fleet("fleet_sharded_1024", shards=4)


SECTIONS: Dict[str, Callable[[], BenchResult]] = {
    "stitching_batch_pack_256": bench_stitching_batch_pack,
    "stitching_incremental_256": bench_stitching_incremental,
    "validate_packing_1024": bench_validate_packing,
    "scheduler_arrival_full_256": bench_scheduler_arrival_full,
    "scheduler_arrival_fast_256": bench_scheduler_arrival_fast,
    "scheduler_arrival_fleet_4096": bench_arrival_fleet_4096,
    "stitching_fleet_repack_skyline_4096": bench_fleet_repack_skyline,
    "scheduler_arrival_heavytail_1024": bench_arrival_heavytail_1024,
    "scheduler_stream_batchpack_2048": bench_stream_batch_packer_2048,
    "scheduler_stream_partial_2048": bench_stream_partial_repack_2048,
    "edge_extract_partition_40": bench_edge_extract_partition,
    "end_to_end_small": bench_end_to_end,
    "end_to_end_fleet_64": bench_end_to_end_fleet,
    "fleet_faultfree_1024": bench_fleet_faultfree_1024,
    "fleet_churn_1024": bench_fleet_churn_1024,
    "fleet_unsharded_1024": bench_fleet_unsharded_1024,
    "fleet_sharded_1024": bench_fleet_sharded_1024,
}


# -------------------------------------------------------------------- profile
def profile_arrival(depth: int = 4096, mix: str = "fleet") -> Dict[str, object]:
    """Instrumented run of the deep-queue arrival scenario: wraps the
    stitcher's ``probe``/``commit`` and the consolidation engine's
    ``plan`` with wall-clock counters and reports each stage's share of
    the arrival path.  This is how the "trial re-packs are ~60% of
    arrival time at depth 4096" ROADMAP claim is reproduced from the
    harness instead of ad-hoc profiling.

    ``mix`` selects the workload: ``"fleet"`` (the uniform 64-640 mix of
    ``scheduler_arrival_fleet_4096``, default) or ``"crowded"`` (the
    crowded-fleet mix under a hard-consolidating budget of 96 pooled
    patches, where trial re-packs keep failing).
    """
    if mix == "fleet":
        patches = _make_patches(depth, seed=19)
    elif mix == "crowded":
        patches = _make_crowded_patches(depth, seed=43)
    else:
        raise ValueError(f"unknown profile mix {mix!r} (use 'fleet' or 'crowded')")
    _simulator, scheduler = _build_scheduler()
    packer = scheduler._packer
    if mix == "crowded":
        packer.partial_patch_budget = 96
    engine = packer._consolidation
    times = {"probe": 0.0, "commit": 0.0, "consolidation": 0.0}

    def timed(label, func):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                times[label] += time.perf_counter() - start

        return wrapper

    packer.probe = timed("probe", packer.probe)
    packer.commit = timed("commit", packer.commit)
    engine.plan = timed("consolidation", engine.plan)

    start = time.perf_counter()
    for patch in patches:
        scheduler.receive_patch(patch)
    total = time.perf_counter() - start

    # ``consolidation`` runs inside ``probe``; carve it out so the three
    # reported stages are disjoint.
    stages = {
        "probe": times["probe"] - times["consolidation"],
        "consolidation": times["consolidation"],
        "commit": times["commit"],
    }
    stages["other"] = max(0.0, total - sum(stages.values()))
    return {
        "section": f"scheduler_arrival_{mix}_{depth}",
        "queue_depth": depth,
        "total_seconds": round(total, 6),
        "stages": {
            name: {
                "seconds": round(seconds, 6),
                "share": round(seconds / total, 4) if total > 0 else 0.0,
            }
            for name, seconds in stages.items()
        },
        "packing_stats": scheduler.packing_stats,
        "consolidation_stats": scheduler.consolidation_stats,
    }


# --------------------------------------------------------------------- runner
def run_all(repeats: int = 3, only: Optional[List[str]] = None) -> Dict[str, object]:
    """Run every section ``repeats`` times, keep the best run of each, and
    return the report dict (the ``BENCH_perf.json`` payload)."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    names = list(SECTIONS) if not only else list(only)
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        raise KeyError(f"unknown benchmark sections: {unknown}")
    sections: Dict[str, Dict[str, object]] = {}
    for name in names:
        best: Optional[BenchResult] = None
        for _ in range(repeats):
            result = SECTIONS[name]()
            if best is None or result.seconds < best.seconds:
                best = result
        assert best is not None
        sections[name] = {"seconds": round(best.seconds, 6), "meta": best.meta}
    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "python -m benchmarks.perf",
        "repeats": repeats,
        "sections": sections,
    }
    report["derived"] = _derive(sections)
    return report


def _derive(sections: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Ratios derived from section pairs; a ratio is only present when
    both contributing sections ran (``--quick``/``--only`` runs skip the
    deep-queue scenarios, and ``--check`` skips the matching gates)."""
    derived: Dict[str, float] = {}

    def _seconds(name: str) -> Optional[float]:
        entry = sections.get(name)
        if entry is None:
            return None
        return float(entry["seconds"])

    def _ratio(slow: str, fast: str) -> Optional[float]:
        slow_s, fast_s = _seconds(slow), _seconds(fast)
        if slow_s is None or fast_s is None or fast_s <= 0:
            return None
        return round(slow_s / fast_s, 2)

    speedup = _ratio("scheduler_arrival_full_256", "scheduler_arrival_fast_256")
    if speedup is not None:
        derived["scheduler_arrival_speedup"] = speedup
    batch = sections.get("scheduler_stream_batchpack_2048")
    partial = sections.get("scheduler_stream_partial_2048")
    if batch and partial:
        batch_eff = float(batch["meta"].get("mean_canvas_efficiency", 0.0))
        partial_eff = float(partial["meta"].get("mean_canvas_efficiency", 0.0))
        if batch_eff > 0:
            derived["partial_repack_efficiency_ratio"] = round(
                partial_eff / batch_eff, 4
            )
    faultfree = sections.get("fleet_faultfree_1024")
    churn = sections.get("fleet_churn_1024")
    if faultfree and churn:
        faultfree_delivered = float(faultfree["meta"].get("delivered_fraction", 0.0))
        churn_delivered = float(churn["meta"].get("delivered_fraction", 0.0))
        if faultfree_delivered > 0:
            derived["fleet_stream_efficiency_ratio"] = round(
                churn_delivered / faultfree_delivered, 4
            )
        # How much load the pipeline lost *beyond* what the faults took
        # away: negative or small-positive means the ingest only expired
        # what the fault plan forced it to.
        derived["fleet_fault_overreaction"] = round(
            float(churn["meta"].get("shed_expired_fraction", 0.0))
            - float(churn["meta"].get("injected_fault_fraction", 0.0)),
            4,
        )
        derived["fleet_errors"] = int(faultfree["meta"].get("errors", 0)) + int(
            churn["meta"].get("errors", 0)
        )
    unsharded = sections.get("fleet_unsharded_1024")
    sharded = sections.get("fleet_sharded_1024")
    if unsharded and sharded:
        # SLO-violation-rate delta: positive means sharding made the
        # served stream *worse* -- gated at <= 0 (no worse).
        derived["sharded_slo_delta"] = round(
            float(sharded["meta"].get("slo_violation_rate", 0.0))
            - float(unsharded["meta"].get("slo_violation_rate", 0.0)),
            4,
        )
        derived["sharded_fleet_errors"] = int(
            unsharded["meta"].get("errors", 0)
        ) + int(sharded["meta"].get("errors", 0))
    return derived


def write_results(report: Dict[str, object], path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_baseline(path: Path = BASELINE_PATH) -> Optional[Dict[str, object]]:
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check_against_baseline(
    report: Dict[str, object],
    baseline: Dict[str, object],
    max_regression: float = 2.0,
    min_speedup: float = 5.0,
    min_efficiency_ratio: float = 0.99,
    min_fleet_efficiency_ratio: float = 0.95,
    max_fleet_overreaction: float = 0.05,
    max_sharded_slo_delta: float = 0.0,
    ratios_only: bool = False,
) -> List[str]:
    """Compare a fresh report against the committed baseline.

    Returns a list of human-readable failures; empty means the check
    passed.  A section regresses when it is ``max_regression`` times
    slower than the baseline; sections present in only one report are
    ignored (workloads evolve, the baseline is updated alongside).
    Derived-ratio gates only apply when the contributing sections ran,
    so partial runs (``--quick``, ``--only``) skip them cleanly.

    ``ratios_only=True`` skips the absolute per-section timing
    comparison and keeps only the same-run derived-ratio gates — the
    mode for shared CI runners, where wall-clock comparisons against a
    baseline produced on a different machine are noise.
    """
    failures: List[str] = []
    if not ratios_only:
        base_sections = baseline.get("sections", {})
        new_sections = report.get("sections", {})
        for name, base_entry in base_sections.items():
            new_entry = new_sections.get(name)
            if new_entry is None:
                continue
            base_seconds = float(base_entry["seconds"])
            new_seconds = float(new_entry["seconds"])
            if base_seconds > 0 and new_seconds > max_regression * base_seconds:
                failures.append(
                    f"{name}: {new_seconds:.4f}s is more than {max_regression:.1f}x "
                    f"the baseline {base_seconds:.4f}s"
                )
    derived = report.get("derived", {})
    gates = [
        ("scheduler_arrival_speedup", min_speedup, "x"),
        ("partial_repack_efficiency_ratio", min_efficiency_ratio, ""),
        ("fleet_stream_efficiency_ratio", min_fleet_efficiency_ratio, ""),
    ]
    for key, minimum, unit in gates:
        value = derived.get(key)
        if value is not None and float(value) < minimum:
            failures.append(
                f"{key} {float(value):.2f}{unit} is below the "
                f"required {minimum:.2f}{unit}"
            )
    # The fleet robustness pair also carries two *maximum*-style gates:
    # zero escaped exceptions, and ingest expiry bounded by the
    # injected-fault fraction plus the allowed margin.
    errors = derived.get("fleet_errors")
    if errors is not None and int(errors) > 0:
        failures.append(
            f"fleet_errors {int(errors)}: fleet scenarios must complete "
            "with zero escaped exceptions"
        )
    overreaction = derived.get("fleet_fault_overreaction")
    if overreaction is not None and float(overreaction) > max_fleet_overreaction:
        failures.append(
            f"fleet_fault_overreaction {float(overreaction):.4f} exceeds the "
            f"allowed margin {max_fleet_overreaction:.4f} (the pipeline expired "
            "more than the injected faults account for)"
        )
    sharded_errors = derived.get("sharded_fleet_errors")
    if sharded_errors is not None and int(sharded_errors) > 0:
        failures.append(
            f"sharded_fleet_errors {int(sharded_errors)}: the sharded pair "
            "must complete with zero escaped exceptions"
        )
    slo_delta = derived.get("sharded_slo_delta")
    if slo_delta is not None and float(slo_delta) > max_sharded_slo_delta:
        failures.append(
            f"sharded_slo_delta {float(slo_delta):.4f} exceeds the allowed "
            f"{max_sharded_slo_delta:.4f} (sharding made the SLO-violation "
            "rate worse than the single scheduler)"
        )
    return failures
