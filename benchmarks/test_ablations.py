"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's figures and quantify the contribution of
individual design decisions:

* **Stitching order** -- packing patches in decreasing-area order
  (first-fit-decreasing) vs. arrival order.
* **Slack conservatism** -- the sigma multiplier in the latency estimator
  trades SLO violations against cost (the paper suggests raising it for
  SLO-critical deployments).
* **Canvas size** -- smaller canvases waste less area per canvas but pay
  more per-canvas overheads.
* **Zone granularity** -- the end-to-end bandwidth/accuracy knob.
"""

from __future__ import annotations


from repro.analysis.tables import format_table
from repro.core.latency import LatencyEstimator
from repro.core.partitioning import FramePartitioner
from repro.core.scheduler import TangramScheduler
from repro.core.stitching import PatchStitchingSolver
from repro.pipeline.endtoend import EndToEndConfig, run_end_to_end
from repro.serverless.platform import ServerlessPlatform
from repro.simulation.engine import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel
from repro.vision.roi_extractors import make_extractor


def _frame_patches(eval_frames_by_scene, zones=4, limit=12):
    partitioner = FramePartitioner(
        zones_x=zones, zones_y=zones,
        roi_extractor=make_extractor("gmm", streams=RandomStreams(3)),
    )
    patches = []
    for frame in eval_frames_by_scene["scene_01"][:limit]:
        patches.extend(partitioner.partition(frame, generation_time=frame.timestamp, slo=1.0))
    return patches


def test_ablation_stitching_order(benchmark, eval_frames_by_scene):
    """First-fit-decreasing vs. arrival-order packing."""
    patches = _frame_patches(eval_frames_by_scene)

    def run():
        sorted_solver = PatchStitchingSolver(sort_patches=True)
        arrival_solver = PatchStitchingSolver(sort_patches=False)
        return len(sorted_solver.pack(patches)), len(arrival_solver.pack(patches))

    sorted_count, arrival_count = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["packing order", "canvases used"],
            [["decreasing area (default)", sorted_count], ["arrival order", arrival_count]],
            title="Ablation -- stitching order",
        )
    )
    assert sorted_count <= arrival_count


def test_ablation_sigma_multiplier(benchmark, eval_frames_by_scene):
    """Raising the slack multiplier trades cost for fewer violations."""
    patches = _frame_patches(eval_frames_by_scene, limit=10)

    def run_with_sigma(multiplier: float):
        simulator = Simulator()
        platform = ServerlessPlatform(simulator, cold_start_time=0.0)
        latency_model = DetectorLatencyModel.serverless()
        scheduler = TangramScheduler(
            simulator,
            platform,
            estimator=LatencyEstimator(
                latency_model=latency_model, iterations=150,
                sigma_multiplier=multiplier, streams=RandomStreams(int(multiplier * 10)),
            ),
            latency_model=latency_model,
            streams=RandomStreams(55),
        )
        arrival = 0.0
        for patch in patches:
            arrival += 0.02
            simulator.schedule_at(
                arrival, lambda sim, p=patch: scheduler.receive_patch(
                    type(p)(
                        camera_id=p.camera_id, frame_index=p.frame_index, region=p.region,
                        generation_time=sim.now, slo=1.0, scene_key=p.scene_key,
                    )
                )
            )
        simulator.run()
        scheduler.flush()
        simulator.run()
        return scheduler.slo_violation_rate, scheduler.total_cost

    def run():
        return {sigma: run_with_sigma(sigma) for sigma in (0.0, 3.0, 6.0)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["sigma multiplier", "violation rate", "cost ($)"],
            [[sigma, violation, cost] for sigma, (violation, cost) in sorted(results.items())],
            title="Ablation -- latency-estimator conservatism",
            float_format="{:.4f}",
        )
    )
    # More conservative slack never increases the violation rate.
    assert results[6.0][0] <= results[0.0][0] + 1e-9
    assert results[3.0][0] <= 0.05


def test_ablation_canvas_size(benchmark, camera_traces):
    """Canvas size: the paper fixes 1024; smaller/larger canvases shift the
    overhead/efficiency balance."""

    def run():
        out = {}
        for canvas in (640.0, 1024.0, 1536.0):
            config = EndToEndConfig(
                strategy="tangram", bandwidth_mbps=40.0, slo=1.0, canvas_size=canvas, seed=60
            )
            result = run_end_to_end(config, camera_traces)
            out[canvas] = (result.total_cost, result.mean_canvas_efficiency,
                           result.slo_violation_rate)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["canvas size", "cost ($)", "canvas efficiency", "violation rate"],
            [[f"{int(c)}x{int(c)}", *values] for c, values in sorted(results.items())],
            title="Ablation -- canvas size",
            float_format="{:.4f}",
        )
    )
    for cost, efficiency, violation in results.values():
        assert cost > 0
        assert 0.0 < efficiency <= 1.0
        assert violation <= 0.25


def test_ablation_zone_granularity_end_to_end(benchmark, camera_traces):
    """Zone granularity trades uplink bytes against patches/overheads."""

    def run():
        out = {}
        for zones in (2, 4, 6):
            config = EndToEndConfig(
                strategy="tangram", bandwidth_mbps=40.0, slo=1.0,
                zones_x=zones, zones_y=zones, seed=61,
            )
            result = run_end_to_end(config, camera_traces)
            out[zones] = (result.total_uploaded_bytes / 1e6, result.total_cost,
                          result.slo_violation_rate)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["zones", "uploaded (MB)", "cost ($)", "violation rate"],
            [[f"{z}x{z}", *values] for z, values in sorted(results.items())],
            title="Ablation -- partition granularity, end to end",
            float_format="{:.4f}",
        )
    )
    uploads = {zones: values[0] for zones, values in results.items()}
    # Finer partitioning uploads fewer bytes (Table II, now end to end).
    assert uploads[6] <= uploads[2] + 1e-6
    # SLO compliance holds across granularities.
    assert all(values[2] <= 0.10 for values in results.values())
