#!/usr/bin/env python
"""Multi-camera, SLO-constrained video analytics on the serverless platform.

This is the end-to-end scenario of the paper's evaluation (Section V-B):
several edge cameras stream high-resolution scenes over bandwidth-limited
uplinks; the cloud scheduler decides when to batch and invoke the GPU
serverless function.  The example compares Tangram's online SLO-aware
batching against Clipper (AIMD batching), MArk (batch size + timeout) and
ELF (one invocation per patch) at a 1-second SLO and prints the cost,
SLO-violation rate, and canvas efficiency of each -- the Fig. 12 quantities.

Run with::

    python examples/multi_camera_slo.py [--bandwidth 40] [--slo 1.0]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.tables import format_table
from repro.pipeline.endtoend import STRATEGIES, EndToEndConfig, run_end_to_end
from repro.workloads import build_camera_traces


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bandwidth", type=float, default=40.0,
                        help="uplink bandwidth per camera in Mbps (paper: 20/40/80)")
    parser.add_argument("--slo", type=float, default=1.0,
                        help="end-to-end latency objective in seconds")
    parser.add_argument("--cameras", type=int, default=3,
                        help="number of edge cameras streaming concurrently")
    parser.add_argument("--frames", type=int, default=15,
                        help="frames per camera")
    args = parser.parse_args()

    print(f"Building {args.cameras} camera traces ({args.frames} frames each)...")
    traces = build_camera_traces(
        num_cameras=args.cameras,
        frames_per_camera=args.frames,
        seed=1,
        max_concurrent_objects=150,
    )

    rows = []
    for strategy in STRATEGIES:
        config = EndToEndConfig(
            strategy=strategy, bandwidth_mbps=args.bandwidth, slo=args.slo, seed=11
        )
        result = run_end_to_end(config, traces)
        rows.append(
            [
                strategy,
                result.total_cost,
                100 * result.slo_violation_rate,
                result.mean_canvas_efficiency,
                float(np.mean(result.patches_per_batch)) if result.patches_per_batch else 0.0,
                result.amortised_latency_per_patch,
            ]
        )
        print(f"  {strategy:8s} done: {len(result.completed_batches)} invocations, "
              f"{result.num_patches} patches served")

    print()
    print(
        format_table(
            ["strategy", "cost ($)", "SLO violation (%)", "canvas eff.",
             "patches/batch", "latency/patch (s)"],
            rows,
            title=f"End-to-end comparison @ {args.bandwidth:.0f} Mbps, SLO = {args.slo:.1f} s",
            float_format="{:.4f}",
        )
    )
    print("\nTangram should show the lowest cost while keeping violations under 5%.")


if __name__ == "__main__":
    main()
