#!/usr/bin/env python
"""Quickstart: partition a high-resolution frame, stitch its patches, and
see what one serverless invocation would cost.

This walks the three steps of Tangram's pipeline on a single synthetic
PANDA4K-like frame:

1. the edge extracts RoIs with background modelling and aligns them into
   patches with the adaptive frame partitioning algorithm (Algorithm 1);
2. the cloud stitches the patches onto 1024x1024 canvases without resizing
   them (Algorithm 2);
3. the batch of canvases is "invoked" on the simulated GPU serverless
   function, billed with the Alibaba Function Compute formula (Eqn. 1).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import Tangram
from repro.core.tangram import TangramConfig
from repro.network import FrameEncoder
from repro.video import build_panda4k
from repro.vision.detector import visible_objects


def main() -> None:
    # A short synthetic version of scene_01 (University Canteen).
    dataset = build_panda4k(seed=7, scene_keys=["scene_01"], limit_frames=30)
    frame = dataset.eval_frames("scene_01")[0]
    print(f"Frame {frame.frame_index}: {frame.width}x{frame.height}, "
          f"{frame.num_objects} people, RoIs cover {100 * frame.roi_proportion:.1f}% of the frame")

    # Tangram with the paper's default configuration: 4x4 zones, 1024 canvases.
    tangram = Tangram(config=TangramConfig(zones_x=4, zones_y=4, slo=1.0))

    # --- Step 1: edge-side adaptive frame partitioning ---------------------
    patches = tangram.partition(frame, camera_id="camera-0")
    print(f"\nAdaptive partitioning produced {len(patches)} patches:")
    for patch in patches:
        carried = visible_objects(frame.objects, [patch.region])
        print(f"  patch {patch.patch_id}: {patch.width:.0f}x{patch.height:.0f} px, "
              f"{len(carried)} objects, deadline t={patch.deadline:.2f}s")

    encoder = FrameEncoder()
    patch_bytes = sum(encoder.patch_bytes(p.region) for p in patches)
    full_bytes = encoder.full_frame_bytes(frame)
    print(f"\nUplink bytes: {patch_bytes / 1e6:.2f} MB as patches "
          f"vs {full_bytes / 1e6:.2f} MB as a full frame "
          f"({100 * (1 - patch_bytes / full_bytes):.1f}% saved)")

    # --- Step 2: cloud-side patch stitching ---------------------------------
    canvases = tangram.stitch(patches)
    print(f"\nStitching packed the patches onto {len(canvases)} canvas(es):")
    for canvas in canvases:
        print(f"  canvas {canvas.canvas_id}: {canvas.num_patches} patches, "
              f"efficiency {100 * canvas.efficiency:.1f}%")

    # --- Step 3: one serverless invocation for the whole frame -------------
    result = tangram.process_frame_offline(frame)
    print(f"\nOne GPU function invocation: execution {result.execution_time:.3f}s, "
          f"billed ${result.cost:.6f}")
    print("Done -- see examples/multi_camera_slo.py for the online SLO-aware scheduler.")


if __name__ == "__main__":
    main()
