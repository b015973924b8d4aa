"""Workload construction and experiment sweep definitions.

The evaluation sweeps bandwidth (20/40/80 Mbps) against a per-bandwidth SLO
range (Fig. 12/13) and runs four scheduling strategies at every point.
This package centralises those grids and the construction of the camera
traces they run over, so every benchmark regenerates the same workloads
from the same seeds.
"""

from repro.workloads.builder import build_camera_traces, default_camera_scenes
from repro.workloads.fleet import (
    BASE_SCENE,
    BURST_SCENE,
    FleetWorkloadConfig,
    camera_ids,
    capture_times,
    make_patch,
    patch_dimensions,
)
from repro.workloads.sweeps import SLO_GRID_BY_BANDWIDTH, SweepPoint

__all__ = [
    "BASE_SCENE",
    "BURST_SCENE",
    "FleetWorkloadConfig",
    "build_camera_traces",
    "camera_ids",
    "capture_times",
    "default_camera_scenes",
    "make_patch",
    "patch_dimensions",
    "SweepPoint",
    "SLO_GRID_BY_BANDWIDTH",
]
