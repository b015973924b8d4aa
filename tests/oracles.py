"""Test oracles that the perf harness shares with the test suite.

This module must not import pytest: ``python -m benchmarks.perf`` runs
the always-re-pack oracle as the literal Algorithm 2 reference for its
``scheduler_arrival_full_256`` and ``scheduler_stream_batchpack_2048``
sections, and the harness runs without pytest installed.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.partitioning import make_zones
from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher
from repro.fleet.liveness import ALIVE, DEAD, RECONNECTING, SUSPECT, LivenessTracker
from repro.video.geometry import Box, enclosing_box


class AlwaysRepackStitcher(IncrementalStitcher):
    """Test oracle: every probe batch-packs the whole queue plus the
    arriving patch, so a scheduler driving this stitcher makes exactly
    the literal Algorithm 2's decisions (a full re-pack per arrival)
    through the incremental probe/commit plumbing."""

    def probe(self, patch: Patch):
        self.stats["probes"] += 1
        return self._full_repack_plan(patch)


def use_always_repack(scheduler):
    """Swap a scheduler's stitcher for the :class:`AlwaysRepackStitcher`
    oracle (same solver and equivalent-canvas accounting) before its
    first arrival; returns the scheduler."""
    scheduler._packer = AlwaysRepackStitcher(
        scheduler.solver,
        equivalent_canvas_pixels=scheduler.estimator.canvas_pixels,
    )
    return scheduler


class FullWalkLivenessTracker(LivenessTracker):
    """Test oracle: every sweep walks every registered camera, dead ones
    included, and stops nowhere, so no order among the cameras can change
    what it decides."""

    def sweep(self) -> None:
        now = self.simulator.now
        for health in self._cameras.values():
            silence = now - health.last_heartbeat
            if health.state in (ALIVE, SUSPECT, RECONNECTING):
                if silence >= self.dead_after:
                    self._enter(health, DEAD)
                elif health.state == ALIVE and silence >= self.suspect_after:
                    self._enter(health, SUSPECT)


def all_zones_partition_rois(
    frame_width: float,
    frame_height: float,
    zones_x: int,
    zones_y: int,
    rois: Sequence[Box],
) -> List[Box]:
    """Test oracle: Algorithm 1 testing every RoI against every zone with
    ``Box.intersection_area``.  ``partition_rois`` must return exactly
    this list."""
    zones = make_zones(frame_width, frame_height, zones_x, zones_y)
    assignments: List[List[Box]] = [[] for _ in zones]
    for roi in rois:
        if roi.is_empty():
            continue
        best_zone = -1
        best_overlap = 0.0
        for index, zone in enumerate(zones):
            overlap = roi.intersection_area(zone)
            if overlap > best_overlap:
                best_overlap = overlap
                best_zone = index
        if best_zone >= 0:
            assignments[best_zone].append(roi)
    patches: List[Box] = []
    for zone_rois in assignments:
        if not zone_rois:
            continue
        clipped = enclosing_box(zone_rois).clip_to(frame_width, frame_height)
        if clipped is not None and not clipped.is_empty():
            patches.append(clipped)
    return patches
