"""Tangram's core contribution.

* :mod:`repro.core.patches` -- the patch record the edge uploads (pixels
  plus generation time, size, and SLO).
* :mod:`repro.core.partitioning` -- Algorithm 1, adaptive frame
  partitioning: align GMM RoIs into per-zone patches.
* :mod:`repro.core.stitching` -- Algorithm 2 (lines 24-39), the
  patch-stitching solver that packs variable-size patches onto fixed-size
  canvases without resizing, padding, rotation or overlap, and the
  incremental stitcher whose probe is one linear best-short-side-fit
  scan over the live canvases.
* :mod:`repro.core.canvas` -- the canvas itself: the fixed-size packing
  surface and its free-space bookkeeping.
* :mod:`repro.core.skyline` -- the skyline free-space structure every
  canvas keeps (occupied silhouette as x-sorted segments plus recycled
  waste rectangles).
* :mod:`repro.core.consolidation` -- the overflow-consolidation
  subsystem: the victim efficiency heap (at most
  ``MAX_PARTIAL_VICTIMS`` victims), the retry backoff, and the trial
  re-pack behind two exact pre-checks.
* :mod:`repro.core.options` -- :class:`SchedulerOptions`, the frozen
  record carrying the two scheduler knobs, ``incremental`` and
  ``partial_patch_budget`` (the only way to set one).
* :mod:`repro.core.latency` -- the latency estimator (offline profiling,
  slack = mean + 3 sigma).
* :mod:`repro.core.scheduler` -- the online SLO-aware batching invoker that
  batches every arriving patch and decides when to trigger the
  serverless function;
  ``SchedulerOptions(incremental=False)`` runs the literal Algorithm 2
  (a full re-pack per arrival).
* :mod:`repro.core.tangram` -- the offline facade mirroring the paper's
  edge API: ``partition``, ``stitch`` and ``process_frame_offline`` (one
  request per frame, Figs. 8 and 9).  The online API, ``receive_patch``
  plus SLO-aware batching, is
  :class:`~repro.core.scheduler.TangramScheduler`.
"""

from repro.core.patches import Patch
from repro.core.partitioning import FramePartitioner, partition_rois
from repro.core.consolidation import ConsolidationEngine
from repro.core.options import SchedulerOptions
from repro.core.skyline import Skyline
from repro.core.stitching import (
    Canvas,
    IncrementalStitcher,
    Placement,
    PlacementPlan,
    PatchStitchingSolver,
)
from repro.core.latency import LatencyEstimator, LatencyProfile
from repro.core.scheduler import BatchRecord, TangramScheduler
from repro.core.tangram import Tangram

__all__ = [
    "Patch",
    "FramePartitioner",
    "partition_rois",
    "Canvas",
    "ConsolidationEngine",
    "Skyline",
    "IncrementalStitcher",
    "Placement",
    "PlacementPlan",
    "PatchStitchingSolver",
    "LatencyEstimator",
    "LatencyProfile",
    "SchedulerOptions",
    "BatchRecord",
    "TangramScheduler",
    "Tangram",
]
