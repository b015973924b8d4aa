"""One frozen options object for every scheduler/stitcher knob.

:class:`SchedulerOptions` is the only way to set a scheduler knob:
:class:`~repro.core.stitching.IncrementalStitcher` and
:class:`~repro.core.scheduler.TangramScheduler` take it as ``options=``,
and each runner config holds one as ``scheduler_options``.  The record
is frozen, so the sharded fleet frontend (:mod:`repro.fleet.shard`)
hands the same instance to all *N* of its schedulers; build a changed
copy with :func:`dataclasses.replace`, which re-runs the validation.

Every runner config (:class:`repro.pipeline.endtoend.EndToEndConfig`,
:class:`repro.core.tangram.TangramConfig` and
:class:`repro.fleet.scenario.FleetScenarioConfig`, and with it the
sharded frontend) defaults to the same ``SchedulerOptions()``.

Each decision the options do not name has exactly one production path:
canvases keep their free space in a skyline, the probe is the linear
per-canvas scan, a wasteful overflow re-packs the whole queue while it
fits ``partial_patch_budget`` and otherwise consolidates the
least-efficient canvases through the trial re-pack behind the
failed-attempt backoff, and ``incremental=False`` is the one route to
the literal Algorithm 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SchedulerOptions:
    """Every scheduler/stitcher knob, in one immutable record.

    ``SchedulerOptions()`` reproduces an unconfigured scheduler.
    """

    #: When true, arrivals take the incremental fast path: the queue's
    #: packing stays alive across arrivals in an :class:`~repro.core.
    #: stitching.IncrementalStitcher` instead of being re-packed from
    #: scratch, and the earliest deadline is tracked with a running-min
    #: heap instead of an O(n) scan.  When false the scheduler runs the
    #: literal Algorithm 2 (full re-pack per arrival).
    incremental: bool = True
    #: Fast path: free-space headroom (fraction of the arriving patch's
    #: area) the live canvases may hold before opening another canvas
    #: triggers a re-pack.  Smaller values re-pack more often and track
    #: the batch packer more tightly; ``inf`` never re-packs on overflow.
    drift_margin: float = 0.05
    #: Fast path, consolidation: how many of the least-efficient canvases
    #: one consolidation may dissolve at once.  Larger values consolidate
    #: harder (tracking the batch packer more closely) at a per-overflow
    #: cost that grows with the victims' patch count.
    max_partial_victims: int = 8
    #: Fast path: cap on the pooled patch count one re-pack may pack.
    #: While the whole queue plus the arriving patch fits it, a wasteful
    #: overflow re-packs the whole queue and tracks the batch packer;
    #: past that, it consolidates only the few least-efficient canvases
    #: through a trial re-pack that is adopted only when it saves a
    #: canvas (see :mod:`repro.core.consolidation`), which keeps the
    #: overflow path O(a few canvases) at fleet-scale queue depths.
    partial_patch_budget: int = 48
    #: SLO-aware graceful degradation: once the pending queue holds at
    #: least this many patches, arrivals that can no longer meet their SLO
    #: even if served at once (remaining slack below the single-canvas
    #: execution floor) are shed at admission instead of burning a probe,
    #: a canvas slot and an invocation.  The scheduler records them in
    #: ``shed``, apart from the SLO violations of served-but-late patches.
    #: ``None`` disables shedding, and every decision is then the
    #: watermark-free scheduler's.
    admission_watermark: Optional[int] = None

    def __post_init__(self) -> None:
        if math.isnan(self.drift_margin) or self.drift_margin < 0:
            raise ValueError("drift_margin must be non-negative (inf allowed)")
        if self.max_partial_victims < 1:
            raise ValueError("max_partial_victims must be at least 1")
        if self.partial_patch_budget < 2:
            raise ValueError("partial_patch_budget must be at least 2")
        if self.admission_watermark is not None and self.admission_watermark < 1:
            raise ValueError("admission_watermark must be at least 1")


__all__ = ["SchedulerOptions"]
