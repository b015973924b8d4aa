"""One frozen options object for the two scheduler knobs.

:class:`SchedulerOptions` is the only way to set a scheduler knob:
:class:`~repro.core.stitching.IncrementalStitcher` and
:class:`~repro.core.scheduler.TangramScheduler` take it as ``options=``,
and each runner config holds one as ``scheduler_options``.  The record
is frozen, so the sharded fleet frontend (:mod:`repro.fleet.shard`)
hands the same instance to all *N* of its schedulers; build a changed
copy with :func:`dataclasses.replace`, which re-runs the validation.

Both runner configs (:class:`repro.pipeline.endtoend.EndToEndConfig`
and :class:`repro.fleet.scenario.FleetScenarioConfig`, and with it the
sharded frontend) default to the same ``SchedulerOptions()``.

Each decision the options do not name has exactly one production path:
canvases keep their free space in a skyline, the probe is the linear
per-canvas scan, an overflow is wasteful when the live canvases hold at
least 1.05 times the arriving patch's area in free space, a wasteful
overflow re-packs the whole queue while it fits
``partial_patch_budget`` and otherwise consolidates at most
:data:`~repro.core.consolidation.MAX_PARTIAL_VICTIMS` least-efficient
canvases through the trial re-pack behind the failed-attempt backoff,
every arriving patch is batched (nothing is shed at admission), and
``incremental=False`` is the one route to the literal Algorithm 2.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class SchedulerOptions:
    """Both scheduler knobs, in one immutable record.

    ``SchedulerOptions()`` reproduces an unconfigured scheduler.
    """

    #: When true, arrivals take the incremental fast path: the queue's
    #: packing stays alive across arrivals in an :class:`~repro.core.
    #: stitching.IncrementalStitcher` instead of being re-packed from
    #: scratch, and the earliest deadline is tracked with a running-min
    #: heap instead of an O(n) scan.  When false the scheduler runs the
    #: literal Algorithm 2 (full re-pack per arrival).
    incremental: bool = True
    #: Fast path: cap on the pooled patch count one re-pack may pack, an
    #: integer of at least 2.  While the whole queue plus the arriving
    #: patch fits it, a wasteful overflow re-packs the whole queue and
    #: tracks the batch packer; past that, it consolidates only the few
    #: least-efficient canvases through a trial re-pack that is adopted
    #: only when it saves a canvas (see :mod:`repro.core.consolidation`),
    #: which keeps the overflow path O(a few canvases) at fleet-scale
    #: queue depths.
    partial_patch_budget: int = 48

    def __post_init__(self) -> None:
        # NaN, inf and fractional budgets are not integers, so they fail
        # here rather than as a silently different pool cap.
        budget = self.partial_patch_budget
        if not isinstance(budget, numbers.Integral) or budget < 2:
            raise ValueError("partial_patch_budget must be an integer of at least 2")


__all__ = ["SchedulerOptions"]
