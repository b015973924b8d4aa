"""One frozen options object for every scheduler/stitcher knob.

The online path grew its knobs one PR at a time and each of them was
hand-plumbed through four layers (:class:`~repro.core.stitching.
IncrementalStitcher` / :class:`~repro.core.scheduler.TangramScheduler` /
:class:`~repro.core.tangram.TangramConfig` / :class:`repro.pipeline.
endtoend.EndToEndConfig`).  The sharded fleet frontend
(:mod:`repro.fleet.shard`) constructs *N* schedulers that must agree on
every knob, which is exactly the situation a single immutable options
object exists for: build one :class:`SchedulerOptions`, clone it per
worker, done.

Each decision the options do not name has exactly one production path:
the probe is the linear per-canvas scan, consolidation is the trial
re-pack behind the failed-attempt backoff, and ``incremental=False`` is
the one route to the literal Algorithm 2.

Back-compat contract
--------------------
The per-knob keyword arguments on the constructors remain as a thin
layer over this object: an explicitly passed kwarg overrides the
corresponding field of ``options=``, and omitting both yields the same
defaults as before.  ``tests/test_scheduler_options.py`` pins the
equivalence byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from repro.core.canvas import CANVAS_STRUCTURES

#: Sentinel distinguishing "kwarg not passed" from any real value, so the
#: constructors can tell an explicit override apart from the default.
UNSET = object()

#: Overflow re-pack scopes of the incremental stitcher.
REPACK_SCOPES = ("queue", "canvas")


@dataclass(frozen=True)
class SchedulerOptions:
    """Every scheduler/stitcher knob, in one immutable, cloneable record.

    Defaults are exactly the historical per-kwarg defaults, so
    ``SchedulerOptions()`` reproduces an unconfigured scheduler.  See the
    matching parameters on :class:`~repro.core.scheduler.TangramScheduler`
    and :class:`~repro.core.stitching.IncrementalStitcher` for the full
    per-knob documentation.
    """

    #: Incremental fast path (live packing + heap deadlines) vs the
    #: literal Algorithm 2 full re-pack per arrival.
    incremental: bool = True
    #: Fast path: efficiency headroom before a drift re-pack triggers;
    #: ``inf`` never re-packs on overflow.
    drift_margin: float = 0.05
    #: Overflow re-pack scope: ``"queue"`` or ``"canvas"``.
    repack_scope: str = "queue"
    #: ``repack_scope="canvas"``: worst canvases one consolidation may
    #: dissolve at once.
    max_partial_victims: int = 8
    #: ``repack_scope="canvas"``: pooled-patch cap per consolidation.
    partial_patch_budget: int = 48
    #: Canvas free-space structure: ``"skyline"`` or ``"guillotine"``.
    #: Applies when the owner builds its own solver; an explicit
    #: ``solver=`` brings its own structure and wins.
    canvas_structure: str = "skyline"
    #: SLO-aware admission shedding threshold (``None`` disables).
    admission_watermark: Optional[int] = None

    def __post_init__(self) -> None:
        if math.isnan(self.drift_margin) or self.drift_margin < 0:
            raise ValueError("drift_margin must be non-negative (inf allowed)")
        if self.repack_scope not in REPACK_SCOPES:
            raise ValueError(
                f"repack_scope must be one of {REPACK_SCOPES}, "
                f"got {self.repack_scope!r}"
            )
        if self.canvas_structure not in CANVAS_STRUCTURES:
            raise ValueError(
                f"canvas_structure must be one of {CANVAS_STRUCTURES}, "
                f"got {self.canvas_structure!r}"
            )
        if self.max_partial_victims < 1:
            raise ValueError("max_partial_victims must be at least 1")
        if self.partial_patch_budget < 2:
            raise ValueError("partial_patch_budget must be at least 2")
        if self.admission_watermark is not None and self.admission_watermark < 1:
            raise ValueError("admission_watermark must be at least 1")

    # ------------------------------------------------------------------ clone
    def replace(self, **overrides) -> "SchedulerOptions":
        """A changed copy (validation re-runs); unknown names raise."""
        return dataclasses.replace(self, **overrides)

    def merged_with(self, **maybe_overrides) -> "SchedulerOptions":
        """Like :meth:`replace`, but :data:`UNSET` values are skipped —
        the resolution rule of the back-compat kwarg layer."""
        overrides = {
            name: value
            for name, value in maybe_overrides.items()
            if value is not UNSET
        }
        if not overrides:
            return self
        return dataclasses.replace(self, **overrides)

    # ---------------------------------------------------------------- summary
    def describe(self) -> dict:
        """A JSON-friendly dict (non-finite floats are stringified)."""
        record = dataclasses.asdict(self)
        for name, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                record[name] = str(value)
        return record


__all__ = ["REPACK_SCOPES", "SchedulerOptions", "UNSET"]
