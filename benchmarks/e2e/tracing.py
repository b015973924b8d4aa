"""The traced run: spans around each layer's public entry points.

:class:`Tracer` replaces a fixed list of public methods, at class level
and for one run, with wrappers that record a span per call: name, start,
end, parent span and a request id (the patch id when the call carries a
patch).  Spans live in flat arrays during the run and are written out
afterwards.  A span's self time is its duration minus its child spans and
minus the garbage-collector pauses (seen through :data:`gc.callbacks`)
and benchmark checks that ran while it was the innermost open span.

Everything here is measured from outside the program: nothing under
``src/`` knows it is being traced.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.e2e.measure import Accounting, Capture, fleet_of, percentile

_NO_ID = -1


def _patch_arg(args: tuple, kwargs: dict) -> int:
    return args[1].patch_id


def _plan_arg(args: tuple, kwargs: dict) -> int:
    return args[1].patch.patch_id


def _payload(args: tuple, kwargs: dict) -> int:
    payload = kwargs.get("payload", args[2] if len(args) > 2 else None)
    return getattr(payload, "patch_id", _NO_ID)


def entry_points() -> List[Tuple[type, str, str, Optional[Callable]]]:
    """``(class, method, span name, request-id getter)`` for every traced
    entry point.  The span name's first component is the layer."""
    from repro.core.consolidation import ConsolidationEngine
    from repro.core.latency import LatencyEstimator
    from repro.core.partitioning import FramePartitioner
    from repro.core.scheduler import BaseScheduler, TangramScheduler
    from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver
    from repro.fleet.ingest import FleetIngestor
    from repro.fleet.liveness import LivenessTracker
    from repro.fleet.retry import ReliableSender
    from repro.fleet.shard import ShardRouter
    from repro.network.link import Uplink
    from repro.serverless.platform import ServerlessPlatform
    from repro.simulation.engine import Simulator
    from repro.vision.roi_extractors import AnalyticRoIExtractor

    return [
        (Simulator, "run", "simulation.run", None),
        (Simulator, "step", "simulation.step", None),
        (AnalyticRoIExtractor, "extract", "vision.extract", None),
        (FramePartitioner, "partition", "partitioning.partition", None),
        (Uplink, "send", "network.send", _payload),
        (ReliableSender, "send", "retry.send", _payload),
        (FleetIngestor, "offer", "ingest.offer", _patch_arg),
        (LivenessTracker, "sweep", "liveness.sweep", None),
        (ShardRouter, "rebalance", "shard.rebalance", None),
        (TangramScheduler, "receive_patch", "scheduler.receive_patch", _patch_arg),
        (BaseScheduler, "invoke_canvases", "scheduler.invoke", None),
        (IncrementalStitcher, "probe", "stitching.probe", _patch_arg),
        (IncrementalStitcher, "commit", "stitching.commit", _plan_arg),
        (IncrementalStitcher, "reset", "stitching.reset", None),
        (PatchStitchingSolver, "pack", "stitching.pack", None),
        (ConsolidationEngine, "plan", "consolidation.plan", _patch_arg),
        (LatencyEstimator, "slack_time", "latency.slack_time", None),
        (ServerlessPlatform, "invoke", "serverless.invoke", None),
    ]


class Tracer:
    """Records spans for one traced run."""

    ROOT = "runner"

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("q")
        self.excluded = array("d")
        self.stack: List[int] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0
        #: Wall seconds spent in the benchmark's own packing checks.
        self.check_s = 0.0
        self.invoked_batches = 0
        self.invalid_packings = 0
        #: Simulated times a patch reached the ingestor and the scheduler.
        self.offered_at: Dict[int, float] = {}
        self.arrived_at: Dict[int, float] = {}
        self._restore: List[Tuple[type, str, Any]] = []

    # ----------------------------------------------------------- recording
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _traced(
        self,
        original: Callable,
        name: str,
        request_id: Optional[Callable],
        before: Optional[Callable],
    ) -> Callable:
        name_id = self._id(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, request, excluded = self.parent, self.request, self.excluded
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else _NO_ID)
            request.append(request_id(args, kwargs) if request_id is not None else _NO_ID)
            excluded.append(0.0)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = original
        return traced

    def _exclude(self, seconds: float) -> None:
        """Take ``seconds`` out of the innermost open span's self time."""
        if self.stack:
            self.excluded[self.stack[-1]] += seconds

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_started = now
            return
        pause = now - self._gc_started
        self.gc_pause_s += pause
        self.gc_collections += 1
        self._exclude(pause)

    def _validate(self, args: tuple) -> None:
        """Check the packing of every canvas list sent to the function."""
        from repro.core.stitching import PatchStitchingSolver

        began = time.perf_counter()
        self.invoked_batches += 1
        try:
            PatchStitchingSolver.validate_packing(
                [canvas for canvas in args[1] if canvas.num_patches > 0], strict=True
            )
        except AssertionError:
            self.invalid_packings += 1
        elapsed = time.perf_counter() - began
        self.check_s += elapsed
        self._exclude(elapsed)

    def _offered(self, args: tuple) -> None:
        self.offered_at[args[1].patch_id] = args[0].simulator.now

    def _arrived(self, args: tuple) -> None:
        self.arrived_at[args[1].patch_id] = args[0].simulator.now

    def install(self) -> None:
        hooks = {
            "ingest.offer": self._offered,
            "scheduler.receive_patch": self._arrived,
            "scheduler.invoke": self._validate,
        }
        for cls, method, name, request_id in entry_points():
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._traced(original, name, request_id, hooks.get(name)))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for cls, method, original in reversed(self._restore):
            setattr(cls, method, original)
        self._restore.clear()

    def run(self, function: Callable[[], Any]) -> Any:
        """Call ``function`` inside the root span, tracing installed."""
        self.install()
        try:
            return self._traced(function, self.ROOT, None, None)()
        finally:
            self.uninstall()

    # ------------------------------------------------------------- analysis
    def totals(self) -> Tuple[Dict[str, int], Dict[str, float], Dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * len(durations)
        for index, parent in enumerate(self.parent):
            if parent != _NO_ID:
                children[parent] += durations[index]
        calls: Dict[str, int] = defaultdict(int)
        own: Dict[str, float] = defaultdict(float)
        inclusive: Dict[str, float] = defaultdict(float)
        for index, name_id in enumerate(self.name_of):
            name = self.names[name_id]
            calls[name] += 1
            own[name] += durations[index] - children[index] - self.excluded[index]
            inclusive[name] += durations[index]
        return calls, own, inclusive

    def call_durations(self, name: str) -> List[float]:
        name_id = self._ids.get(name)
        return sorted(
            e - s for n, s, e in zip(self.name_of, self.start, self.end) if n == name_id
        )

    def wall_s(self) -> float:
        """Runner wall time, minus the benchmark's own packing checks."""
        return self.end[0] - self.start[0] - self.check_s

    def dump(self, path: Path) -> None:
        """Write every span: times in ns from the runner's start."""
        origin = self.start[0] if len(self.start) else 0.0
        spans = [
            [n, round((s - origin) * 1e9), round((e - origin) * 1e9), p, r]
            for n, s, e, p, r in zip(self.name_of, self.start, self.end, self.parent, self.request)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start_ns", "end_ns", "parent", "request_id"],
                    "spans": spans,
                    "gc": {"pause_s": self.gc_pause_s, "collections": self.gc_collections},
                },
                handle,
                separators=(",", ":"),
            )


# --------------------------------------------------------------- per layer
#: Span names whose self time the simulation layer owns: the event loop and
#: everything its events run outside another traced layer (runner closures).
_SIMULATION = ("simulation.run", "simulation.step")


def layer_metrics(
    tracer: Tracer, acc: Accounting, capture: Capture, result: Any, tail_pct: float
) -> Dict[str, float]:
    """Every per-layer metric of one traced run (unit table in
    :data:`benchmarks.e2e.report.UNITS`)."""
    calls, own, inclusive = tracer.totals()
    wall = tracer.wall_s()
    fleet = fleet_of(result)
    metrics: Dict[str, float] = {}

    for name in tracer.names:
        if name == Tracer.ROOT or name in _SIMULATION:
            continue
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = own[name]
        metrics[f"{name}.share"] = own[name] / wall
        metrics[f"{name}.incl_share"] = inclusive[name] / wall
    metrics["runner.self_s"] = own[Tracer.ROOT]

    events = calls["simulation.step"]
    metrics["simulation.events"] = events
    metrics["simulation.events_per_patch"] = events / acc.attempted
    metrics["simulation.self_s"] = sum(own[name] for name in _SIMULATION)
    metrics["simulation.share"] = metrics["simulation.self_s"] / wall

    metrics["partitioning.patches_per_frame"] = acc.attempted / acc.frames

    waits = sorted(
        record.queueing_delay
        for uplink in capture.uplinks
        for record in list(uplink.records) + list(uplink.drops)
    )
    metrics["network.queue_wait_p50_s"] = percentile(waits, 50.0)
    metrics["network.queue_wait_tail_s"] = percentile(waits, tail_pct)
    metrics["network.drops"] = sum(len(uplink.drops) for uplink in capture.uplinks)

    transfers = fleet.transfers if fleet is not None else {}
    metrics["retry.attempts_per_transfer"] = (
        transfers["attempts"] / transfers["transfers"] if transfers.get("transfers") else 0.0
    )
    metrics["retry.failed"] = transfers.get("failed", 0)

    ingest = fleet.ingest if fleet is not None else {}
    metrics["ingest.lost"] = sum(
        ingest.get(key, 0)
        for key in ("dropped_backpressure", "expired_stale", "expired_dead", "shed_degraded")
    )
    ingest_waits = sorted(
        tracer.arrived_at[patch_id] - offered
        for patch_id, offered in tracer.offered_at.items()
        if patch_id in tracer.arrived_at
    )
    metrics["ingest.wait_tail_s"] = percentile(ingest_waits, tail_pct)

    metrics["liveness.transitions"] = (
        sum(fleet.liveness_transitions.values()) if fleet is not None else 0
    )

    routing = getattr(result, "routing", {})
    metrics["shard.steals_committed"] = routing.get("steals_committed", 0)
    received = [sum(b.num_patches for b in s.batches) for s in capture.schedulers]
    metrics["shard.load_skew"] = max(received) * len(received) / max(1, sum(received))

    receive = tracer.call_durations("scheduler.receive_patch")
    metrics["scheduler.receive_patch.p50_us"] = percentile(receive, 50.0) * 1e6
    metrics["scheduler.receive_patch.tail_us"] = percentile(receive, tail_pct) * 1e6
    batches = capture.completed_batches
    queue_waits = sorted(
        batch.invoke_time - tracer.arrived_at[outcome.patch.patch_id]
        for batch in batches
        for outcome in batch.outcomes
    )
    metrics["scheduler.queue_wait_p50_s"] = percentile(queue_waits, 50.0)
    metrics["scheduler.queue_wait_tail_s"] = percentile(queue_waits, tail_pct)
    metrics["scheduler.batches"] = len(batches)
    metrics["scheduler.patches_per_batch"] = sum(b.num_patches for b in batches) / max(
        1, len(batches)
    )
    metrics["scheduler.shed"] = sum(len(s.shed) for s in capture.schedulers)

    packing = sum((Counter(s.packing_stats) for s in capture.schedulers), Counter())
    consolidation = sum((Counter(s.consolidation_stats) for s in capture.schedulers), Counter())
    efficiencies = [e for b in batches for e in b.canvas_efficiencies]
    metrics["stitching.full_repacks"] = packing.get("full_repacks", 0)
    metrics["stitching.partial_repacks"] = packing.get("partial_repacks", 0)
    metrics["stitching.mean_canvas_efficiency"] = sum(efficiencies) / max(1, len(efficiencies))
    metrics["stitching.canvases_per_batch"] = len(efficiencies) / max(1, len(batches))
    attempts = consolidation.get("attempts", 0)
    metrics["consolidation.success_ratio"] = (
        packing.get("partial_repacks", 0) / attempts if attempts else 0.0
    )

    invocations = [r for p in capture.platforms for r in p.all_invocations]
    metrics["serverless.instances_peak"] = sum(p.num_instances for p in capture.platforms)
    metrics["serverless.invoke_wait_tail_s"] = percentile(
        sorted(r.queueing_delay for r in invocations), tail_pct
    )
    metrics["serverless.exec_s_per_batch"] = sum(r.execution_time for r in invocations) / max(
        1, len(invocations)
    )

    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = len(tracer.name_of)
    metrics["gc.pause_s"] = tracer.gc_pause_s
    metrics["gc.collections"] = tracer.gc_collections
    return metrics

