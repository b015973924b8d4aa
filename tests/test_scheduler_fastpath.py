"""The incremental scheduler fast path vs. the literal Algorithm 2.

Two layers of guarantees:

* in **full-repack-equivalent mode** (the fast path driving the
  :class:`~tests.conftest.AlwaysRepackStitcher` oracle) the scheduler
  must produce *byte-identical* ``BatchRecord`` metrics to
  ``incremental=False`` — same invoke times, costs, canvas counts,
  efficiencies — because every scheduling decision is made from the
  same packing;
* in the default **incremental mode** the metrics may differ slightly, but
  the behavioural guarantees (SLO compliance, memory constraint, flush
  semantics) must hold unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.latency import LatencyEstimator
from repro.core.options import SchedulerOptions
from repro.core.scheduler import TangramScheduler
from repro.core.stitching import PatchStitchingSolver
from repro.serverless.platform import ServerlessPlatform
from repro.simulation.engine import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel
from tests.conftest import make_patch, use_always_repack


def _scheduler(
    simulator: Simulator, incremental: bool = True, **kwargs
) -> TangramScheduler:
    platform = ServerlessPlatform(simulator, cold_start_time=0.0)
    latency_model = DetectorLatencyModel.serverless()
    estimator = LatencyEstimator(
        latency_model=latency_model, iterations=100, streams=RandomStreams(5)
    )
    return TangramScheduler(
        simulator,
        platform,
        solver=PatchStitchingSolver(),
        estimator=estimator,
        latency_model=latency_model,
        streams=RandomStreams(6),
        options=SchedulerOptions(incremental=incremental),
        **kwargs,
    )


def _arrival_trace(count: int = 90, seed: int = 11):
    rng = np.random.default_rng(seed)
    widths = rng.integers(80, 640, size=count)
    heights = rng.integers(80, 640, size=count)
    gen_times = np.sort(rng.uniform(0.0, 2.5, size=count))
    slos = rng.choice([0.6, 1.0, 1.5], size=count)
    return [
        (float(w), float(h), float(t), float(slo))
        for w, h, t, slo in zip(widths, heights, gen_times, slos)
    ]


def _run_trace(trace, always_repack=False, **scheduler_kwargs):
    """Run an arrival trace of (patch, arrival) pairs or raw size tuples.

    ``Patch`` is frozen, so identity-critical tests build the patches once
    and replay the *same* objects through differently configured
    schedulers (patch ids are globally assigned and would otherwise
    differ between runs).  ``always_repack`` injects the always-re-pack
    oracle into the fast path.
    """
    simulator = Simulator()
    scheduler = _scheduler(simulator, **scheduler_kwargs)
    if always_repack:
        use_always_repack(scheduler)
    for entry in trace:
        if len(entry) == 2:
            patch, arrival = entry
        else:
            width, height, gen_time, slo = entry
            patch = make_patch(width, height, generation_time=gen_time, slo=slo)
            arrival = gen_time + 0.02
        simulator.schedule_at(
            arrival, lambda sim, p=patch: scheduler.receive_patch(p)
        )
    simulator.run()
    scheduler.flush()
    simulator.run()
    return scheduler


def _materialise(trace):
    """Build the trace's patches once so runs share identical objects."""
    return [
        (make_patch(w, h, generation_time=t, slo=slo), t + 0.02)
        for w, h, t, slo in trace
    ]


def _batch_metrics(scheduler: TangramScheduler):
    return [
        (
            batch.batch_id,
            batch.invoke_time,
            batch.completion_time,
            batch.execution_time,
            batch.cost,
            batch.num_canvases,
            batch.num_patches,
            batch.total_canvas_pixels,
            batch.total_patch_pixels,
            tuple(batch.canvas_efficiencies),
            tuple(sorted(o.patch.patch_id for o in batch.outcomes)),
        )
        for batch in scheduler.batches
    ]


def test_full_repack_equivalent_mode_metrics_are_identical():
    """The regression guarantee: fast path on (equivalence mode) and off
    produce byte-identical BatchRecord metrics on a mixed arrival trace."""
    trace = _materialise(_arrival_trace())
    literal = _run_trace(trace, incremental=False)
    equivalent = _run_trace(trace, always_repack=True, incremental=True)
    assert _batch_metrics(literal) == _batch_metrics(equivalent)


def test_fast_path_meets_slos_on_steady_load():
    simulator = Simulator()
    scheduler = _scheduler(simulator, incremental=True)
    arrival = 0.0
    for _ in range(60):
        arrival += 0.03
        patch = make_patch(300, 400, generation_time=arrival, slo=1.0)
        simulator.schedule_at(
            arrival + 0.05, lambda sim, p=patch: scheduler.receive_patch(p)
        )
    simulator.run()
    scheduler.flush()
    simulator.run()
    assert len(scheduler.all_outcomes) == 60
    assert scheduler.slo_violation_rate <= 0.05


def test_fast_path_respects_memory_constraint():
    simulator = Simulator()
    scheduler = _scheduler(
        simulator,
        incremental=True,
        gpu_memory_gb=6.0,
        model_memory_gb=2.5,
        canvas_memory_gb=0.35,
    )
    for index in range(14):
        patch = make_patch(1000, 1000, generation_time=0.0, slo=5.0)
        simulator.schedule_at(
            0.01 * index, lambda sim, p=patch: scheduler.receive_patch(p)
        )
    simulator.run()
    scheduler.flush()
    simulator.run()
    assert all(
        batch.num_canvases <= scheduler.max_canvases for batch in scheduler.batches
    )
    assert len(scheduler.batches) >= 2


def test_fast_path_flush_resets_packer_state():
    simulator = Simulator()
    scheduler = _scheduler(simulator, incremental=True)
    patch = make_patch(200, 200, generation_time=0.0, slo=10.0)
    simulator.schedule_at(0.0, lambda sim: scheduler.receive_patch(patch))
    simulator.run(until=0.1)
    assert scheduler.pending_patches == 1
    scheduler.flush()
    simulator.run()
    assert scheduler.pending_patches == 0
    assert scheduler.pending_canvases == 0
    # A new patch after the flush starts a clean queue.
    late = make_patch(250, 250, generation_time=simulator.now, slo=10.0)
    scheduler.receive_patch(late)
    assert scheduler.pending_patches == 1
    assert scheduler.packing_stats["resets"] >= 1


def test_fast_path_uses_incremental_placements():
    """The point of the fast path: most arrivals must not re-pack."""
    trace = _arrival_trace(count=120, seed=3)
    scheduler = _run_trace(trace, incremental=True)
    stats = scheduler.packing_stats
    assert stats["probes"] == 120
    assert stats["incremental_placements"] > stats["full_repacks"]


def test_fast_path_tracks_earliest_deadline_like_literal_mode():
    """The heap must yield the same earliest deadline the O(n) scan did:
    with one loose-SLO patch followed by tight-SLO patches, the invocation
    must still honour the tightest deadline."""
    trace = _materialise(
        [
            (300.0, 300.0, 0.0, 5.0),  # loose
            (300.0, 300.0, 0.05, 1.0),  # tight — earliest deadline
            (200.0, 200.0, 0.1, 4.0),
        ]
    )
    literal = _run_trace(trace, incremental=False)
    fast = _run_trace(trace, always_repack=True, incremental=True)
    assert [b.invoke_time for b in literal.batches] == [
        b.invoke_time for b in fast.batches
    ]
    for outcome in fast.all_outcomes:
        assert not outcome.violated


def test_incremental_mode_stays_close_to_literal_metrics():
    """Default fast path: aggregate metrics stay within a few percent of
    the literal implementation (cost, violations, canvas efficiency)."""
    trace = _arrival_trace(count=120, seed=9)
    literal = _run_trace(trace, incremental=False)
    fast = _run_trace(trace, incremental=True)
    assert fast.slo_violation_rate <= literal.slo_violation_rate + 0.05
    lit_eff = np.mean(
        [e for b in literal.completed_batches for e in b.canvas_efficiencies]
    )
    fast_eff = np.mean(
        [e for b in fast.completed_batches for e in b.canvas_efficiencies]
    )
    assert fast_eff >= lit_eff - 0.05 * max(lit_eff, 1e-9)
    assert fast.total_cost <= literal.total_cost * 1.10


def test_estimate_memoisation_returns_identical_slack():
    latency_model = DetectorLatencyModel.serverless()
    estimator = LatencyEstimator(
        latency_model=latency_model, iterations=100, streams=RandomStreams(5)
    )
    solver = PatchStitchingSolver()
    patches = [make_patch(400, 400, generation_time=0.0, slo=1.0) for _ in range(6)]
    canvases = solver.pack(patches)
    first = estimator.estimate(canvases)
    assert estimator.estimate(canvases) == first  # cache hit
    assert first == pytest.approx(estimator.slack_time(len(canvases)))
    estimator._estimate_cache.clear()
    assert estimator.estimate(canvases) == first


def test_estimate_memo_is_exact_for_oversized_canvases():
    """Packings with the same canvas count and pixel bucket but different
    equivalent-canvas counts must never share a memo entry — the cached
    slack would otherwise under-estimate the larger batch."""
    latency_model = DetectorLatencyModel.serverless()
    estimator = LatencyEstimator(
        latency_model=latency_model, iterations=100, streams=RandomStreams(5)
    )
    solver = PatchStitchingSolver(canvas_width=1024, canvas_height=1024)
    # Two oversized canvases, 0.9x + 0.95x canvas pixels -> equivalent 2.
    a = solver.pack(
        [
            make_patch(1024 * 0.9, 1025, generation_time=0.0, slo=1.0),
            make_patch(1024 * 0.95, 1025, generation_time=0.0, slo=1.0),
        ]
    )
    assert all(c.oversized for c in a)
    # Same count, same pixel bucket, but 0.5x + 1.3x -> equivalent 1 + 2 = 3.
    b = solver.pack(
        [
            make_patch(1024 * 0.5, 1025, generation_time=0.0, slo=1.0),
            make_patch(1024 * 1.3, 1025, generation_time=0.0, slo=1.0),
        ]
    )
    assert all(c.oversized for c in b)
    assert estimator.estimate(a) == pytest.approx(estimator.slack_time(2))
    assert estimator.estimate(b) == pytest.approx(estimator.slack_time(3))
