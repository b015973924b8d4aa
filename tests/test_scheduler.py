"""Tests for the online SLO-aware batching scheduler (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.core.latency import LatencyEstimator
from repro.core.scheduler import TangramScheduler
from repro.core.stitching import PatchStitchingSolver
from repro.serverless.platform import ServerlessPlatform
from repro.simulation.engine import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel
from tests.conftest import make_patch


def _scheduler(simulator: Simulator, **kwargs) -> TangramScheduler:
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
        **kwargs,
    )


def test_single_patch_is_invoked_before_its_deadline():
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    patch = make_patch(300, 300, generation_time=0.0, slo=1.0)
    simulator.schedule_at(0.1, lambda sim: scheduler.receive_patch(patch))
    simulator.run()
    assert len(scheduler.completed_batches) == 1
    outcome = scheduler.all_outcomes[0]
    assert outcome.latency <= 1.0 + 1e-6
    assert not outcome.violated


def test_scheduler_waits_to_accumulate_patches():
    """Patches arriving well before the deadline get batched together."""
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    for index in range(6):
        patch = make_patch(250, 250, generation_time=0.0, slo=1.0)
        simulator.schedule_at(0.05 * index, lambda sim, p=patch: scheduler.receive_patch(p))
    simulator.run()
    assert len(scheduler.completed_batches) == 1
    assert scheduler.completed_batches[0].num_patches == 6


def test_invocation_fires_at_deadline_minus_slack():
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    patch = make_patch(300, 300, generation_time=0.0, slo=1.0)
    simulator.schedule_at(0.0, lambda sim: scheduler.receive_patch(patch))
    simulator.run()
    batch = scheduler.completed_batches[0]
    slack = scheduler.estimator.slack_time(1)
    assert batch.invoke_time == pytest.approx(1.0 - slack, abs=1e-6)


def test_late_patch_triggers_immediate_flush_of_old_canvases():
    """A patch whose own deadline cannot accommodate the queue forces the
    old canvases out (Algorithm 2, lines 11-17)."""
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    early = make_patch(300, 300, generation_time=0.0, slo=1.0)
    # This patch arrives with almost no time left before its deadline.
    late = make_patch(300, 300, generation_time=0.0, slo=0.16)
    simulator.schedule_at(0.0, lambda sim: scheduler.receive_patch(early))
    simulator.schedule_at(0.15, lambda sim: scheduler.receive_patch(late))
    simulator.run()
    # Two separate invocations: the early patch's canvases were shipped when
    # the late patch arrived (or at its own timer), the late one separately.
    assert len(scheduler.completed_batches) == 2
    early_outcome = next(
        o for b in scheduler.completed_batches for o in b.outcomes if o.patch is early
    )
    assert not early_outcome.violated


def test_memory_constraint_limits_batch_size():
    simulator = Simulator()
    scheduler = _scheduler(simulator, gpu_memory_gb=6.0, model_memory_gb=2.5,
                           canvas_memory_gb=0.35)
    assert scheduler.max_canvases == 10
    # 14 canvases' worth of large patches arrive back-to-back with a loose SLO.
    for index in range(14):
        patch = make_patch(1000, 1000, generation_time=0.0, slo=5.0)
        simulator.schedule_at(0.01 * index, lambda sim, p=patch: scheduler.receive_patch(p))
    simulator.run()
    scheduler.flush()
    simulator.run()
    assert all(
        batch.num_canvases <= scheduler.max_canvases for batch in scheduler.batches
    )
    assert len(scheduler.batches) >= 2


def test_slo_violation_rate_stays_low_under_steady_load():
    """The headline SLO claim: violations stay within a few percent."""
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    arrival = 0.0
    for index in range(60):
        arrival += 0.03
        patch = make_patch(300, 400, generation_time=arrival, slo=1.0)
        simulator.schedule_at(arrival + 0.05, lambda sim, p=patch: scheduler.receive_patch(p))
    simulator.run()
    scheduler.flush()
    simulator.run()
    assert len(scheduler.all_outcomes) == 60
    assert scheduler.slo_violation_rate <= 0.05


def test_flush_invokes_pending_canvases():
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    patch = make_patch(200, 200, generation_time=0.0, slo=10.0)
    simulator.schedule_at(0.0, lambda sim: scheduler.receive_patch(patch))
    simulator.run(until=0.1)
    assert scheduler.pending_patches == 1
    scheduler.flush()
    simulator.run()
    assert len(scheduler.completed_batches) == 1
    assert scheduler.pending_patches == 0


def test_total_cost_matches_platform_billing():
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    for index in range(5):
        patch = make_patch(300, 300, generation_time=0.0, slo=1.0)
        simulator.schedule_at(0.02 * index, lambda sim, p=patch: scheduler.receive_patch(p))
    simulator.run()
    scheduler.flush()
    simulator.run()
    assert scheduler.total_cost == pytest.approx(scheduler.platform.total_cost)
    assert scheduler.total_cost > 0


def test_batch_record_canvas_efficiency_populated():
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    for index in range(4):
        patch = make_patch(400, 400, generation_time=0.0, slo=1.0)
        simulator.schedule_at(0.01 * index, lambda sim, p=patch: scheduler.receive_patch(p))
    simulator.run()
    batch = scheduler.completed_batches[0]
    assert batch.canvas_efficiencies
    assert 0.0 < batch.mean_canvas_efficiency <= 1.0
    assert batch.amortised_latency_per_patch > 0


def test_invalid_memory_configuration_rejected():
    simulator = Simulator()
    platform = ServerlessPlatform(simulator, cold_start_time=0.0)
    with pytest.raises(ValueError):
        TangramScheduler(simulator, platform, gpu_memory_gb=2.0, model_memory_gb=2.5)


_NAN = float("nan")


@pytest.mark.parametrize(
    "sizes",
    [
        # Each was accepted and only went wrong later: a batch cap of 1
        # or 20 canvases, or a NaN/zero/inf error at the first cap read.
        {"canvas_memory_gb": -1.0},
        {"model_memory_gb": -1.0},
        {"canvas_memory_gb": 0.0},
        {"gpu_memory_gb": _NAN},
        {"model_memory_gb": _NAN},
        {"canvas_memory_gb": _NAN},
        {"gpu_memory_gb": float("inf")},
    ],
    ids=["canvas-negative", "model-negative", "canvas-zero", "gpu-nan", "model-nan",
         "canvas-nan", "gpu-inf"],
)
def test_bad_memory_sizes_rejected_at_construction(sizes):
    simulator = Simulator()
    platform = ServerlessPlatform(simulator, cold_start_time=0.0)
    with pytest.raises(ValueError):
        TangramScheduler(simulator, platform, **sizes)


def test_invoke_canvases_with_empty_list_is_noop():
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    assert scheduler.invoke_canvases([]) is None
    assert scheduler.batches == []
