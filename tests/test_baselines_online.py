"""Tests for the online baseline schedulers (Clipper, MArk, ELF)."""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.clipper import ClipperScheduler
from repro.baselines.elf import ELFScheduler
from repro.baselines.mark import MArkScheduler
from repro.pipeline.endtoend import STRATEGIES, EndToEndConfig, run_end_to_end
from repro.serverless.platform import ServerlessPlatform
from repro.simulation.engine import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.workloads import build_camera_traces
from tests.conftest import make_patch


def _platform(simulator: Simulator) -> ServerlessPlatform:
    return ServerlessPlatform(simulator, cold_start_time=0.0)


class TestELFScheduler:
    def test_one_invocation_per_patch(self):
        simulator = Simulator()
        scheduler = ELFScheduler(simulator, _platform(simulator), streams=RandomStreams(1))
        for index in range(5):
            patch = make_patch(200, 300, generation_time=0.0, slo=1.0)
            simulator.schedule_at(0.01 * index, lambda sim, p=patch: scheduler.receive_patch(p))
        simulator.run()
        assert len(scheduler.completed_batches) == 5
        assert all(batch.num_patches == 1 for batch in scheduler.completed_batches)

    def test_no_waiting_latency(self):
        simulator = Simulator()
        scheduler = ELFScheduler(simulator, _platform(simulator), streams=RandomStreams(2))
        patch = make_patch(200, 300, generation_time=0.0, slo=1.0)
        simulator.schedule_at(0.1, lambda sim: scheduler.receive_patch(patch))
        simulator.run()
        batch = scheduler.completed_batches[0]
        assert batch.invoke_time == pytest.approx(0.1)

    def test_flush_is_a_noop(self):
        simulator = Simulator()
        scheduler = ELFScheduler(simulator, _platform(simulator), streams=RandomStreams(3))
        scheduler.flush()
        assert scheduler.batches == []


class TestMArkScheduler:
    def test_dispatch_on_batch_size(self):
        simulator = Simulator()
        scheduler = MArkScheduler(
            simulator, _platform(simulator), batch_size=3, timeout=10.0,
            streams=RandomStreams(4),
        )
        for index in range(6):
            patch = make_patch(200, 200, generation_time=0.0, slo=5.0)
            simulator.schedule_at(0.01 * index, lambda sim, p=patch: scheduler.receive_patch(p))
        simulator.run()
        assert len(scheduler.completed_batches) == 2
        assert all(batch.num_patches == 3 for batch in scheduler.completed_batches)

    def test_dispatch_on_timeout(self):
        simulator = Simulator()
        scheduler = MArkScheduler(
            simulator, _platform(simulator), batch_size=100, timeout=0.2,
            streams=RandomStreams(5),
        )
        patch = make_patch(200, 200, generation_time=0.0, slo=5.0)
        simulator.schedule_at(0.0, lambda sim: scheduler.receive_patch(patch))
        simulator.run()
        assert len(scheduler.completed_batches) == 1
        assert scheduler.completed_batches[0].invoke_time == pytest.approx(0.2)

    def test_fixed_input_size_wastes_pixels_for_small_patches(self):
        """The padding cost: a 200x200 patch occupies a 640x640 input."""
        simulator = Simulator()
        scheduler = MArkScheduler(
            simulator, _platform(simulator), batch_size=1, timeout=1.0,
            input_size=640.0, streams=RandomStreams(6),
        )
        patch = make_patch(200, 200, generation_time=0.0, slo=5.0)
        simulator.schedule_at(0.0, lambda sim: scheduler.receive_patch(patch))
        simulator.run()
        batch = scheduler.completed_batches[0]
        assert batch.total_canvas_pixels == pytest.approx(640 * 640)
        assert batch.total_patch_pixels == pytest.approx(200 * 200)

    def test_oversized_patch_handled(self):
        simulator = Simulator()
        scheduler = MArkScheduler(
            simulator, _platform(simulator), batch_size=1, timeout=1.0,
            streams=RandomStreams(7),
        )
        patch = make_patch(900, 1500, generation_time=0.0, slo=5.0)
        simulator.schedule_at(0.0, lambda sim: scheduler.receive_patch(patch))
        simulator.run()
        assert scheduler.completed_batches[0].num_patches == 1

    def test_flush_dispatches_remaining(self):
        simulator = Simulator()
        scheduler = MArkScheduler(
            simulator, _platform(simulator), batch_size=10, timeout=100.0,
            streams=RandomStreams(8),
        )
        patch = make_patch(200, 200, generation_time=0.0, slo=5.0)
        simulator.schedule_at(0.0, lambda sim: scheduler.receive_patch(patch))
        simulator.run(until=0.01)
        scheduler.flush()
        simulator.run()
        assert len(scheduler.completed_batches) == 1

    def test_invalid_parameters_rejected(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            MArkScheduler(simulator, _platform(simulator), batch_size=0)
        with pytest.raises(ValueError):
            MArkScheduler(simulator, _platform(simulator), timeout=0.0)
        with pytest.raises(ValueError):
            MArkScheduler(simulator, _platform(simulator), input_size=0.0)
        # Each of these passed the old ``< 1`` / ``<= 0`` tests; a
        # fractional batch size then failed mid-run as a slice index.
        for overrides in (
            {"batch_size": 2.5},
            {"batch_size": float("nan")},
            {"timeout": float("nan")},
            {"timeout": float("inf")},
            {"input_size": float("nan")},
            {"input_size": float("inf")},
        ):
            with pytest.raises(ValueError):
                MArkScheduler(simulator, _platform(simulator), **overrides)


class TestClipperScheduler:
    def test_dispatch_when_target_reached(self):
        simulator = Simulator()
        scheduler = ClipperScheduler(
            simulator, _platform(simulator), initial_batch_size=2,
            streams=RandomStreams(9),
        )
        for index in range(4):
            patch = make_patch(200, 200, generation_time=0.0, slo=5.0)
            simulator.schedule_at(0.01 * index, lambda sim, p=patch: scheduler.receive_patch(p))
        simulator.run()
        scheduler.flush()
        simulator.run()
        assert sum(b.num_patches for b in scheduler.completed_batches) == 4

    def test_deadline_guard_prevents_starvation(self):
        """A lone patch must still be dispatched before its deadline even
        though the AIMD target is larger than one."""
        simulator = Simulator()
        scheduler = ClipperScheduler(
            simulator, _platform(simulator), initial_batch_size=8,
            streams=RandomStreams(10),
        )
        patch = make_patch(200, 200, generation_time=0.0, slo=1.0)
        simulator.schedule_at(0.0, lambda sim: scheduler.receive_patch(patch))
        simulator.run()
        assert len(scheduler.completed_batches) == 1
        assert scheduler.completed_batches[0].invoke_time < 1.0

    def test_aimd_increases_batch_target_on_success(self):
        simulator = Simulator()
        scheduler = ClipperScheduler(
            simulator, _platform(simulator), initial_batch_size=2,
            streams=RandomStreams(11),
        )
        initial = scheduler.batch_size_target
        for index in range(6):
            patch = make_patch(150, 150, generation_time=0.01 * index, slo=5.0)
            simulator.schedule_at(0.01 * index, lambda sim, p=patch: scheduler.receive_patch(p))
        simulator.run()
        assert scheduler.batch_size_target > initial

    def test_aimd_decreases_batch_target_on_violation(self):
        simulator = Simulator()
        scheduler = ClipperScheduler(
            simulator, _platform(simulator), initial_batch_size=4,
            streams=RandomStreams(12),
        )
        # Patches that are already nearly expired: the invocation will
        # violate their SLOs and AIMD must back off.
        for index in range(4):
            patch = make_patch(600, 600, generation_time=0.0, slo=0.05)
            simulator.schedule_at(0.04, lambda sim, p=patch: scheduler.receive_patch(p))
        simulator.run()
        assert scheduler.batch_size_target < 4

    def test_batch_never_exceeds_max(self):
        simulator = Simulator()
        scheduler = ClipperScheduler(
            simulator, _platform(simulator), initial_batch_size=4, max_batch_size=6,
            streams=RandomStreams(13),
        )
        for index in range(20):
            patch = make_patch(150, 150, generation_time=0.0, slo=5.0)
            simulator.schedule_at(0.001 * index, lambda sim, p=patch: scheduler.receive_patch(p))
        simulator.run()
        scheduler.flush()
        simulator.run()
        assert all(b.num_patches <= 6 for b in scheduler.completed_batches)

    def test_invalid_parameters_rejected(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            ClipperScheduler(simulator, _platform(simulator), input_size=0.0)
        with pytest.raises(ValueError):
            ClipperScheduler(simulator, _platform(simulator), initial_batch_size=0)
        # Each of these passed the old ``< 1`` / ``<= 0`` tests; a NaN
        # initial batch ran silently with a NaN AIMD target.
        for overrides in (
            {"initial_batch_size": 2.5},
            {"initial_batch_size": float("nan")},
            {"max_batch_size": 2.5},
            {"max_batch_size": float("nan")},
            {"input_size": float("nan")},
            {"input_size": float("inf")},
            # A NaN decrease failed mid-run in ``int()``, 1.5 turned each
            # decrease into an increase, and a NaN margin was read as the
            # 0.05 floor.
            {"multiplicative_decrease": float("nan")},
            {"multiplicative_decrease": 1.5},
            {"multiplicative_decrease": 0.0},
            {"additive_increase": 2.5},
            {"additive_increase": -1},
            {"additive_increase": 0},
            {"safety_margin": float("nan")},
            {"safety_margin": float("inf")},
            {"safety_margin": -0.1},
            {"safety_margin": 1.5},
        ):
            with pytest.raises(ValueError):
                ClipperScheduler(simulator, _platform(simulator), **overrides)


#: sha256 of each strategy's run on the pinned trace (see
#: :func:`_run_digest`).  The baselines build their one-patch canvases
#: with a bare ``Canvas``, so any change to its free-space bookkeeping
#: that moved a placement would move these.
PINNED_DIGESTS = {
    "tangram": "7c975f3690ce83ad5395c95e8874fd53f4ea61c8680a3a5279200a62e79cb7c8",
    "clipper": "5c53ffa24539f6be608e8d6f12226b66c26f0a2d0e80f7ec2d2ebae49db88b38",
    "elf": "ffe8764940d843281a8004b55a8fddbba502322eea8ed8e18ffa209173cae8f1",
    "mark": "359628eb4c9c135673b27b748b555faeac52a145f911317977327e0957a49fc7",
}


def _run_digest(result) -> str:
    """Hash every batch's invoke time, patch and canvas counts, canvas
    efficiencies, cost and canvas pixels, plus the sorted patch
    latencies (exact float reprs)."""
    digest = hashlib.sha256()
    for batch in result.batches:
        digest.update(
            repr(
                (
                    batch.invoke_time,
                    batch.num_patches,
                    batch.num_canvases,
                    tuple(batch.canvas_efficiencies),
                    batch.cost,
                    batch.total_canvas_pixels,
                )
            ).encode()
        )
    digest.update(repr(sorted(o.latency for o in result.outcomes)).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def pinned_traces():
    return build_camera_traces(
        num_cameras=3, frames_per_camera=12, seed=5, max_concurrent_objects=60
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_run_matches_pinned_digest(pinned_traces, strategy):
    result = run_end_to_end(EndToEndConfig(strategy=strategy), pinned_traces)
    assert result.outcomes
    assert _run_digest(result) == PINNED_DIGESTS[strategy]
