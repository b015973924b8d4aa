"""Equivalence and behaviour tests for ``repro.core.consolidation``.

Three contracts are pinned here:

* the consolidation trial is the pre-refactor ``_plan_partial_repack``
  path, byte-identical: every attempted consolidation produces exactly
  the plan a verbatim reference implementation of the old inline logic
  (rescan-and-sort victim selection, combined-capacity check, trial
  ``pack_within``, and *no* other pre-checks) computes from the same
  state.  This simultaneously proves the unpairable-patch pre-check is
  decision-neutral: it only rejects pools whose trial pack fails.
* the failed-attempt backoff holds attempts back until the queue grew
  by the failure streak, and a success or a reset disarms it.
* every attempt the backoff lets through either fails an exact
  pre-check or runs the trial pack — none is turned away on a guess:
  each pre-check firing coincides with a failing trial pack, the
  pre-checks are decision-neutral, and a cheaper max-free-extent guess
  would be unsound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import consolidation
from repro.core.consolidation import MAX_PARTIAL_VICTIMS, PARTIAL_PATCH_BUDGET, unpairable
from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver
from repro.video.geometry import Box
from tests.conftest import free_rectangles

fitting_sizes = st.tuples(
    st.floats(min_value=10.0, max_value=1000.0, allow_nan=False),
    st.floats(min_value=10.0, max_value=1000.0, allow_nan=False),
)


def _patches(size_list) -> list[Patch]:
    return [
        Patch(
            camera_id="cam",
            frame_index=0,
            region=Box(0.0, 0.0, width, height),
            generation_time=0.0,
            slo=1.0,
        )
        for width, height in size_list
    ]


def _placement_key(canvases):
    return [(p.patch.patch_id, p.x, p.y) for c in canvases for p in c.placements]


def _uniform_mix(count: int, seed: int, lo: float = 64.0, hi: float = 640.0):
    rng = np.random.default_rng(seed)
    return _patches(zip(rng.uniform(lo, hi, size=count), rng.uniform(lo, hi, size=count)))


def _giant_mix(count: int, seed: int, share: float = 0.2):
    """A fleet crowded with never-pairing giants: ``share`` of the RoIs
    are :func:`unpairable` (520-800 px a side on a 1024 canvas), the
    rest small crops.  Victim pools nearly always hold more giants than
    canvases, the regime the unpairable pre-check rejects."""
    rng = np.random.default_rng(seed)
    sizes = []
    for _ in range(count):
        lo, hi = (520.0, 800.0) if rng.random() < share else (64.0, 400.0)
        sizes.append(tuple(rng.uniform(lo, hi, size=2)))
    return _patches(sizes)


def _crowded_mix(count: int, seed: int):
    """The crowded-fleet mix — wide-flat RoIs that pair two per canvas,
    near-canvas giants, and a trickle of small crops: sustained
    wasteful-overflow pressure where trial re-packs keep failing on
    slowly-changing victim pools.  Imported from the harness so the pins
    exercise exactly the distribution the benchmark profiles."""
    from benchmarks.perf.harness import _make_crowded_patches

    return _make_crowded_patches(count, seed)


def _stitcher(partial_patch_budget: int = PARTIAL_PATCH_BUDGET) -> IncrementalStitcher:
    """A stitcher whose re-pack budget a test may lower (the attribute is
    a test seam; production always runs the constant)."""
    stitcher = IncrementalStitcher(PatchStitchingSolver())
    stitcher.partial_patch_budget = partial_patch_budget
    return stitcher


def _envelope(canvas) -> tuple[float, float]:
    """The canvas's max free extent ``(max_w, max_h)``: the widest and
    the tallest free rectangle, possibly two different ones."""
    rects = free_rectangles(canvas)
    return (
        max((rect.width for rect in rects), default=0.0),
        max((rect.height for rect in rects), default=0.0),
    )


# ------------------------------------------------- pre-refactor reference
def _reference_partial_plan(stitcher: IncrementalStitcher, patch: Patch):
    """The pre-refactor ``_plan_partial_repack`` logic, reimplemented
    verbatim from first principles: victims by ascending ``(efficiency,
    canvas_index)`` over a full rescan (the heap selection was pinned to
    this order by ``tests/test_skyline.py``), the combined-capacity
    check, and the bounded trial pack — no unpairable pre-check.
    Returns ``None`` or ``(victim_indices, repacked_placement_key,
    canvases_after)``.
    """
    candidates = sorted(
        (canvas.efficiency, index)
        for index, canvas in enumerate(stitcher.canvases)
        if not canvas.oversized
    )
    pool = [patch]
    pool_used = 0.0
    victims: list[int] = []
    for _eff, index in candidates:
        if len(victims) >= MAX_PARTIAL_VICTIMS:
            break
        if len(pool) >= stitcher.partial_patch_budget:
            break
        canvas = stitcher.canvases[index]
        if len(pool) + canvas.num_patches > stitcher.partial_patch_budget:
            continue
        pool.extend(canvas.patches)
        pool_used += canvas.used_area
        victims.append(index)
    if not victims:
        return None
    canvas_area = stitcher.solver.canvas_area
    if len(victims) * canvas_area - pool_used < patch.area:
        return None
    repacked = stitcher.solver.pack_within(pool, len(victims))
    if repacked is None:
        return None
    delta = len(repacked) - len(victims)
    return victims, _placement_key(repacked), len(stitcher.canvases) + delta


class TestRepackMatchesPreRefactorPath:
    def _pin_stream(self, patches, **kw):
        stitcher = _stitcher(**kw)
        attempts_seen = 0
        for patch in patches:
            before = stitcher.consolidation_stats["attempts"]
            plan = stitcher.probe(patch)
            attempted = stitcher.consolidation_stats["attempts"] > before
            if attempted:
                attempts_seen += 1
                reference = _reference_partial_plan(stitcher, patch)
                if plan.kind == "partial":
                    assert reference is not None
                    ref_victims, ref_key, ref_after = reference
                    assert plan.victim_indices == ref_victims
                    assert plan.canvases_after == ref_after
                    assert plan.repacked is not None
                    assert _placement_key(plan.repacked) == ref_key
                else:
                    assert plan.kind == "new"
                    assert reference is None
            stitcher.commit(plan)
        return attempts_seen

    @settings(max_examples=30, deadline=None)
    @given(st.lists(fitting_sizes, min_size=10, max_size=60))
    def test_randomized_streams_match_reference(self, size_list):
        self._pin_stream(_patches(size_list), partial_patch_budget=8)

    @pytest.mark.parametrize("depth", [64, 256, 1024])
    def test_deep_streams_match_reference(self, depth):
        attempts = self._pin_stream(_crowded_mix(depth, seed=11))
        if depth >= 256:
            assert attempts > 0, "workload never exercised consolidation"


# ------------------------------------------------------------ engine unit
class TestEngineMechanics:
    def test_unpairable_is_strictly_more_than_half(self):
        canvas = (1024.0, 1024.0)
        assert unpairable(_patches([(513.0, 513.0)])[0], *canvas)
        assert not unpairable(_patches([(512.0, 513.0)])[0], *canvas)
        assert not unpairable(_patches([(900.0, 400.0)])[0], *canvas)

    def test_unpairable_precheck_fires_and_is_decision_neutral(self):
        """A pool of unpairable singletons plus an unpairable arrival is
        rejected without a trial pack — and the trial, if run, would have
        failed (checked via the pre-refactor reference)."""
        stitcher = _stitcher()
        # A fresh queue deeper than the patch budget; reset() leaves the
        # backoff disarmed, so the probe below attempts.
        stitcher.reset(_patches([(600.0, 600.0)] * 60))
        probe_patch = _patches([(700.0, 700.0)])[0]
        before = stitcher.consolidation_stats["unpairable_rejects"]
        plan = stitcher.probe(probe_patch)
        assert plan.kind == "new"
        assert stitcher.consolidation_stats["unpairable_rejects"] == before + 1
        assert _reference_partial_plan(stitcher, probe_patch) is None

    def test_worst_slot_peek_does_not_consume_valid_entries(self):
        """Victim selection peeks the worst slots off the efficiency heap:
        it may drop stale entries, but every valid entry it pops goes
        back, so back-to-back selections agree, leave the candidates
        untouched, and start at the least-efficient canvas."""
        stitcher = _stitcher()
        for patch in _uniform_mix(256, seed=1):
            stitcher.add(patch)
        engine = stitcher.consolidation_engine
        candidates = engine.heap_entries()
        probe_patch = _patches([(900.0, 900.0)])[0]
        _pool, first_used, first = engine.select_victims(probe_patch)
        _pool, second_used, second = engine.select_victims(probe_patch)
        assert first and first == second and first_used == second_used
        assert engine.heap_entries() == candidates
        worst = stitcher.canvases[first[0]]
        assert all(
            worst.efficiency <= canvas.efficiency + 1e-9
            for canvas in stitcher.canvases
            if not canvas.oversized
        )

    def test_retry_backoff_gates_attempts(self):
        """A failed attempt arms the linear backoff: until the queue has
        grown by the failure streak no wasteful overflow attempts, and
        the next attempt re-arms (failure) or disarms (success) it — read
        off the engine's state around every arrival."""
        stitcher = _stitcher()
        engine = stitcher.consolidation_engine
        gated = 0
        for patch in _crowded_mix(512, seed=5):
            queued = len(stitcher.patches)
            retry_size, failures = engine._retry_size, engine._failures
            attempts = engine.stats["attempts"]
            plan = stitcher.probe(patch)
            if engine.stats["attempts"] == attempts:
                assert (engine._retry_size, engine._failures) == (retry_size, failures)
                if (
                    queued < retry_size
                    and plan.kind == "new"
                    and stitcher._should_repack_on_overflow(patch)
                ):
                    gated += 1
            else:
                assert queued >= retry_size, "attempted while backing off"
                if plan.kind == "partial":
                    assert (engine._retry_size, engine._failures) == (0, 0)
                else:
                    assert engine._failures == failures + 1
                    assert engine._retry_size == queued + failures + 1
            stitcher.commit(plan)
        assert gated > 0, "the backoff never held back a wasteful overflow"

    def test_reset_clears_engine_state(self):
        stitcher = _stitcher()
        for patch in _crowded_mix(256, seed=9):
            stitcher.add(patch)
        engine = stitcher.consolidation_engine
        assert engine._failures > 0, "stream never armed the backoff"
        stitcher.reset()
        assert (engine._failures, engine._retry_size) == (0, 0)
        assert engine.heap_entries() == []


# ------------------------------------------------------- stall predictor
class TestStallPredictor:
    """The two exact pre-checks are the engine's stall predictors: they
    turn an attempt away without its trial pack only when that pack must
    fail.  They must be *conservative* — every firing coincides with a
    failing trial, and decisions are byte-identical with the unpairable
    pre-check on and off — and a cheaper guess from the victims' current
    free extents would be unsound."""

    def _trace(self, patches, **kw):
        stitcher = _stitcher(**kw)
        trace = []
        for patch in patches:
            plan = stitcher.probe(patch)
            trace.append(
                (
                    plan.kind,
                    plan.canvas_index,
                    plan.rect_index,
                    tuple(plan.victim_indices or ()),
                )
            )
            stitcher.commit(plan)
        return stitcher, trace

    def _neutral(self, monkeypatch, patches, **kw):
        on, trace_on = self._trace(patches, **kw)
        monkeypatch.setattr(consolidation, "unpairable", lambda *_args: False)
        off, trace_off = self._trace(patches, **kw)
        assert trace_on == trace_off
        assert _placement_key(on.canvases) == _placement_key(off.canvases)
        assert off.consolidation_stats["unpairable_rejects"] == 0
        return on

    def test_decision_neutral_on_crowded_fleet(self, monkeypatch):
        """The firing regime: a fleet crowded with never-pairing giants,
        where most pools are doomed and skipping their trials must not
        change a single decision."""
        on = self._neutral(monkeypatch, _giant_mix(512, seed=43))
        stats = on.consolidation_stats
        assert stats["unpairable_rejects"] > 0 and stats["trial_packs"] > 0

    def test_decision_neutral_on_uniform_fleet(self, monkeypatch):
        """The committing regime: consolidations succeed here, so a
        pre-check that over-fired would visibly change plans."""
        on = self._neutral(monkeypatch, _uniform_mix(1024, seed=19))
        assert on.stats["partial_repacks"] > 0

    def test_predicted_stalls_match_the_full_probe(self):
        """Every firing is checked against ground truth: the trial pack
        of the same victim pool, run anyway, must fail."""
        stitcher = _stitcher()
        engine = stitcher.consolidation_engine
        checked = 0
        for patch in _giant_mix(512, seed=43):
            before = engine.stats["capacity_rejects"] + engine.stats["unpairable_rejects"]
            plan = stitcher.probe(patch)
            if engine.stats["capacity_rejects"] + engine.stats["unpairable_rejects"] > before:
                pool, _used, victims = engine.select_victims(patch)
                assert stitcher.solver.pack_within(pool, len(victims)) is None
                checked += 1
            stitcher.commit(plan)
        assert checked > 0, "workload never fired a pre-check"

    def test_max_free_extent_precheck_is_unsound(self):
        """A constructed counterexample to a tempting pre-check: an
        incoming patch *taller than every victim's max free extent* whose
        trial re-pack still consolidates — rearranging the victims'
        patches opens a row no current free rectangle shows.  Any
        pre-check that rejects on the victims' current extents would
        wrongly reject this plan."""
        solver = PatchStitchingSolver(canvas_width=100.0, canvas_height=100.0)
        stitcher = IncrementalStitcher(solver)
        stitcher.partial_patch_budget = 5
        # Two victims, each 100x40 + 100x35 (a 100x25 strip left), plus
        # three near-full canvases keeping the victims at the heap root
        # and the queue past the patch budget, whose 5 pooled patches
        # stop the victim set at two.
        for width, height in [
            (100.0, 40.0),
            (100.0, 35.0),
            (100.0, 40.0),
            (100.0, 35.0),
            (100.0, 99.0),
            (100.0, 99.0),
            (100.0, 99.0),
        ]:
            stitcher.add(_patches([(width, height)])[0])
        incoming = _patches([(100.0, 30.0)])[0]
        plan = stitcher.probe(incoming)
        assert plan.kind == "partial", "the trial re-pack must consolidate"
        assert plan.victim_indices == [0, 1]
        for index in plan.victim_indices:
            env_w, env_h = _envelope(stitcher.canvases[index])
            assert incoming.width > env_w or incoming.height > env_h, (
                "counterexample requires the patch to exceed the victim's "
                "max free extent"
            )
        committed = stitcher.commit(plan)
        PatchStitchingSolver.validate_packing(committed, strict=True)


# ----------------------------------------------------- attempt accounting
def test_every_unrejected_attempt_runs_a_trial_pack(monkeypatch):
    """No attempt is turned away on a guess: each one the backoff lets
    through either fails an exact pre-check or runs the trial pack.
    Pinned on the smallest fleet run found shaped like the benchmark's
    churn workload (10% dropout, 2% loss, two 2x bursts) whose deep
    queue re-tries victim pools that already failed — where skipping
    trials for remembered failures turns attempts away."""
    from repro.core import scheduler as scheduler_module
    from repro.fleet import FaultPlan, FleetScenarioConfig, FleetWorkloadConfig, camera_ids
    from repro.fleet import run_fleet_scenario

    schedulers = []

    class RecordingScheduler(scheduler_module.TangramScheduler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            schedulers.append(self)

    # The shard workers build their schedulers, the unsharded run's
    # included, through ``build_tangram_scheduler``, which looks the
    # class up in its own module.
    monkeypatch.setattr(scheduler_module, "TangramScheduler", RecordingScheduler)
    workload = FleetWorkloadConfig(
        num_cameras=28, fps=4.0, duration_s=0.5, patches_per_frame=2, slo=1.0, seed=0
    )
    plan = FaultPlan.generate(
        seed=0,
        camera_ids=camera_ids(workload),
        duration=workload.duration_s,
        dropout_fraction=0.1,
        dropout_duration=workload.duration_s,
        loss_probability=0.02,
        burst_count=2,
        burst_multiplier=2.0,
    )
    result = run_fleet_scenario(FleetScenarioConfig(workload=workload), plan)
    assert result.errors == 0
    (scheduler,) = schedulers
    stats = scheduler.consolidation_stats
    assert stats["attempts"] > 0
    assert stats["attempts"] == (
        stats["trial_packs"] + stats["capacity_rejects"] + stats["unpairable_rejects"]
    )


# --------------------------------------------------------------- plumbing
class TestKnobPlumbing:
    def test_endtoend_config_validates_policy(self):
        """The end-to-end config carries no consolidation knob: it
        rejects the deleted options record, and its scheduler's stitcher
        consolidates at the constant budget."""
        from repro.pipeline.endtoend import EndToEndConfig, EndToEndRunner

        with pytest.raises(TypeError, match="scheduler_options"):
            EndToEndConfig(scheduler_options=None)
        runner = EndToEndRunner(EndToEndConfig(), {"camera-0": []})
        assert runner.scheduler._packer.partial_patch_budget == PARTIAL_PATCH_BUDGET

    def test_scheduler_exposes_consolidation_stats(self):
        from repro.core.scheduler import TangramScheduler
        from repro.serverless.platform import ServerlessPlatform
        from repro.simulation.engine import Simulator

        simulator = Simulator()
        platform = ServerlessPlatform(simulator)
        scheduler = TangramScheduler(simulator, platform)
        assert set(scheduler.consolidation_stats) == {
            "attempts",
            "trial_packs",
            "capacity_rejects",
            "unpairable_rejects",
        }
