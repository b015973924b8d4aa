"""The SchedulerOptions API: one frozen record for every scheduler knob.

The contract of the redesign:

* every knob keeps its historical default, and the record holds exactly
  the five knobs the benchmark workloads exercise;
* the record is the only carrier: the per-knob kwargs on the scheduler
  and stitcher and the per-knob config fields are gone, and passing one
  fails loudly, as ``use_index=`` does;
* the always-re-pack mode lives on as a test oracle with the same
  meaning;
* each runner config's ``scheduler_options`` record reaches the
  scheduler it builds unchanged, and every runner config defaults to
  the same ``SchedulerOptions()``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.options import SchedulerOptions
from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver
from repro.core.tangram import TangramConfig
from repro.fleet.scenario import FleetScenarioConfig
from repro.pipeline.endtoend import EndToEndConfig
from repro.video.geometry import Box


def _patches(count: int = 160, seed: int = 5) -> list[Patch]:
    rng = np.random.default_rng(seed)
    return [
        Patch(
            camera_id="cam",
            frame_index=0,
            region=Box(0.0, 0.0, float(w), float(h)),
            generation_time=0.0,
            slo=1.0,
        )
        for w, h in zip(
            rng.uniform(64.0, 512.0, size=count),
            rng.uniform(64.0, 512.0, size=count),
        )
    ]


class TestSchedulerOptionsRecord:
    def test_defaults_match_historical_kwarg_defaults(self):
        options = SchedulerOptions()
        assert [field.name for field in dataclasses.fields(options)] == [
            "incremental",
            "drift_margin",
            "max_partial_victims",
            "partial_patch_budget",
            "admission_watermark",
        ]
        assert options.incremental is True
        assert options.drift_margin == 0.05
        assert options.max_partial_victims == 8
        assert options.partial_patch_budget == 48
        assert options.admission_watermark is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"drift_margin": -0.1},
            {"drift_margin": float("nan")},
            {"drift_margin": float("-inf")},
            {"max_partial_victims": -1},
            {"max_partial_victims": 0},
            {"partial_patch_budget": 1},
            {"admission_watermark": 0},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            SchedulerOptions(**overrides)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SchedulerOptions().drift_margin = 0.2  # type: ignore[misc]


class TestBackCompatEquivalence:
    def test_always_repack_maps_to_full_repack_equivalent(self):
        """The always-re-pack oracle the equivalence suites inject keeps
        what ``always_repack=True`` meant: under the same options, its
        live packing after every arrival is the batch packing of the
        whole queue — the literal Algorithm 2 state."""
        from tests.conftest import AlwaysRepackStitcher

        def key(canvases):
            return [(p.patch.patch_id, p.x, p.y) for c in canvases for p in c.placements]

        solver = PatchStitchingSolver()
        options = SchedulerOptions(partial_patch_budget=8)
        oracle = AlwaysRepackStitcher(solver, options=options)
        queue: list[Patch] = []
        for patch in _patches(count=40):
            queue.append(patch)
            oracle.add(patch)
            assert key(oracle.canvases) == key(solver.pack(queue))
        assert oracle.options is options
        assert oracle.stats["full_repacks"] == len(queue)


def _scheduler(**kwargs):
    from repro.core.scheduler import TangramScheduler
    from repro.serverless.platform import ServerlessPlatform
    from repro.simulation.engine import Simulator

    simulator = Simulator()
    return TangramScheduler(simulator, ServerlessPlatform(simulator), **kwargs)


def _stitcher(**kwargs):
    return IncrementalStitcher(PatchStitchingSolver(), **kwargs)


#: The per-knob kwargs ``TangramScheduler`` had (``repack_scope`` and
#: ``canvas_structure`` later left the options record too).
_SCHEDULER_KWARGS = {
    "incremental": False,
    "drift_margin": 0.2,
    "repack_scope": "canvas",
    "max_partial_victims": 4,
    "partial_patch_budget": 32,
    "canvas_structure": "guillotine",
    "admission_watermark": 16,
}
#: ``IncrementalStitcher`` had four of them, and ``EndToEndConfig`` /
#: ``TangramConfig`` five as fields, four of those ``scheduler_``-prefixed.
_STITCHER_KWARGS = ("drift_margin", "repack_scope", "max_partial_victims", "partial_patch_budget")
_CONFIG_FIELDS = {
    ("" if knob == "canvas_structure" else "scheduler_") + knob: value
    for knob, value in _SCHEDULER_KWARGS.items()
    if knob not in ("max_partial_victims", "partial_patch_budget")
}

#: Every removed way of setting a knob next to the options record, plus
#: ``use_index=``, whose deprecation cycle ended earlier.
_REMOVED = {
    "stitch": (
        _stitcher,
        {"use_index": False, **{knob: _SCHEDULER_KWARGS[knob] for knob in _STITCHER_KWARGS}},
    ),
    "sched": (_scheduler, _SCHEDULER_KWARGS),
    "e2e": (EndToEndConfig, _CONFIG_FIELDS),
    "tangram": (TangramConfig, _CONFIG_FIELDS),
    "fleet": (FleetScenarioConfig, {"repack_scope": "queue", "admission_watermark": 16}),
}


class TestUseIndexDeprecation:
    """``use_index=`` finished its deprecation cycle, and every other
    per-knob kwarg and config field followed it: building through the
    options record has nothing left to warn about, and each old
    spelling fails loudly."""

    def test_options_path_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stitcher = IncrementalStitcher(
                PatchStitchingSolver(), options=SchedulerOptions(partial_patch_budget=8)
            )
            for patch in _patches(count=16):
                stitcher.add(patch)
        assert stitcher.options == SchedulerOptions(partial_patch_budget=8)

    @pytest.mark.parametrize(
        "build, knob, value",
        [
            pytest.param(build, knob, value, id=f"{owner}-{knob.removeprefix('scheduler_')}")
            for owner, (build, knobs) in _REMOVED.items()
            for knob, value in knobs.items()
        ],
    )
    def test_rejected(self, build, knob, value):
        with pytest.raises(TypeError):
            build(**{knob: value})


def _online_parts():
    from repro.serverless.platform import ServerlessPlatform
    from repro.simulation.engine import Simulator

    simulator = Simulator()
    return simulator, ServerlessPlatform(simulator)


def _assert_built_from(scheduler, record: SchedulerOptions) -> None:
    assert scheduler.options is record
    assert scheduler._packer.options is record
    assert scheduler.admission_watermark == record.admission_watermark


class TestConfigResolution:
    """Each runner config's ``scheduler_options`` record is the very
    object its scheduler, and that scheduler's stitcher, is built from."""

    def test_tangram_config_options_win_wholesale(self):
        from repro.core.tangram import Tangram

        record = SchedulerOptions(drift_margin=0.3, admission_watermark=16)
        scheduler = Tangram(TangramConfig(scheduler_options=record)).build_online_scheduler(
            *_online_parts()
        )
        _assert_built_from(scheduler, record)

    def test_endtoend_config_options_win_wholesale(self):
        from repro.pipeline.endtoend import EndToEndRunner

        record = SchedulerOptions(drift_margin=0.2, admission_watermark=16)
        runner = EndToEndRunner(EndToEndConfig(scheduler_options=record), {"camera-0": []})
        _assert_built_from(runner.scheduler, record)

    def test_fleet_config_record_reaches_every_shard(self):
        from repro.fleet.shard import ShardWorker
        from repro.simulation.random_streams import RandomStreams
        from repro.vision.detector import DetectorLatencyModel

        record = SchedulerOptions(drift_margin=0.2, admission_watermark=16)
        simulator, platform = _online_parts()
        fleet = FleetScenarioConfig(scheduler_options=record, estimator_iterations=10)
        for shard_id in range(2):
            worker = ShardWorker(
                shard_id,
                simulator,
                platform,
                DetectorLatencyModel.serverless(),
                RandomStreams(0),
                fleet,
                None,
            )
            _assert_built_from(worker.scheduler, record)

    def test_fleet_default_is_canvas_scope(self):
        """Every runner config defaults to the same ``SchedulerOptions()``,
        the one record the fleet runs, the end-to-end runner and the
        facade all consolidate with."""
        for config in (FleetScenarioConfig(), EndToEndConfig(), TangramConfig()):
            assert config.scheduler_options == SchedulerOptions()
