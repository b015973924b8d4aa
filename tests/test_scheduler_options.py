"""The SchedulerOptions API: one frozen record for every scheduler knob.

The contract of the redesign:

* every knob keeps its historical default, and the record holds exactly
  the two knobs that move a decision on the benchmark workloads;
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
            "partial_patch_budget",
        ]
        assert options.incremental is True
        assert options.partial_patch_budget == 48

    # Row order keeps the test ids stable: ``overrides5`` is still the
    # budget's lower bound, and the budget's new rows fill the other slots.
    @pytest.mark.parametrize(
        "overrides",
        [
            {"partial_patch_budget": float("nan")},
            {"partial_patch_budget": float("inf")},
            {"partial_patch_budget": 2.5},
            {"partial_patch_budget": -1},
            {"partial_patch_budget": 0},
            {"partial_patch_budget": 1},
            {"partial_patch_budget": 48.0},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            SchedulerOptions(**overrides)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SchedulerOptions().partial_patch_budget = 32  # type: ignore[misc]


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


def _estimator(**kwargs):
    from repro.core.latency import LatencyEstimator
    from repro.vision.detector import DetectorLatencyModel

    return LatencyEstimator(DetectorLatencyModel.serverless(), **kwargs)


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
#: ``use_index=``, whose deprecation cycle ended earlier; the record's
#: own fields that always decided as constants or never acted; the
#: fleet config's ingest knobs, which left with the ingest queue; and
#: the fields no runner set: the offline facade's online-scheduler
#: wiring, the end-to-end runner's uplink fault knobs, ingest expiry and
#: per-camera uplinks, and the estimator's eager-profiling bound and
#: memo bucket.
_REMOVED = {
    "options": (
        SchedulerOptions,
        {"drift_margin": 0.05, "max_partial_victims": 8, "admission_watermark": 16},
    ),
    "stitch": (
        _stitcher,
        {"use_index": False, **{knob: _SCHEDULER_KWARGS[knob] for knob in _STITCHER_KWARGS}},
    ),
    "sched": (_scheduler, _SCHEDULER_KWARGS),
    "e2e": (
        EndToEndConfig,
        {
            **_CONFIG_FIELDS,
            "uplink_loss_probability": 0.02,
            "uplink_jitter_s": 0.01,
            "uplink_fault_seed": 7,
            "expire_stale_at_ingest": True,
            "shared_uplink": False,
        },
    ),
    "tangram": (
        TangramConfig,
        {
            **_CONFIG_FIELDS,
            "gpu_memory_gb": 6.0,
            "model_memory_gb": 2.5,
            "canvas_memory_gb": 0.35,
            "latency_profile_iterations": 300,
            "scheduler_options": SchedulerOptions(),
        },
    ),
    "fleet": (
        FleetScenarioConfig,
        {
            "repack_scope": "queue",
            "admission_watermark": 16,
            "queue_capacity": 64,
            "high_watermark": 128,
            "low_watermark": 64,
            "drain_interval": 0.05,
        },
    ),
    "estimator": (_estimator, {"max_batch_size": 16, "pixel_bucket": 0.0}),
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
    assert scheduler._packer.partial_patch_budget == record.partial_patch_budget


class TestConfigResolution:
    """Each runner config's ``scheduler_options`` record is the very
    object its scheduler, and that scheduler's stitcher, is built from."""

    def test_endtoend_config_options_win_wholesale(self):
        from repro.pipeline.endtoend import EndToEndRunner

        record = SchedulerOptions(partial_patch_budget=32)
        runner = EndToEndRunner(EndToEndConfig(scheduler_options=record), {"camera-0": []})
        _assert_built_from(runner.scheduler, record)

    def test_fleet_config_record_reaches_every_shard(self):
        from repro.fleet.shard import ShardWorker
        from repro.simulation.random_streams import RandomStreams
        from repro.vision.detector import DetectorLatencyModel

        record = SchedulerOptions(partial_patch_budget=32)
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
        """Both runner configs default to the same ``SchedulerOptions()``,
        the one record the fleet runs and the end-to-end runner
        consolidate with."""
        for config in (FleetScenarioConfig(), EndToEndConfig()):
            assert config.scheduler_options == SchedulerOptions()
