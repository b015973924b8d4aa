"""The scheduler's knobs are constants, and every old way to set one fails.

The contract:

* the re-pack budget and the victim cap are module constants of
  :mod:`repro.core.consolidation` (48 pooled patches, 8 victims), and
  every stitcher starts at that budget; tests lower it through the
  stitcher's ``partial_patch_budget`` attribute, a test seam;
* the options record, the per-knob kwargs on the scheduler and
  stitcher and the per-knob config fields are gone, and passing one
  fails loudly, as ``use_index=`` does;
* the always-re-pack mode lives on as a test oracle with the same
  meaning;
* every runner builds its schedulers on that one production stitcher.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.consolidation import MAX_PARTIAL_VICTIMS, PARTIAL_PATCH_BUDGET
from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver
from repro.core.tangram import TangramConfig
from repro.fleet.scenario import FleetScenarioConfig
from repro.fleet.shard import ShardScenarioConfig
from repro.pipeline.endtoend import EndToEndConfig
from repro.serverless.platform import ScalingPolicy
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
        """The constants keep the defaults the options record had, and a
        fresh stitcher starts at the budget."""
        assert PARTIAL_PATCH_BUDGET == 48
        assert MAX_PARTIAL_VICTIMS == 8
        assert IncrementalStitcher().partial_patch_budget == PARTIAL_PATCH_BUDGET


class TestBackCompatEquivalence:
    def test_always_repack_maps_to_full_repack_equivalent(self):
        """The always-re-pack oracle the equivalence suites inject keeps
        what ``always_repack=True`` meant: whatever the budget, its live
        packing after every arrival is the batch packing of the whole
        queue — the literal Algorithm 2 state."""
        from tests.oracles import AlwaysRepackStitcher

        def key(canvases):
            return [(p.patch.patch_id, p.x, p.y) for c in canvases for p in c.placements]

        solver = PatchStitchingSolver()
        oracle = AlwaysRepackStitcher(solver)
        oracle.partial_patch_budget = 8
        queue: list[Patch] = []
        for patch in _patches(count=40):
            queue.append(patch)
            oracle.add(patch)
            assert key(oracle.canvases) == key(solver.pack(queue))
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


def _platform(**kwargs):
    from repro.serverless.platform import ServerlessPlatform
    from repro.simulation.engine import Simulator

    return ServerlessPlatform(Simulator(), **kwargs)


def _uplink(**kwargs):
    from repro.network.link import Uplink
    from repro.simulation.engine import Simulator

    return Uplink(Simulator(), bandwidth_mbps=40.0, **kwargs)


def _runner(**kwargs):
    from repro.pipeline.endtoend import EndToEndRunner

    return EndToEndRunner(EndToEndConfig(), {"camera-0": []}, **kwargs)


def _run(**kwargs):
    from repro.pipeline.endtoend import run_end_to_end

    return run_end_to_end(EndToEndConfig(), {"camera-0": []}, **kwargs)


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

#: Every removed way of setting a knob, plus ``use_index=``, whose
#: deprecation cycle ended earlier; the options record itself, carried as
#: ``options=`` and ``scheduler_options``; the fleet config's ingest
#: knobs, which left with the ingest queue; and the parameters no runner
#: set: the offline facade's online-scheduler wiring, the end-to-end
#: runner's uplink fault knobs, ingest expiry and per-camera uplinks, the
#: estimator's eager-profiling bound and memo bucket, the platform's
#: pluggable balancer and the uplink's outage windows; the two routing
#: knobs that round robin replaced, the fleet's camera->shard dispatch
#: policy and the scaling policy's opt-out of scale-out; and the runner
#: settings no driver varied: the deployment values both runners now take
#: from their parts' defaults, the end-to-end runner's edge extractor,
#: edge latency and baseline batch shapes, and its second way to seed a
#: run (``streams=``) and its encoder.
_REMOVED = {
    "stitch": (
        _stitcher,
        {
            "use_index": False,
            **{knob: _SCHEDULER_KWARGS[knob] for knob in _STITCHER_KWARGS},
            "options": None,
        },
    ),
    "sched": (_scheduler, {**_SCHEDULER_KWARGS, "options": None}),
    "e2e": (
        EndToEndConfig,
        {
            **_CONFIG_FIELDS,
            "uplink_loss_probability": 0.02,
            "uplink_jitter_s": 0.01,
            "uplink_fault_seed": 7,
            "expire_stale_at_ingest": True,
            "shared_uplink": False,
            "scheduler_options": None,
            "roi_method": "gmm",
            "edge_latency": 0.04,
            "cold_start_time": 0.05,
            "max_instances": 32,
            "baseline_input_size": 640.0,
            "mark_batch_size": 8,
            "clipper_initial_batch": 4,
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
            "scheduler_options": None,
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
            "scheduler_options": None,
            "propagation_delay": 0.005,
            "suspect_after_s": 0.75,
            "dead_after_s": 2.0,
            "reconnect_settle_s": 0.5,
            "canvas_size": 1024.0,
            "max_instances": 32,
            "cold_start_time": 0.05,
        },
    ),
    "estimator": (_estimator, {"max_batch_size": 16, "pixel_bucket": 0.0}),
    "platform": (_platform, {"balancer": None}),
    "uplink": (_uplink, {"outages": ()}),
    "shard": (ShardScenarioConfig, {"dispatch": "round_robin"}),
    "scaling": (ScalingPolicy, {"scale_out_when_busy": False}),
    "runner": (_runner, {"streams": None, "encoder": None}),
    "run": (_run, {"streams": None}),
}


class TestUseIndexDeprecation:
    """``use_index=`` finished its deprecation cycle, and every other
    per-knob kwarg and config field followed it, the options record
    last: building with the defaults has nothing left to warn about,
    and each old spelling fails loudly."""

    def test_options_path_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stitcher = IncrementalStitcher(PatchStitchingSolver())
            stitcher.partial_patch_budget = 8
            for patch in _patches(count=16):
                stitcher.add(patch)
        assert stitcher.num_patches == 16

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


def _assert_production_stitcher(scheduler) -> None:
    """The scheduler packs through a stitcher of its own (not an oracle)
    on its solver, at the constant budget."""
    stitcher = scheduler._packer
    assert type(stitcher) is IncrementalStitcher
    assert stitcher.solver is scheduler.solver
    assert stitcher.equivalent_canvas_pixels == scheduler.estimator.canvas_pixels
    assert stitcher.partial_patch_budget == PARTIAL_PATCH_BUDGET


class TestConfigResolution:
    """Every runner builds its Tangram schedulers on the production
    stitcher; no runner config can change it."""

    def test_endtoend_config_options_win_wholesale(self):
        from repro.pipeline.endtoend import EndToEndRunner

        runner = EndToEndRunner(EndToEndConfig(), {"camera-0": []})
        _assert_production_stitcher(runner.scheduler)

    def test_fleet_config_record_reaches_every_shard(self):
        """Each shard's scheduler packs through a stitcher of its own."""
        from repro.fleet.shard import ShardWorker
        from repro.simulation.random_streams import RandomStreams
        from repro.vision.detector import DetectorLatencyModel

        simulator, platform = _online_parts()
        fleet = FleetScenarioConfig(estimator_iterations=10)
        schedulers = [
            ShardWorker(
                shard_id,
                simulator,
                platform,
                DetectorLatencyModel.serverless(),
                RandomStreams(0),
                fleet,
                None,
            ).scheduler
            for shard_id in range(2)
        ]
        for scheduler in schedulers:
            _assert_production_stitcher(scheduler)
        assert schedulers[0]._packer is not schedulers[1]._packer

    def test_fleet_default_is_canvas_scope(self):
        """Neither runner config has a field left that names a scheduler
        knob, so both run the one production path."""
        for config in (FleetScenarioConfig(), EndToEndConfig()):
            names = [field.name for field in dataclasses.fields(config)]
            assert not [name for name in names if name.startswith("scheduler")]
