"""The SchedulerOptions API: one frozen record for every scheduler knob.

The contract of the redesign:

* every knob keeps its historical default, so ``SchedulerOptions()`` is
  the status quo, and the record holds exactly the seven knobs the
  benchmark workloads exercise;
* the legacy per-kwarg surface stays as a thin back-compat layer: an
  explicitly passed kwarg overrides the matching ``options=`` field, and
  a kwargs-built object is byte-identical to an options-built one;
* removed knobs stay removed: ``use_index=`` is rejected, and the
  always-re-pack mode lives on as a test oracle with the same meaning;
* ``TangramConfig`` / ``EndToEndConfig`` resolve their scattered
  ``scheduler_*`` fields into one options record (a provided
  ``scheduler_options=`` wins wholesale).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.options import REPACK_SCOPES, SchedulerOptions
from repro.core.patches import Patch
from repro.core.stitching import IncrementalStitcher, PatchStitchingSolver
from repro.core.tangram import TangramConfig
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


def _placements(stitcher: IncrementalStitcher) -> list[tuple]:
    # Keyed by geometry, not patch_id: the id counter is process-global,
    # so the two equivalence arms' streams number their patches apart.
    return [
        (p.patch.region.width, p.patch.region.height, p.x, p.y)
        for canvas in stitcher.canvases
        for p in canvas.placements
    ]


class TestSchedulerOptionsRecord:
    def test_defaults_match_historical_kwarg_defaults(self):
        options = SchedulerOptions()
        assert [field.name for field in dataclasses.fields(options)] == [
            "incremental",
            "drift_margin",
            "repack_scope",
            "max_partial_victims",
            "partial_patch_budget",
            "canvas_structure",
            "admission_watermark",
        ]
        assert options.incremental is True
        assert options.drift_margin == 0.05
        assert options.repack_scope == "queue"
        assert options.max_partial_victims == 8
        assert options.partial_patch_budget == 48
        assert options.canvas_structure == "skyline"
        assert options.admission_watermark is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"drift_margin": -0.1},
            {"drift_margin": float("nan")},
            {"repack_scope": "galaxy"},
            {"canvas_structure": "voronoi"},
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

    def test_replace_revalidates(self):
        options = SchedulerOptions().replace(repack_scope="canvas")
        assert options.repack_scope == "canvas"
        with pytest.raises(ValueError):
            options.replace(repack_scope="galaxy")

    def test_merged_with_skips_unset_and_overrides_set(self):
        from repro.core.options import UNSET

        base = SchedulerOptions(repack_scope="canvas", drift_margin=0.1)
        merged = base.merged_with(
            repack_scope=UNSET, drift_margin=0.2, admission_watermark=UNSET
        )
        assert merged.repack_scope == "canvas"
        assert merged.drift_margin == 0.2
        assert merged.admission_watermark is None

    def test_describe_is_json_friendly(self):
        import json

        # ``inf`` is the documented "never re-pack on overflow" setting:
        # it validates, and describe() stringifies it.
        payload = SchedulerOptions(drift_margin=float("inf")).describe()
        decoded = json.loads(json.dumps(payload))
        assert decoded["repack_scope"] in REPACK_SCOPES
        assert decoded["drift_margin"] == "inf"


class TestBackCompatEquivalence:
    def test_stitcher_kwargs_equal_options(self):
        kwargs = dict(
            repack_scope="canvas",
            max_partial_victims=4,
            partial_patch_budget=32,
        )
        via_kwargs = IncrementalStitcher(PatchStitchingSolver(), **kwargs)
        via_options = IncrementalStitcher(
            PatchStitchingSolver(), options=SchedulerOptions(**kwargs)
        )
        for patch in _patches():
            via_kwargs.add(patch)
        for patch in _patches():
            via_options.add(patch)
        assert _placements(via_kwargs) == _placements(via_options)
        assert via_kwargs.options == via_options.options

    def test_explicit_kwarg_overrides_options_field(self):
        stitcher = IncrementalStitcher(
            PatchStitchingSolver(),
            options=SchedulerOptions(repack_scope="queue"),
            repack_scope="canvas",
        )
        assert stitcher.options.repack_scope == "canvas"

    def test_always_repack_maps_to_full_repack_equivalent(self):
        """The always-re-pack oracle the equivalence suites inject keeps
        what ``always_repack=True`` meant: under the same options, its
        live packing after every arrival is the batch packing of the
        whole queue — the literal Algorithm 2 state."""
        from tests.conftest import AlwaysRepackStitcher

        def key(canvases):
            return [(p.patch.patch_id, p.x, p.y) for c in canvases for p in c.placements]

        solver = PatchStitchingSolver()
        options = SchedulerOptions(repack_scope="canvas", partial_patch_budget=8)
        oracle = AlwaysRepackStitcher(solver, options=options)
        queue: list[Patch] = []
        for patch in _patches(count=40):
            queue.append(patch)
            oracle.add(patch)
            assert key(oracle.canvases) == key(solver.pack(queue))
        assert oracle.options is options
        assert oracle.stats["full_repacks"] == len(queue)


class TestUseIndexDeprecation:
    """``use_index=`` finished its deprecation cycle: the knob is gone
    from every layer, so building through the options record has nothing
    left to warn about and the old kwarg fails loudly."""

    def test_options_path_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stitcher = IncrementalStitcher(
                PatchStitchingSolver(), options=SchedulerOptions(repack_scope="canvas")
            )
            for patch in _patches(count=16):
                stitcher.add(patch)
        assert stitcher.options == SchedulerOptions(repack_scope="canvas")
        with pytest.raises(TypeError):
            IncrementalStitcher(PatchStitchingSolver(), use_index=False)


class TestConfigResolution:
    def test_tangram_config_maps_scattered_fields(self):
        config = TangramConfig(
            scheduler_incremental=False,
            scheduler_drift_margin=0.2,
            scheduler_repack_scope="canvas",
            canvas_structure="guillotine",
            scheduler_admission_watermark=16,
        )
        options = config.resolved_scheduler_options()
        assert options.incremental is False
        assert options.drift_margin == 0.2
        assert options.repack_scope == "canvas"
        assert options.canvas_structure == "guillotine"
        assert options.admission_watermark == 16

    def test_tangram_config_options_win_wholesale(self):
        record = SchedulerOptions(repack_scope="canvas", drift_margin=0.3)
        config = TangramConfig(scheduler_repack_scope="queue", scheduler_options=record)
        assert config.resolved_scheduler_options() is record

    def test_endtoend_config_maps_scattered_fields(self):
        config = EndToEndConfig(
            scheduler_repack_scope="canvas",
            scheduler_drift_margin=0.2,
            scheduler_admission_watermark=16,
        )
        options = config.resolved_scheduler_options()
        assert options.repack_scope == "canvas"
        assert options.drift_margin == 0.2
        assert options.admission_watermark == 16

    def test_endtoend_config_options_win_wholesale(self):
        record = SchedulerOptions(repack_scope="canvas")
        config = EndToEndConfig(scheduler_options=record)
        assert config.resolved_scheduler_options() is record
