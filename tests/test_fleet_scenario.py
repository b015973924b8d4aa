"""Tier-1 (fault-free) tests for the fleet scenario wiring.

The fault matrix itself lives in ``tests/chaos`` behind ``RUN_CHAOS=1``;
here we pin the healthy path: full delivery, determinism, the workload's
purity, and the ingest's expiry under plain overload (no faults).
"""

from __future__ import annotations

import pytest

from repro.fleet import (
    FleetRunResult,
    FleetScenarioConfig,
    RetryPolicy,
    run_fleet_scenario,
)
from repro.workloads.fleet import (
    FleetWorkloadConfig,
    camera_ids,
    capture_times,
    make_patch,
    patch_dimensions,
)


def _small_config(**overrides):
    workload = overrides.pop(
        "workload", FleetWorkloadConfig(num_cameras=4, fps=4.0, duration_s=3.0)
    )
    defaults = dict(workload=workload, estimator_iterations=100)
    defaults.update(overrides)
    return FleetScenarioConfig(**defaults)


class TestWorkloadPurity:
    def test_patch_identity_is_a_pure_function(self):
        config = FleetWorkloadConfig()
        first = patch_dimensions(config, "cam-000", 3, 1)
        assert patch_dimensions(config, "cam-000", 3, 1) == first
        assert patch_dimensions(config, "cam-001", 3, 1) != first
        patch = make_patch(config, "cam-000", 3, 1, generation_time=2.5)
        assert (patch.width, patch.height) == first
        assert patch.deadline == pytest.approx(2.5 + config.slo)

    def test_capture_grid_is_phase_shifted_per_camera(self):
        config = FleetWorkloadConfig(num_cameras=3, fps=4.0, duration_s=2.0)
        grids = [capture_times(config, camera) for camera in camera_ids(config)]
        assert all(len(grid) == config.frames_per_camera for grid in grids)
        phases = {round(grid[0], 9) for grid in grids}
        assert len(phases) == 3  # distinct phases
        for grid in grids:
            deltas = [b - a for a, b in zip(grid, grid[1:])]
            assert deltas == pytest.approx([0.25] * (len(grid) - 1))

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            FleetWorkloadConfig(num_cameras=0)
        with pytest.raises(ValueError):
            FleetWorkloadConfig(fps=0.0)
        with pytest.raises(ValueError):
            FleetWorkloadConfig(min_patch=300.0, max_patch=200.0)
        for name in ("fps", "duration_s", "slo"):
            with pytest.raises(ValueError):
                FleetWorkloadConfig(**{name: float("nan")})
        for overrides in (
            {"num_cameras": 2.5},
            {"patches_per_frame": float("nan")},
            {"fps": float("inf")},
            {"duration_s": float("inf")},
            {"max_patch": float("inf")},
            {"slo": float("inf")},
        ):
            with pytest.raises(ValueError):
                FleetWorkloadConfig(**overrides)

    # These used to construct: the seed reaches ``counter_uniform`` as
    # text, so 2.0 drew another workload than 2 and True another than 1.
    @pytest.mark.parametrize(
        "seed", [2.0, 2.5, -1, float("nan"), True], ids=["2.0", "2.5", "-1", "nan", "True"]
    )
    def test_malformed_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            FleetWorkloadConfig(seed=seed)


class TestResultAccounting:
    def test_empty_run_fractions_are_zero(self):
        empty = FleetRunResult(expected_base=0)
        assert empty.delivered_fraction == 0.0
        assert empty.injected_fault_fraction == 0.0
        assert empty.shed_expired_fraction == 0.0

    def test_derived_fractions_match_the_counter_arithmetic(self):
        # These fractions feed the bench robustness gates, so the exact
        # bucket arithmetic is pinned here against hand-computed values.
        result = FleetRunResult(
            expected_base=100,
            suppressed_base=10,
            failed_base=5,
            burst_sent=20,
            failed_burst=2,
            admitted_base=80,
            ingest={"expired_stale": 2, "expired_dead": 1},
        )
        assert result.delivered_base == 80
        assert result.delivered_fraction == pytest.approx(0.80)
        assert result.injected_fault_fraction == pytest.approx((10 + 5 + 2 + 20) / 120)
        assert result.shed_expired_fraction == pytest.approx((2 + 1) / 120)


#: Fleet settings that used to fail mid-run, silently, or only when the
#: runner built its parts: a fractional profiling count raised
#: ``TypeError`` at the first profile, a fractional seed replayed its
#: integer part, and a NaN bandwidth or GPU memory, a negative seed, or a
#: GPU with no room beside the model's 2.5 GB failed only in the uplink,
#: scheduler or random streams.
_MALFORMED_FLEET = [
    ("estimator_iterations", 2.5),
    ("seed", 2.5),
    ("bandwidth_mbps", float("nan")),
    ("gpu_memory_gb", float("nan")),
    ("seed", -1),
    ("gpu_memory_gb", 2.0),
    ("gpu_memory_gb", 2.5),
]


@pytest.mark.parametrize("field, value", _MALFORMED_FLEET)
def test_malformed_fleet_settings_fail_before_the_run(field, value):
    """Each such setting raises ``ValueError`` when the config is built,
    before the runner builds any part."""
    with pytest.raises(ValueError):
        _small_config(**{field: value})


class TestFaultFreeScenario:
    def test_everything_delivered_and_counted(self):
        result = run_fleet_scenario(_small_config())
        assert result.delivered_fraction == pytest.approx(1.0)
        assert result.captured_base == result.expected_base
        assert result.suppressed_base == 0
        assert result.burst_sent == 0
        assert result.transfers["failed"] == 0
        assert result.ingest["admitted"] == result.expected_base
        assert result.completed_patches == result.expected_base
        assert result.errors == 0

    def test_two_runs_produce_identical_counters(self):
        config = _small_config()
        assert (
            run_fleet_scenario(config).counters()
            == run_fleet_scenario(config).counters()
        )

    def test_liveness_optional(self):
        result = run_fleet_scenario(_small_config(track_liveness=False))
        assert result.delivered_fraction == pytest.approx(1.0)
        assert result.liveness_transitions == {}

    def test_overload_expires_stale_patches_without_faults(self):
        # A starved uplink plus tight SLO overloads the pipeline with no
        # fault plan at all: the ingest must expire the patches that
        # arrive past their deadline instead of serving them late.  (At
        # 1.5 Mbps every patch still arrives in time.)
        config = _small_config(
            workload=FleetWorkloadConfig(
                num_cameras=4, fps=6.0, duration_s=3.0, patches_per_frame=3, slo=0.3
            ),
            bandwidth_mbps=0.5,
            retry=RetryPolicy(max_attempts=1, attempt_timeout_s=None),
        )
        result = run_fleet_scenario(config)
        assert result.ingest["expired_stale"] > 0
        assert result.delivered_fraction < 1.0
        assert result.errors == 0
        # Degradation is accounted, not silent: every captured patch is in
        # exactly one terminal bucket.
        assert result.delivered_base + result.suppressed_base <= result.expected_base
        assert result.captured_base == (
            result.transfers["failed"]
            + result.ingest["admitted"]
            + result.ingest["expired_stale"]
            + result.ingest["expired_dead"]
        )
