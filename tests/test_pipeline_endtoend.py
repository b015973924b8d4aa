"""Tests for the end-to-end pipeline (Fig. 12/13/14 machinery)."""

from __future__ import annotations

import pytest

from repro.core.options import SchedulerOptions
from repro.pipeline.endtoend import EndToEndConfig, EndToEndRunner, run_end_to_end
from repro.simulation.random_streams import RandomStreams
from repro.workloads import build_camera_traces


@pytest.fixture(scope="module")
def traces():
    return build_camera_traces(
        num_cameras=2, frames_per_camera=8, seed=11, max_concurrent_objects=100
    )


def _run(traces, **overrides):
    config = EndToEndConfig(**overrides)
    return run_end_to_end(config, traces, streams=RandomStreams(5))


class TestEndToEndConfig:
    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            EndToEndConfig(strategy="nope")

    def test_invalid_numeric_parameters_rejected(self):
        with pytest.raises(ValueError):
            EndToEndConfig(bandwidth_mbps=0)
        with pytest.raises(ValueError):
            EndToEndConfig(slo=0)
        with pytest.raises(ValueError):
            EndToEndConfig(fps=0)
        for name in ("bandwidth_mbps", "slo", "fps"):
            with pytest.raises(ValueError):
                EndToEndConfig(**{name: float("nan")})


class TestEndToEndRunner:
    def test_empty_camera_map_rejected(self):
        with pytest.raises(ValueError):
            EndToEndRunner(EndToEndConfig(), {})

    def test_all_patches_are_served(self, traces):
        result = _run(traces, strategy="tangram", bandwidth_mbps=40, slo=1.0)
        served = sum(batch.num_patches for batch in result.completed_batches)
        assert served == result.num_patches
        assert result.num_patches > 0
        assert result.num_frames == 16

    def test_costs_and_bytes_are_positive(self, traces):
        result = _run(traces, strategy="tangram", bandwidth_mbps=40, slo=1.0)
        assert result.total_cost > 0
        assert result.cost_per_frame > 0
        assert result.total_uploaded_bytes > 0
        assert result.total_transmission_time > 0
        assert result.total_execution_time > 0

    def test_tangram_violations_stay_low(self, traces):
        result = _run(traces, strategy="tangram", bandwidth_mbps=40, slo=1.0)
        assert result.slo_violation_rate <= 0.05

    def test_all_strategies_run_and_serve_same_patch_count(self, traces):
        served = {}
        for strategy in ("tangram", "clipper", "elf", "mark"):
            result = _run(traces, strategy=strategy, bandwidth_mbps=40, slo=1.0)
            served[strategy] = sum(b.num_patches for b in result.completed_batches)
        assert len(set(served.values())) == 1

    def test_tangram_cheaper_than_elf(self, traces):
        """The per-patch invocation overhead makes ELF the most expensive
        online strategy (Fig. 12)."""
        tangram = _run(traces, strategy="tangram", bandwidth_mbps=40, slo=1.0)
        elf = _run(traces, strategy="elf", bandwidth_mbps=40, slo=1.0)
        assert tangram.total_cost < elf.total_cost

    def test_tangram_cheaper_than_fixed_input_baselines(self, traces):
        tangram = _run(traces, strategy="tangram", bandwidth_mbps=40, slo=1.0)
        clipper = _run(traces, strategy="clipper", bandwidth_mbps=40, slo=1.0)
        mark = _run(traces, strategy="mark", bandwidth_mbps=40, slo=1.0)
        assert tangram.total_cost < clipper.total_cost * 1.05
        assert tangram.total_cost < mark.total_cost * 1.05

    def test_canvas_efficiency_metrics_available(self, traces):
        result = _run(traces, strategy="tangram", bandwidth_mbps=40, slo=1.0)
        assert result.canvas_efficiencies
        assert 0.0 < result.mean_canvas_efficiency <= 1.0
        assert result.batch_execution_latencies
        assert result.patches_per_batch
        assert result.canvases_per_batch
        assert result.amortised_latency_per_patch > 0

    def test_larger_slo_reduces_cost_for_tangram(self, traces):
        """Fig. 12 / Fig. 13: a looser SLO lets Tangram wait longer, pack
        fuller canvases, and spend less."""
        tight = _run(traces, strategy="tangram", bandwidth_mbps=20, slo=0.8)
        loose = _run(traces, strategy="tangram", bandwidth_mbps=20, slo=1.6)
        assert loose.total_cost <= tight.total_cost * 1.02
        assert loose.mean_canvas_efficiency >= tight.mean_canvas_efficiency - 0.03

    def test_transmission_faster_at_higher_bandwidth(self, traces):
        slow = _run(traces, strategy="tangram", bandwidth_mbps=20, slo=1.0)
        fast = _run(traces, strategy="tangram", bandwidth_mbps=80, slo=1.0)
        assert fast.total_transmission_time < slow.total_transmission_time

    def test_deterministic_given_seed(self, traces):
        a = run_end_to_end(EndToEndConfig(strategy="tangram"), traces, streams=RandomStreams(9))
        b = run_end_to_end(EndToEndConfig(strategy="tangram"), traces, streams=RandomStreams(9))
        assert a.total_cost == pytest.approx(b.total_cost)
        assert a.slo_violation_rate == pytest.approx(b.slo_violation_rate)
        assert a.num_patches == b.num_patches

    def test_empty_result_properties_are_safe(self):
        # Direct construction of an empty result exercises the guard paths.
        from repro.pipeline.endtoend import EndToEndResult

        empty = EndToEndResult(config=EndToEndConfig(), num_frames=0, num_patches=0)
        assert empty.total_cost == 0.0
        assert empty.cost_per_frame == 0.0
        assert empty.slo_violation_rate == 0.0
        assert empty.mean_canvas_efficiency == 0.0
        assert empty.amortised_latency_per_patch == 0.0


class TestFaultKnobs:
    """The runner's one uplink is lossless and it expires nothing: the
    fault knobs live on the fleet runner, and the two result fields the
    benchmark reads stay 0."""

    def test_default_knobs_do_not_change_the_run(self, traces):
        baseline = _run(traces, strategy="tangram", bandwidth_mbps=40, slo=1.0)
        knobbed = _run(
            traces,
            strategy="tangram",
            bandwidth_mbps=40,
            slo=1.0,
            scheduler_options=SchedulerOptions(),
        )
        assert knobbed.total_cost == baseline.total_cost
        assert knobbed.slo_violation_rate == baseline.slo_violation_rate
        assert knobbed.expired_at_ingest == 0
        assert knobbed.dropped_transmissions == 0
