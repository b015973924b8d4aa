"""Tests for workload builders, sweep grids, and analysis helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import (
    empirical_cdf,
    fraction_above,
    joint_histogram,
    summarise,
)
from repro.analysis.tables import format_series, format_table
from repro.pipeline.endtoend import EndToEndConfig
from repro.workloads.builder import build_camera_traces, default_camera_scenes
from repro.workloads.sweeps import (
    MARK_TIMEOUT_BY_BANDWIDTH,
    SLO_GRID_BY_BANDWIDTH,
    SweepPoint,
)


class TestWorkloadBuilder:
    def test_default_scene_assignment(self):
        assert default_camera_scenes(3) == ["scene_01", "scene_02", "scene_08"]
        assert len(default_camera_scenes(12)) == 12
        with pytest.raises(ValueError):
            default_camera_scenes(0)

    def test_build_traces_shape(self):
        traces = build_camera_traces(num_cameras=2, frames_per_camera=5, seed=1)
        assert sorted(traces) == ["camera-00", "camera-01"]
        assert all(len(frames) == 5 for frames in traces.values())

    def test_traces_deterministic_per_seed(self):
        a = build_camera_traces(num_cameras=1, frames_per_camera=4, seed=2)
        b = build_camera_traces(num_cameras=1, frames_per_camera=4, seed=2)
        counts_a = [f.num_objects for f in a["camera-00"]]
        counts_b = [f.num_objects for f in b["camera-00"]]
        assert counts_a == counts_b

    def test_scene_keys_must_match_camera_count(self):
        with pytest.raises(ValueError):
            build_camera_traces(num_cameras=2, frames_per_camera=3, scene_keys=["scene_01"])

    def test_invalid_frame_count_rejected(self):
        with pytest.raises(ValueError):
            build_camera_traces(num_cameras=1, frames_per_camera=0)


class TestSweeps:
    def test_fig12_slo_ranges_match_paper(self):
        assert SLO_GRID_BY_BANDWIDTH[20.0] == (1.0, 1.1, 1.2, 1.3, 1.4)
        assert SLO_GRID_BY_BANDWIDTH[40.0] == (0.8, 0.9, 1.0, 1.1, 1.2)
        assert SLO_GRID_BY_BANDWIDTH[80.0] == (0.6, 0.7, 0.8, 0.9, 1.0)

    def test_sweep_point_to_config_sets_mark_timeout(self):
        point = SweepPoint(strategy="mark", bandwidth_mbps=80.0, slo=1.0)
        config = point.to_config()
        assert config.strategy == "mark"
        assert config.bandwidth_mbps == 80.0
        assert config.mark_timeout == MARK_TIMEOUT_BY_BANDWIDTH[80.0]

    def test_sweep_point_preserves_base_config(self):
        base = EndToEndConfig(zones_x=6, zones_y=6)
        config = SweepPoint("tangram", 40.0, 1.0).to_config(base)
        assert config.zones_x == 6


class TestStats:
    def test_summarise_basic(self):
        stats = summarise([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.median == pytest.approx(2.5)

    def test_summarise_empty(self):
        stats = summarise([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_empirical_cdf(self):
        values, probabilities = empirical_cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert list(probabilities) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empirical_cdf_empty(self):
        values, probabilities = empirical_cdf([])
        assert values.size == 0 and probabilities.size == 0

    def test_fraction_above(self):
        assert fraction_above([0.5, 0.7, 0.9], 0.6) == pytest.approx(2 / 3)
        assert fraction_above([], 0.5) == 0.0

    def test_joint_histogram_row_normalised(self):
        x = [1, 2, 2, 3]
        y = [1, 1, 1, 2]
        hist = joint_histogram(x, y, x_edges=[0.5, 1.5, 2.5, 3.5], y_edges=[0.5, 1.5, 2.5])
        assert hist.shape == (2, 3)
        assert np.allclose(hist.sum(axis=1), [1.0, 1.0])

    def test_joint_histogram_length_mismatch(self):
        with pytest.raises(ValueError):
            joint_histogram([1], [1, 2], [0, 1], [0, 1])


class TestTables:
    def test_format_table_contains_headers_and_values(self):
        text = format_table(["scene", "cost"], [["scene_01", 0.069], ["scene_02", 0.092]],
                            title="Fig. 8")
        assert "Fig. 8" in text
        assert "scene_01" in text
        assert "0.069" in text

    def test_format_series(self):
        text = format_series({"20Mbps": 0.5, "40Mbps": 0.25}, title="bandwidth")
        assert "bandwidth" in text
        assert "20Mbps" in text
        assert "0.2500" in text
