"""Tier-1 smoke tests for the examples.

Runs ``examples/fleet_churn.py`` in-process on a small fleet so the
example stays executable (imports, knob plumbing, result fields) and its
headline claims hold on a real end-to-end run, and runs every other
example as a subprocess at a small size so each one keeps exiting 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"


@pytest.fixture(scope="module")
def fleet_churn():
    sys.path.insert(0, str(EXAMPLES_DIR))
    try:
        import fleet_churn

        yield fleet_churn
    finally:
        sys.path.remove(str(EXAMPLES_DIR))


def test_fleet_churn_headline_claims_hold_on_a_small_fleet(fleet_churn):
    config = fleet_churn.build_config(num_cameras=8, duration_s=3.0)
    plan = fleet_churn.build_churn_plan(config, dropout_fraction=0.25, seed=23)
    baseline, churn = fleet_churn.run_pair(config, plan)
    # The fault-free baseline delivers everything; churn degrades it but
    # never crashes, and the loss shows up in explicit counters.
    assert baseline.delivered_fraction == pytest.approx(1.0)
    assert churn.errors == 0
    assert churn.delivered_fraction <= baseline.delivered_fraction
    if plan.dropout_cameras():
        assert churn.suppressed_base > 0 or churn.ingest["expired_dead"] > 0
    # The example's determinism claim: a replay agrees counter-for-counter.
    from repro.fleet import run_fleet_scenario

    assert run_fleet_scenario(config, plan).counters() == churn.counters()


@pytest.mark.parametrize(
    "script, args",
    [
        pytest.param("quickstart.py", [], id="quickstart"),
        pytest.param("pixel_gmm_pipeline.py", [], id="pixel_gmm_pipeline"),
        pytest.param(
            "bandwidth_accuracy_tradeoff.py",
            ["--frames", "3"],
            id="bandwidth_accuracy_tradeoff",
        ),
        pytest.param(
            "multi_camera_slo.py",
            ["--cameras", "2", "--frames", "4"],
            id="multi_camera_slo",
        ),
    ],
)
def test_example_exits_cleanly(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
