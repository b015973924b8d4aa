"""The chaos fault matrix: every fault class at rising plan intensity.

For each fault class the contracts are:

* **no escaped exceptions** -- the scenario completes and flushes;
* **monotone degradation** -- raising the fault-plan intensity (with the
  seed fixed, so fault windows nest; see :mod:`repro.fleet.faults`) never
  *increases* the delivered fraction of the base stream;
* **determinism** -- two runs with the same config and plan produce
  identical expiry/transfer/SLO counters.

Tier-1 stays fault-free: this suite only runs when ``RUN_CHAOS=1`` (the
CI ``chaos`` job sets it; locally ``RUN_CHAOS=1 pytest tests/chaos``).
"""

from __future__ import annotations

import os

import pytest

from repro.fleet import FaultPlan, FleetScenarioConfig, run_fleet_scenario
from repro.workloads.fleet import FleetWorkloadConfig, camera_ids

pytestmark = pytest.mark.skipif(
    not os.environ.get("RUN_CHAOS"),
    reason="chaos suite is opt-in: set RUN_CHAOS=1",
)

PLAN_SEED = 23
DURATION = 6.0
INTENSITIES = (0.0, 0.5, 1.0)

#: One knob set per fault class; everything else stays zero so each cell
#: isolates a single failure mode.
FAULT_KNOBS = {
    "dropout": dict(dropout_fraction=0.6),
    "loss": dict(loss_probability=0.35),
    "jitter": dict(jitter_s=0.25),
    "burst": dict(burst_count=3, burst_multiplier=4.0),
}


def _config() -> FleetScenarioConfig:
    return FleetScenarioConfig(
        workload=FleetWorkloadConfig(num_cameras=6, fps=4.0, duration_s=DURATION, seed=7),
        estimator_iterations=100,
    )


def _plan(fault: str, intensity: float) -> FaultPlan:
    cameras = camera_ids(_config().workload)
    return FaultPlan.generate(
        seed=PLAN_SEED,
        camera_ids=cameras,
        duration=DURATION,
        intensity=intensity,
        **FAULT_KNOBS[fault],
    )


#: (fault, intensity) -> result; the intensity-0 plan is empty, so fault
#: classes share one fault-free run.
_CACHE: dict = {}


def _result(fault: str, intensity: float):
    key = ("any", 0.0) if intensity == 0.0 else (fault, intensity)
    if key not in _CACHE:
        plan = _plan(fault, intensity) if intensity > 0.0 else None
        _CACHE[key] = run_fleet_scenario(_config(), plan)
    return _CACHE[key]


@pytest.mark.parametrize("fault", sorted(FAULT_KNOBS))
def test_completes_and_degrades_monotonically(fault):
    fractions = []
    for intensity in INTENSITIES:
        result = _result(fault, intensity)
        assert result.errors == 0
        # Conservation: the delivered, suppressed, and retry-exhausted
        # buckets are disjoint subsets of the base stream (the remainder
        # sits in the ingest expiry counters, which also absorb
        # burst surplus and so are bounded separately).
        accounted = result.delivered_base + result.suppressed_base + result.failed_base
        assert accounted <= result.expected_base
        fractions.append(result.delivered_fraction)
    assert fractions[0] == pytest.approx(1.0), "fault-free run must deliver everything"
    for lower, higher in zip(fractions[1:], fractions[:-1]):
        assert lower <= higher + 1e-12, (
            f"more {fault} faults increased delivered efficiency: {fractions}"
        )


@pytest.mark.parametrize("fault", sorted(FAULT_KNOBS))
def test_full_intensity_runs_are_deterministic(fault):
    first = _result(fault, 1.0).counters()
    second = run_fleet_scenario(_config(), _plan(fault, 1.0)).counters()
    assert first == second


def test_combined_fault_cocktail_completes():
    """All four classes at once: the worst case still finishes cleanly."""
    cameras = camera_ids(_config().workload)
    plan = FaultPlan.generate(
        seed=PLAN_SEED,
        camera_ids=cameras,
        duration=DURATION,
        dropout_fraction=0.4,
        loss_probability=0.2,
        jitter_s=0.1,
        burst_count=2,
        burst_multiplier=3.0,
    )
    result = run_fleet_scenario(_config(), plan)
    assert result.errors == 0
    assert 0.0 < result.delivered_fraction <= 1.0
    assert result.counters() == run_fleet_scenario(_config(), plan).counters()
