"""Chaos cell for shard-targeted faults.

One shard's cameras all drop and reconnect while the other shards run
clean.  Cameras register in ``camera_ids`` order and the *i*-th goes to
shard *i* mod N, so shard *k* owns ``camera_ids(workload)[k::N]`` and the
fault plan can be aimed at exactly that set before the run.

Contracts (the fault-matrix contracts, restated per shard):

* **no escaped exceptions** -- the sharded scenario completes and
  flushes every worker;
* **monotone degradation** -- raising the targeted dropout intensity
  (fixed seed, so the windows nest per the
  :meth:`~repro.fleet.faults.FaultPlan.generate` contract) never
  increases the delivered fraction;
* **blast-radius isolation** -- at full intensity the victim shard's
  cameras stay on the shard they were dealt to (ownership is fixed when a
  camera registers, so the final map is the predicted one), and the
  healthy shards keep delivering;
* **deterministic replay** -- two runs with the same config and plan
  produce identical counters, the per-shard breakdown included.

Tier-1 stays fault-free: this suite only runs when ``RUN_CHAOS=1``.
"""

from __future__ import annotations

import os

import pytest

from repro.fleet import FaultPlan
from repro.fleet.scenario import FleetScenarioConfig
from repro.fleet.shard import ShardScenarioConfig, run_sharded_scenario
from repro.workloads.fleet import FleetWorkloadConfig, camera_ids

pytestmark = pytest.mark.skipif(
    not os.environ.get("RUN_CHAOS"),
    reason="chaos suite is opt-in: set RUN_CHAOS=1",
)

PLAN_SEED = 23
DURATION = 6.0
SHARDS = 4
#: The shard whose cameras the plan targets.
VICTIM_SHARD = 1
INTENSITIES = (0.0, 0.5, 1.0)


def _config() -> ShardScenarioConfig:
    return ShardScenarioConfig(
        base=FleetScenarioConfig(
            workload=FleetWorkloadConfig(
                num_cameras=16, fps=4.0, duration_s=DURATION, seed=7
            ),
            estimator_iterations=100,
            seed=3,
        ),
        shards=SHARDS,
    )


def _victim_cameras(config: ShardScenarioConfig) -> list[str]:
    """The cameras of the victim shard -- the blast target."""
    return camera_ids(config.base.workload)[VICTIM_SHARD :: config.shards]


def _plan(config: ShardScenarioConfig, intensity: float) -> FaultPlan:
    """Dropout-and-reconnect aimed at every camera of the victim shard.

    ``dropout_fraction=1.0`` over the victim set keeps the
    :meth:`FaultPlan.generate` nesting contract intact: the candidate
    windows are drawn once from the seed, and ``intensity`` scales which
    of them fire, so lower-intensity plans are subsets of higher ones.
    """
    return FaultPlan.generate(
        seed=PLAN_SEED,
        camera_ids=_victim_cameras(config),
        duration=DURATION,
        dropout_fraction=1.0,
        # Half the run: long enough to blow through the tracker's 2 s dead_after so
        # the victims are declared dead and then genuinely reconnect.
        dropout_duration=DURATION / 2,
        intensity=intensity,
    )


_CACHE: dict = {}


def _result(intensity: float):
    if intensity not in _CACHE:
        config = _config()
        plan = _plan(config, intensity) if intensity > 0.0 else None
        _CACHE[intensity] = run_sharded_scenario(config, plan)
    return _CACHE[intensity]


def test_completes_and_degrades_monotonically():
    fractions = []
    for intensity in INTENSITIES:
        result = _result(intensity)
        assert result.errors == 0
        accounted = result.delivered_base + result.suppressed_base + result.failed_base
        assert accounted <= result.expected_base
        fractions.append(result.delivered_fraction)
    assert fractions[0] == pytest.approx(1.0), "fault-free run must deliver everything"
    for lower, higher in zip(fractions[1:], fractions[:-1]):
        assert lower <= higher + 1e-12, (
            f"more shard-targeted faults increased delivered efficiency: {fractions}"
        )


def test_blast_radius_stays_on_the_victim_shard():
    config = _config()
    victims = set(_victim_cameras(config))
    result = _result(1.0)
    assert result.suppressed_base > 0, "the targeted dropout never fired"
    # Every camera, the victims included, ends on the shard it was dealt
    # to when it registered.
    cameras = camera_ids(config.base.workload)
    assert result.assignments == {
        camera: index % config.shards for index, camera in enumerate(cameras)
    }
    # The healthy shards' cameras are untouched by the plan, so the
    # healthy share of the base stream must be fully delivered: every
    # lost patch is accounted to the victim shard's cameras.
    per_camera = (
        config.base.workload.frames_per_camera
        * config.base.workload.patches_per_frame
    )
    healthy = config.base.workload.num_cameras - len(victims)
    lost = result.expected_base - result.delivered_base
    assert lost <= len(victims) * per_camera
    assert result.delivered_base >= healthy * per_camera


def test_victim_shard_cameras_drop_and_reconnect():
    result = _result(1.0)
    transitions = result.liveness_transitions
    assert transitions.get("dead", 0) > 0, "no camera was ever declared dead"
    assert transitions.get("reconnecting", 0) > 0, "no camera ever reconnected"


def test_full_intensity_replay_is_deterministic():
    first = _result(1.0).counters()
    config = _config()
    second = run_sharded_scenario(config, _plan(config, 1.0)).counters()
    assert first == second


def test_nested_plans_share_windows():
    """The FaultPlan nesting contract, restated for the targeted plan:
    every camera down at intensity 0.5 is also down at 1.0."""
    config = _config()
    half = _plan(config, 0.5)
    full = _plan(config, 1.0)
    probes = [i * 0.25 for i in range(int(DURATION / 0.25))]
    for camera in _victim_cameras(config):
        for when in probes:
            if half.camera_down(camera, when):
                assert full.camera_down(camera, when), (
                    f"window for {camera}@{when} vanished as intensity rose"
                )
