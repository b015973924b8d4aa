"""The sharded fleet frontend: round-robin ownership and the pin.

The contracts:

* the router fixes a camera's shard when it registers: the *i*-th camera
  to register goes to shard *i* mod N, so the cameras are dealt evenly;
* ``shards=1`` -- which is what ``run_fleet_scenario`` runs -- matches
  the per-batch keys (times, cost, efficiencies, placements, outcomes)
  and counters recorded from the standalone single-scheduler runner
  before it became the one-shard run;
* ``shards=4`` is deterministic (replay-identical counters) and loses no
  patches on the fault-free stream.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.fleet.scenario import FleetScenarioConfig, run_fleet_scenario
from repro.fleet.shard import ShardRouter, ShardScenarioConfig, run_sharded_scenario
from repro.workloads.fleet import FleetWorkloadConfig, camera_ids


def _base(num_cameras: int = 12, **overrides) -> FleetScenarioConfig:
    return FleetScenarioConfig(
        workload=FleetWorkloadConfig(
            num_cameras=num_cameras, fps=4.0, duration_s=3.0, seed=11
        ),
        estimator_iterations=100,
        seed=3,
        **overrides,
    )


# --------------------------------------------------------------------- router
class _FakeWorker:
    """A shard with a set of cameras."""

    def __init__(self, shard_id):
        self.shard_id = shard_id
        self.cameras = set()


class TestShardRouter:
    def test_assignment_is_sticky(self):
        workers = [_FakeWorker(i) for i in range(4)]
        router = ShardRouter(workers)
        first = router.assign("cam-000")
        assert router.assign("cam-000") is first
        assert first.cameras == {"cam-000"}
        assert router.assignments() == {"cam-000": first.shard_id}

    def test_empty_worker_list_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter([])


# --------------------------------------------------------------------- config
class TestShardScenarioConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"shards": 0},
            # These rows keep the ids they had in the longer table that
            # also listed the deleted work-stealing and dispatch knobs.
            pytest.param({"shards": -1}, id="overrides3"),
            pytest.param({"shards": float("inf")}, id="overrides4"),
            pytest.param({"shards": "4"}, id="overrides5"),
            pytest.param({"shards": 2.5}, id="overrides11"),
            pytest.param({"shards": float("nan")}, id="overrides12"),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            ShardScenarioConfig(**overrides)


# ----------------------------------------------------------------- end to end
class TestShardedScenario:
    def test_shards_1_is_byte_identical_to_unsharded(self):
        """``run_fleet_scenario`` is the one-shard run, so it is pinned
        to the batch keys and counters the standalone single-scheduler
        runner produced before the two shared one code path."""
        base = _base(record_placements=True)
        fleet = run_fleet_scenario(base)
        sharded = run_sharded_scenario(ShardScenarioConfig(base=base, shards=1))
        assert sharded.batch_keys == fleet.batch_keys
        assert len(fleet.batch_keys) == 4
        assert (
            hashlib.sha256(repr(fleet.batch_keys).encode()).hexdigest()
            == "533a988c348d28539de0794316e07bfcbb04627318a5cc79dc1a47ea2b5ffbd6"
        )
        counters = fleet.counters()
        assert counters["completed_patches"] == 288
        assert counters["slo_violations"] == 2
        assert counters["num_canvases"] == 12
        assert counters["errors"] == 0
        assert sharded.shards == 1

    def test_shards_4_is_deterministic_and_lossless(self):
        config = ShardScenarioConfig(base=_base(num_cameras=16), shards=4)
        first = run_sharded_scenario(config)
        second = run_sharded_scenario(config)
        assert first.counters() == second.counters()
        assert first.errors == 0
        assert first.delivered_fraction == pytest.approx(1.0)
        assert sum(first.shard_cameras) == 16

    def test_round_robin_dispatch_spreads_cameras(self):
        base = _base(num_cameras=16)
        result = run_sharded_scenario(ShardScenarioConfig(base=base, shards=4))
        assert result.shard_cameras == [4, 4, 4, 4]
        # Camera i registers i-th, so it lands on shard i mod 4.
        cameras = camera_ids(base.workload)
        assert result.assignments == {c: i % 4 for i, c in enumerate(cameras)}
        assert result.delivered_fraction == pytest.approx(1.0)
