"""The sharded fleet frontend: dispatch, ownership, stealing, and the pin.

The tentpole contracts (ISSUE 8):

* the extended balancer policies (``consistent_hash``, ``least_loaded``)
  behave as dispatchers: sticky, deterministic, and stable under target
  addition (consistent hashing moves only a minority of keys);
* the router's work stealing moves the first ``steal_fraction`` of a hot
  shard's cameras, in id order, to the coldest shard, and commits
  nothing when the hot shard owns no camera;
* ``shards=1`` -- which is what ``run_fleet_scenario`` runs -- matches
  the per-batch keys (times, cost, efficiencies, placements, outcomes)
  and counters recorded from the standalone single-scheduler runner
  before it became the one-shard run;
* ``shards=4`` is deterministic (replay-identical counters) and loses no
  patches on the fault-free stream.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.fleet.scenario import FleetScenarioConfig, run_fleet_scenario
from repro.fleet.shard import ShardRouter, ShardScenarioConfig, run_sharded_scenario
from repro.serverless.loadbalancer import (
    BALANCER_POLICIES,
    ConsistentHashBalancer,
    LeastLoadedBalancer,
    make_balancer,
)
from repro.workloads.fleet import FleetWorkloadConfig, camera_ids
from tests.conftest import consistent_shard_assignment


def _base(num_cameras: int = 12, **overrides) -> FleetScenarioConfig:
    return FleetScenarioConfig(
        workload=FleetWorkloadConfig(
            num_cameras=num_cameras, fps=4.0, duration_s=3.0, seed=11
        ),
        estimator_iterations=100,
        seed=3,
        **overrides,
    )


# ---------------------------------------------------------------- dispatchers
class TestBalancerPolicies:
    def test_registry_covers_new_policies(self):
        assert "consistent_hash" in BALANCER_POLICIES
        assert "least_loaded" in BALANCER_POLICIES
        for policy in BALANCER_POLICIES:
            make_balancer(policy)
        with pytest.raises(KeyError):
            make_balancer("tarot")

    def test_consistent_hash_is_sticky_and_deterministic(self):
        targets = list(range(4))
        first = ConsistentHashBalancer()
        second = ConsistentHashBalancer()
        keys = [f"cam-{i:03d}" for i in range(64)]
        assert [first.select(targets, key=k) for k in keys] == [
            second.select(targets, key=k) for k in keys
        ]
        assert all(
            first.select(targets, key=k) == first.select(targets, key=k)
            for k in keys
        )

    def test_consistent_hash_moves_minority_on_target_addition(self):
        balancer = ConsistentHashBalancer()
        keys = [f"cam-{i:03d}" for i in range(256)]
        before = {k: balancer.select(list(range(4)), key=k) for k in keys}
        after = {k: balancer.select(list(range(5)), key=k) for k in keys}
        moved = sum(1 for k in keys if before[k] != after[k])
        # A modulo hash would reshuffle ~4/5 of the keys; the ring moves
        # roughly 1/5 and must stay well under half.
        assert moved < len(keys) // 2

    def test_least_loaded_balances_camera_counts(self):
        class Target:
            def __init__(self):
                self.load = 0

        targets = [Target() for _ in range(4)]
        balancer = LeastLoadedBalancer()
        for i in range(64):
            chosen = balancer.select(targets, key=f"cam-{i:03d}")
            chosen.load += 1
        assert [t.load for t in targets] == [16, 16, 16, 16]


# --------------------------------------------------------------------- router
class _FakeWorker:
    """A shard with a fixed scheduler backlog and a set of cameras."""

    def __init__(self, shard_id, cameras=(), backlog=0):
        self.shard_id = shard_id
        self.cameras = set(cameras)
        self.backlog = backlog

    @property
    def load(self):
        return self.backlog + len(self.cameras)


class TestShardRouter:
    def test_assignment_is_sticky(self):
        workers = [_FakeWorker(i) for i in range(4)]
        router = ShardRouter(workers)
        first = router.assign("cam-000")
        assert router.assign("cam-000") is first
        assert router.owner("cam-000") is first
        assert router.counters["assignments"] == 1

    def test_steal_commits_and_respects_plan(self):
        cameras = [f"cam-{i:03d}" for i in (5, 2, 7, 0, 3, 6, 1, 4)]
        hot = _FakeWorker(0, cameras, backlog=64)
        cold = _FakeWorker(1)
        router = ShardRouter(
            [hot, cold], hot_factor=1.5, min_steal_gap=4, steal_fraction=0.5
        )
        for camera in cameras:
            router._owner[camera] = hot
        # The quota is half of the 8 hot cameras, taken in id order.
        assert router.rebalance() == 4
        assert router.counters["steals_committed"] == 1
        assert router.counters["cameras_moved"] == 4
        assert cold.cameras == {f"cam-{i:03d}" for i in range(4)}
        assert hot.cameras == {f"cam-{i:03d}" for i in range(4, 8)}
        for camera in cold.cameras:
            assert router.owner(camera) is cold

    def test_steal_aborts_when_no_migrant_helps(self):
        # The hot shard's backlog outlived its cameras (all moved away
        # earlier): there is no migrant, so the pass commits nothing.
        hot = _FakeWorker(0, backlog=40)
        cold = _FakeWorker(1, ["cam-000"])
        router = ShardRouter([hot, cold], hot_factor=1.5, min_steal_gap=4)
        router._owner["cam-000"] = cold
        assert router.rebalance() == 0
        assert router.counters["steals_aborted"] == 1
        assert router.counters["steals_committed"] == 0
        assert router.owner("cam-000") is cold

    def test_steal_quota_caps_migration(self):
        # Eight cameras with a 25% quota: the pass stops at two migrants.
        hot = _FakeWorker(0, [f"cam-{i:03d}" for i in range(8)], backlog=8)
        cold = _FakeWorker(1)
        router = ShardRouter(
            [hot, cold], hot_factor=1.5, min_steal_gap=4, steal_fraction=0.25
        )
        for camera in list(hot.cameras):
            router._owner[camera] = hot
        assert router.rebalance() == 2

    def test_owner_assigns_unknown_camera(self):
        router = ShardRouter([_FakeWorker(i) for i in range(2)])
        worker = router.owner("cam-new")
        assert "cam-new" in worker.cameras

    def test_empty_worker_list_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter([])

    def test_balanced_shards_do_not_steal(self):
        workers = [
            _FakeWorker(i, [f"cam-{i}{j}" for j in range(4)], backlog=8) for i in range(4)
        ]
        router = ShardRouter(workers)
        assert router.rebalance() == 0
        assert router.counters["steals_committed"] == 0
        assert router.counters["steals_aborted"] == 0


# --------------------------------------------------------------------- config
class TestShardScenarioConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"shards": 0},
            {"dispatch": "tarot"},
            {"rebalance_interval": 0.0},
            {"hot_factor": 0.5},
            {"min_steal_gap": 0},
            {"steal_fraction": 0.0},
            {"steal_fraction": 1.5},
            {"rebalance_interval": float("nan")},
            {"hot_factor": float("nan")},
            {"steal_fraction": float("nan")},
            {"dispatch": "least_connections"},
            {"shards": 2.5},
            {"shards": float("nan")},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            ShardScenarioConfig(**overrides)

    def test_consistent_assignment_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            consistent_shard_assignment(["cam-000"], 0)

    def test_consistent_assignment_matches_run(self):
        base = _base()
        cameras = camera_ids(base.workload)
        predicted = consistent_shard_assignment(cameras, 4)
        result = run_sharded_scenario(
            ShardScenarioConfig(base=base, shards=4, steal_enabled=False)
        )
        assert result.assignments == predicted
        spread = Counter(predicted.values())
        assert len(spread) > 1, "hash sent every camera to one shard"


# ----------------------------------------------------------------- end to end
class TestShardedScenario:
    def test_shards_1_is_byte_identical_to_unsharded(self):
        """``run_fleet_scenario`` is the one-shard run, so it is pinned
        to the batch keys and counters the standalone single-scheduler
        runner produced before the two shared one code path."""
        base = _base(record_placements=True)
        fleet = run_fleet_scenario(base)
        sharded = run_sharded_scenario(ShardScenarioConfig(base=base, shards=1))
        assert sharded.fleet.batch_keys == fleet.batch_keys
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
        assert sharded.routing["rebalances"] == 0

    def test_shards_4_is_deterministic_and_lossless(self):
        config = ShardScenarioConfig(base=_base(num_cameras=16), shards=4)
        first = run_sharded_scenario(config)
        second = run_sharded_scenario(config)
        assert first.counters() == second.counters()
        assert first.fleet.errors == 0
        assert first.delivered_fraction == pytest.approx(1.0)
        assert sum(first.shard_cameras) == 16
        assert len(first.shard_compute_seconds) == 4
        assert first.fleet.scheduler_compute_seconds == pytest.approx(
            sum(first.shard_compute_seconds)
        )

    def test_least_loaded_dispatch_spreads_cameras(self):
        result = run_sharded_scenario(
            ShardScenarioConfig(
                base=_base(num_cameras=16),
                shards=4,
                dispatch="least_loaded",
                steal_enabled=False,
            )
        )
        assert result.shard_cameras == [4, 4, 4, 4]
        assert result.delivered_fraction == pytest.approx(1.0)

    def test_skewed_fleet_triggers_work_stealing(self):
        # consistent_hash on 12 cameras is uneven; with a tight gap and a
        # hair-trigger hot factor the router must commit at least one
        # steal, and the stream still completes losslessly.
        result = run_sharded_scenario(
            ShardScenarioConfig(
                base=_base(),
                shards=4,
                hot_factor=1.0,
                min_steal_gap=1,
                rebalance_interval=0.1,
            )
        )
        assert result.routing["rebalances"] > 0
        assert result.routing["steals_committed"] > 0
        assert result.delivered_fraction == pytest.approx(1.0)
        assert result.fleet.errors == 0
