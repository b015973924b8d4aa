"""Tests for function instances, load balancing and the platform facade."""

from __future__ import annotations

import pytest

from repro.serverless.function import FunctionInstance
from repro.serverless.loadbalancer import (
    ConsistentHashBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from repro.serverless.platform import ScalingPolicy, ServerlessPlatform
from repro.simulation.engine import Simulator


class TestFunctionInstance:
    def test_cold_start_applies_only_to_first_invocation(self):
        simulator = Simulator()
        instance = FunctionInstance(simulator, "fn-0", cold_start_time=0.5)
        records = []
        instance.invoke(1.0, on_complete=records.append)
        instance.invoke(1.0, on_complete=records.append)
        simulator.run()
        assert records[0].finish_time == pytest.approx(1.5)
        assert records[0].cold_start == 0.5
        assert records[1].finish_time == pytest.approx(2.5)
        assert records[1].cold_start == 0.0

    def test_concurrency_one_serialises_invocations(self):
        simulator = Simulator()
        instance = FunctionInstance(simulator, "fn-0", cold_start_time=0.0)
        records = []
        for _ in range(3):
            instance.invoke(1.0, on_complete=records.append)
        simulator.run()
        assert [r.finish_time for r in records] == pytest.approx([1.0, 2.0, 3.0])

    def test_cost_is_billed_per_invocation(self):
        simulator = Simulator()
        instance = FunctionInstance(simulator, "fn-0", cold_start_time=0.0)
        instance.invoke(1.0)
        instance.invoke(2.0)
        simulator.run()
        expected = instance.cost_model.invocation_cost(1.0) + instance.cost_model.invocation_cost(2.0)
        assert instance.total_cost == pytest.approx(expected)

    def test_cold_start_is_not_billed(self):
        simulator = Simulator()
        cold = FunctionInstance(simulator, "a", cold_start_time=5.0)
        warm = FunctionInstance(simulator, "b", cold_start_time=0.0)
        cold.invoke(1.0)
        warm.invoke(1.0)
        simulator.run()
        assert cold.total_cost == pytest.approx(warm.total_cost)

    def test_outstanding_counts_queued_and_running(self):
        simulator = Simulator()
        instance = FunctionInstance(simulator, "fn-0", cold_start_time=0.0)
        instance.invoke(1.0)
        instance.invoke(1.0)
        assert instance.outstanding == 2
        simulator.run()
        assert instance.outstanding == 0

    def test_negative_execution_time_rejected(self):
        simulator = Simulator()
        instance = FunctionInstance(simulator, "fn-0")
        with pytest.raises(ValueError):
            instance.invoke(-1.0)


class TestLoadBalancers:
    def _instances(self, simulator, count=3):
        return [FunctionInstance(simulator, f"fn-{i}") for i in range(count)]

    def test_round_robin_cycles(self):
        simulator = Simulator()
        instances = self._instances(simulator)
        balancer = RoundRobinBalancer()
        picks = [balancer.select(instances).instance_id for _ in range(6)]
        assert picks == ["fn-0", "fn-1", "fn-2", "fn-0", "fn-1", "fn-2"]

    def test_empty_instance_list_rejected(self):
        for balancer in (RoundRobinBalancer(), ConsistentHashBalancer()):
            with pytest.raises(ValueError):
                balancer.select([])

    def test_make_balancer_factory(self):
        assert isinstance(make_balancer("round_robin"), RoundRobinBalancer)
        assert isinstance(make_balancer("consistent_hash"), ConsistentHashBalancer)
        for name in ("random", "least_connections", "least_loaded"):
            with pytest.raises(KeyError):
                make_balancer(name)


class TestServerlessPlatform:
    def test_scale_out_when_all_instances_busy(self):
        simulator = Simulator()
        platform = ServerlessPlatform(simulator, cold_start_time=0.0, initial_instances=1)
        platform.invoke(5.0)
        platform.invoke(5.0)
        assert platform.num_instances == 2
        simulator.run()

    def test_scale_out_respects_max_instances(self):
        simulator = Simulator()
        platform = ServerlessPlatform(
            simulator,
            cold_start_time=0.0,
            initial_instances=1,
            scaling=ScalingPolicy(max_instances=2),
        )
        for _ in range(5):
            platform.invoke(5.0)
        assert platform.num_instances == 2

    def test_no_scale_out_policy_queues_on_existing_instances(self):
        simulator = Simulator()
        platform = ServerlessPlatform(
            simulator,
            cold_start_time=0.0,
            initial_instances=1,
            scaling=ScalingPolicy(max_instances=8, scale_out_when_busy=False),
        )
        for _ in range(4):
            platform.invoke(1.0)
        assert platform.num_instances == 1
        simulator.run()
        assert platform.total_invocations == 4

    def test_total_cost_aggregates_instances(self):
        simulator = Simulator()
        platform = ServerlessPlatform(simulator, cold_start_time=0.0)
        platform.invoke(1.0)
        platform.invoke(1.0)
        simulator.run()
        expected = 2 * platform.cost_model.invocation_cost(1.0)
        assert platform.total_cost == pytest.approx(expected)

    def test_completion_callback_fires_with_record(self):
        simulator = Simulator()
        platform = ServerlessPlatform(simulator, cold_start_time=0.0)
        seen = []
        platform.invoke(0.7, payload="batch", on_complete=seen.append)
        simulator.run()
        assert len(seen) == 1
        assert seen[0].payload == "batch"
        assert seen[0].finish_time == pytest.approx(0.7)

    def test_all_invocations_sorted_by_submit_time(self):
        simulator = Simulator()
        platform = ServerlessPlatform(simulator, cold_start_time=0.0)
        simulator.schedule_at(0.5, lambda sim: platform.invoke(0.1))
        simulator.schedule_at(0.1, lambda sim: platform.invoke(0.1))
        simulator.run()
        submits = [record.submit_time for record in platform.all_invocations]
        assert submits == sorted(submits)

    def test_parallel_instances_shorten_makespan(self):
        """Serverless elasticity: two concurrent invocations finish at ~t=1,
        not t=2, because a second instance spins up."""
        simulator = Simulator()
        platform = ServerlessPlatform(simulator, cold_start_time=0.0, initial_instances=1)
        finishes = []
        platform.invoke(1.0, on_complete=lambda r: finishes.append(r.finish_time))
        platform.invoke(1.0, on_complete=lambda r: finishes.append(r.finish_time))
        simulator.run()
        assert max(finishes) == pytest.approx(1.0)

    def test_invocation_starts_on_the_idle_instance(self):
        """Round robin rotates among idle instances only: with one warm
        instance busy for a long invocation and the other idle, the next
        invocation starts on the idle one at once instead of queueing."""
        simulator = Simulator()
        platform = ServerlessPlatform(simulator, cold_start_time=0.5, initial_instances=2)
        records = []
        simulator.schedule_at(0.0, lambda sim: platform.invoke(10.0))
        simulator.schedule_at(0.1, lambda sim: platform.invoke(0.1))
        simulator.schedule_at(
            1.0, lambda sim: platform.invoke(0.2, on_complete=records.append)
        )
        simulator.run()
        assert platform.num_instances == 2
        (record,) = records
        assert record.instance_id == "faas-1"
        assert record.cold_start == 0.0
        assert record.start_time == pytest.approx(record.submit_time)
        assert record.submit_time == pytest.approx(1.0)

    def test_invalid_scaling_policy_rejected(self):
        with pytest.raises(ValueError):
            ScalingPolicy(max_instances=0)
        # NaN kept the pool at one instance and 2.5 acted as 3.
        for max_instances in (float("nan"), 2.5):
            with pytest.raises(ValueError):
                ScalingPolicy(max_instances=max_instances)


NAN = float("nan")


def _invoke_on_fresh_platform(execution_time):
    platform = ServerlessPlatform(Simulator(), initial_instances=0)
    try:
        platform.invoke(execution_time)
    finally:
        # Rejected before an instance is picked or added.
        assert platform.num_instances == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: ServerlessPlatform(Simulator(), cold_start_time=NAN),
        lambda: ServerlessPlatform(Simulator(), cold_start_time=-5.0),
        lambda: _invoke_on_fresh_platform(NAN),
        lambda: ServerlessPlatform(Simulator(), cold_start_time=float("inf")),
    ],
    ids=["cold_start-nan", "cold_start-negative", "invoke-nan", "cold_start-inf"],
)
def test_malformed_inputs_rejected(call):
    with pytest.raises(ValueError):
        call()
