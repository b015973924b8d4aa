"""Tests for the network link models."""

from __future__ import annotations

import pytest

from repro.network.link import Uplink
from repro.simulation.engine import Simulator


class TestUplink:
    def test_single_transmission_delivery_time(self):
        simulator = Simulator()
        uplink = Uplink(simulator, bandwidth_mbps=8.0, propagation_delay=0.0)
        delivered = []
        uplink.send(1_000_000, payload="frame", on_delivered=lambda r: delivered.append(r))
        simulator.run()
        assert len(delivered) == 1
        assert delivered[0].finish_time == pytest.approx(1.0)
        assert delivered[0].payload == "frame"

    def test_transmissions_queue_fifo(self):
        simulator = Simulator()
        uplink = Uplink(simulator, bandwidth_mbps=8.0, propagation_delay=0.0)
        finishes = []
        for _ in range(3):
            uplink.send(500_000, on_delivered=lambda r: finishes.append(r.finish_time))
        simulator.run()
        assert finishes == pytest.approx([0.5, 1.0, 1.5])

    def test_propagation_delay_delays_delivery_not_link_occupancy(self):
        simulator = Simulator()
        uplink = Uplink(simulator, bandwidth_mbps=8.0, propagation_delay=0.1)
        delivered_at = []
        uplink.send(500_000, on_delivered=lambda r: delivered_at.append(simulator.now))
        uplink.send(500_000, on_delivered=lambda r: delivered_at.append(simulator.now))
        simulator.run()
        # Serialisation finishes at 0.5 and 1.0; delivery 0.1 later.
        assert delivered_at == pytest.approx([0.6, 1.1])

    def test_total_bytes_and_records(self):
        simulator = Simulator()
        uplink = Uplink(simulator, bandwidth_mbps=10.0)
        uplink.send(1000)
        uplink.send(2000)
        simulator.run()
        assert uplink.total_bytes == 3000
        assert len(uplink.records) == 2
        assert all(record.queueing_delay >= 0 for record in uplink.records)

    def test_queueing_delay_recorded(self):
        simulator = Simulator()
        uplink = Uplink(simulator, bandwidth_mbps=8.0, propagation_delay=0.0)
        uplink.send(1_000_000)
        uplink.send(1_000_000)
        simulator.run()
        assert uplink.records[0].queueing_delay == pytest.approx(0.0)
        assert uplink.records[1].queueing_delay == pytest.approx(1.0)

    def test_invalid_parameters_rejected(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            Uplink(simulator, bandwidth_mbps=0.0)
        with pytest.raises(ValueError):
            Uplink(simulator, bandwidth_mbps=float("nan"))
        with pytest.raises(ValueError):
            Uplink(simulator, bandwidth_mbps=10.0, propagation_delay=-1.0)
        with pytest.raises(ValueError):
            Uplink(simulator, bandwidth_mbps=10.0, propagation_delay=float("nan"))
        uplink = Uplink(simulator, bandwidth_mbps=10.0)
        with pytest.raises(ValueError):
            uplink.send(-1)
        # An infinite delay delivered nothing, silently.
        with pytest.raises(ValueError):
            Uplink(simulator, bandwidth_mbps=10.0, propagation_delay=float("inf"))


class TestSendOutcome:
    def test_outcome_resolves_on_delivery(self):
        simulator = Simulator()
        uplink = Uplink(simulator, bandwidth_mbps=8.0, propagation_delay=0.0)
        outcome = uplink.send(1_000_000, payload="frame")
        assert outcome.pending and not outcome.delivered and not outcome.dropped
        assert outcome.latency is None
        simulator.run()
        assert outcome.delivered and outcome.status == "delivered"
        assert outcome.record is not None
        assert outcome.latency == pytest.approx(1.0)

    def test_outcome_resolves_on_loss(self):
        simulator = Simulator()
        uplink = Uplink(
            simulator, bandwidth_mbps=8.0, propagation_delay=0.0, loss_probability=1.0
        )
        dropped = []
        outcome = uplink.send(1_000_000, on_dropped=dropped.append, loss_key="k")
        simulator.run()
        assert outcome.dropped and outcome.drop_reason == "loss"
        assert len(dropped) == 1
        assert dropped[0].delivered is False


class TestLossyUplink:
    def test_same_seed_same_drop_sequence(self):
        def drop_pattern(seed):
            simulator = Simulator()
            uplink = Uplink(
                simulator,
                bandwidth_mbps=80.0,
                loss_probability=0.4,
                fault_seed=seed,
                name="uplink/det",
            )
            outcomes = [uplink.send(10_000, loss_key=i) for i in range(64)]
            simulator.run()
            return [o.status for o in outcomes]

        assert drop_pattern(5) == drop_pattern(5)
        assert drop_pattern(5) != drop_pattern(6)

    def test_raising_loss_probability_nests_drop_sets(self):
        def dropped_keys(probability):
            simulator = Simulator()
            uplink = Uplink(
                simulator,
                bandwidth_mbps=80.0,
                loss_probability=probability,
                fault_seed=11,
                name="uplink/nest",
            )
            outcomes = {i: uplink.send(10_000, loss_key=i) for i in range(128)}
            simulator.run()
            return {i for i, o in outcomes.items() if o.dropped}

        low, high = dropped_keys(0.2), dropped_keys(0.5)
        assert low and low < high

    def test_lost_send_still_occupies_the_link(self):
        simulator = Simulator()
        uplink = Uplink(
            simulator,
            bandwidth_mbps=8.0,
            propagation_delay=0.0,
            loss_probability=lambda now: 1.0 if now == 0.0 else 0.0,
        )
        finishes = []
        uplink.send(500_000)  # lost, but serialises until t=0.5
        simulator.schedule_at(
            0.1,
            lambda _sim: uplink.send(
                500_000, on_delivered=lambda r: finishes.append(r.finish_time)
            ),
        )
        simulator.run()
        assert finishes == pytest.approx([1.0])
        assert uplink.dropped_bytes == 500_000
        assert uplink.total_bytes == 500_000

    def test_jitter_delays_delivery_within_bound(self):
        simulator = Simulator()
        uplink = Uplink(
            simulator,
            bandwidth_mbps=8.0,
            propagation_delay=0.1,
            jitter_s=0.5,
            fault_seed=3,
        )
        delivered_at = []
        uplink.send(
            800_000, on_delivered=lambda r: delivered_at.append(simulator.now), loss_key=0
        )
        simulator.run()
        # Serialisation 0.8 s + propagation 0.1 s + jitter in [0, 0.5).
        assert 0.9 <= delivered_at[0] < 1.4
        assert delivered_at[0] > 0.9  # the draw is almost surely non-zero

    def test_default_path_byte_identical_to_loss_free_uplink(self):
        def run(**kwargs):
            simulator = Simulator()
            uplink = Uplink(
                simulator, bandwidth_mbps=12.0, propagation_delay=0.01, **kwargs
            )
            for index in range(16):
                simulator.schedule_at(
                    index * 0.03, lambda _sim, i=index: uplink.send(40_000 + 1000 * i)
                )
            simulator.run()
            return [
                (r.enqueue_time, r.start_time, r.finish_time, r.size_bytes)
                for r in uplink.records
            ]

        baseline = run()
        with_knobs = run(loss_probability=0.0, jitter_s=0.0, fault_seed=99)
        assert with_knobs == baseline

    def test_bytes_per_second_hoisted_once(self):
        simulator = Simulator()
        uplink = Uplink(simulator, bandwidth_mbps=16.0)
        assert uplink.bytes_per_second == pytest.approx(16.0 * 1e6 / 8.0)
        delivered = []
        uplink.send(2_000_000, on_delivered=delivered.append)
        simulator.run()
        assert delivered[0].finish_time == pytest.approx(
            2_000_000 / uplink.bytes_per_second + uplink.propagation_delay
        )
