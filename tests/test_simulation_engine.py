"""Tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.simulation.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    simulator = Simulator()
    assert simulator.now == 0.0
    assert simulator.pending_events == 0


def test_schedule_in_and_run_advances_clock():
    simulator = Simulator()
    fired = []
    simulator.schedule_in(1.5, lambda sim: fired.append(sim.now))
    simulator.run()
    assert fired == [1.5]
    assert simulator.now == 1.5


def test_events_fire_in_time_order_regardless_of_scheduling_order():
    simulator = Simulator()
    order = []
    simulator.schedule_at(3.0, lambda sim: order.append("late"))
    simulator.schedule_at(1.0, lambda sim: order.append("early"))
    simulator.schedule_at(2.0, lambda sim: order.append("middle"))
    simulator.run()
    assert order == ["early", "middle", "late"]


def test_callback_can_schedule_more_events():
    simulator = Simulator()
    results = []

    def chain(sim: Simulator) -> None:
        results.append(sim.now)
        if sim.now < 3.0:
            sim.schedule_in(1.0, chain)

    simulator.schedule_at(1.0, chain)
    simulator.run()
    assert results == [1.0, 2.0, 3.0]


def test_scheduling_in_the_past_raises():
    simulator = Simulator()
    simulator.schedule_at(5.0, lambda sim: None)
    simulator.run()
    with pytest.raises(SimulationError):
        simulator.schedule_at(1.0, lambda sim: None)


def test_negative_delay_raises():
    simulator = Simulator()
    with pytest.raises(SimulationError):
        simulator.schedule_in(-1.0, lambda sim: None)


def test_run_until_stops_before_later_events():
    simulator = Simulator()
    fired = []
    simulator.schedule_at(1.0, lambda sim: fired.append(1.0))
    simulator.schedule_at(10.0, lambda sim: fired.append(10.0))
    simulator.run(until=5.0)
    assert fired == [1.0]
    assert simulator.now == 5.0
    assert simulator.pending_events == 1
    simulator.run()
    assert fired == [1.0, 10.0]


def test_run_with_max_events_budget():
    simulator = Simulator()
    fired = []
    for index in range(5):
        simulator.schedule_at(float(index + 1), lambda sim, i=index: fired.append(i))
    simulator.run(max_events=2)
    assert len(fired) == 2


def test_cancelled_event_does_not_fire():
    simulator = Simulator()
    fired = []
    event = simulator.schedule_at(1.0, lambda sim: fired.append("no"))
    simulator.schedule_at(2.0, lambda sim: fired.append("yes"))
    event.cancel()
    simulator.run()
    assert fired == ["yes"]


def test_trace_records_event_names():
    simulator = Simulator(trace=True)
    simulator.schedule_at(1.0, lambda sim: None, name="alpha")
    simulator.schedule_at(2.0, lambda sim: None, name="beta")
    simulator.run()
    assert simulator.trace_log == [(1.0, "alpha"), (2.0, "beta")]


def test_reset_clears_state():
    simulator = Simulator()
    simulator.schedule_at(1.0, lambda sim: None)
    simulator.run()
    simulator.reset()
    assert simulator.now == 0.0
    assert simulator.fired_events == 0
    assert simulator.pending_events == 0


def test_fired_events_counter():
    simulator = Simulator()
    for index in range(4):
        simulator.schedule_at(float(index), lambda sim: None)
    simulator.run()
    assert simulator.fired_events == 4


def test_negative_start_time_rejected():
    with pytest.raises(ValueError):
        Simulator(start_time=-1.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: Simulator(start_time=NAN), ValueError),
        (lambda: Simulator().reset(start_time=NAN), ValueError),
        (lambda: Simulator().reset(start_time=-1.0), ValueError),
        (lambda: Simulator().schedule_at(NAN, lambda sim: None), SimulationError),
        (lambda: Simulator().schedule_in(NAN, lambda sim: None), SimulationError),
    ],
    ids=["init-nan", "reset-nan", "reset-negative", "schedule_at-nan", "schedule_in-nan"],
)
def test_malformed_times_rejected(call, error):
    with pytest.raises(error):
        call()
