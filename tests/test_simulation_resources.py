"""Tests for FIFO resources with bounded concurrency."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.simulation.engine import Simulator
from repro.simulation.resources import Resource


def test_single_server_serialises_jobs():
    simulator = Simulator()
    resource = Resource(simulator, capacity=1)
    finish_times = []
    for _ in range(3):
        resource.submit(1.0, on_complete=lambda job: finish_times.append(job.finish_time))
    simulator.run()
    assert finish_times == [1.0, 2.0, 3.0]


def test_waiting_time_accumulates_in_queue():
    simulator = Simulator()
    resource = Resource(simulator, capacity=1)
    jobs = [resource.submit(2.0) for _ in range(3)]
    simulator.run()
    assert jobs[0].waiting_time == pytest.approx(0.0)
    assert jobs[1].waiting_time == pytest.approx(2.0)
    assert jobs[2].waiting_time == pytest.approx(4.0)


def test_capacity_two_serves_in_parallel():
    simulator = Simulator()
    resource = Resource(simulator, capacity=2)
    jobs = [resource.submit(1.0) for _ in range(4)]
    simulator.run()
    finish = sorted(job.finish_time for job in jobs)
    assert finish == [1.0, 1.0, 2.0, 2.0]


def test_jobs_submitted_at_different_times():
    simulator = Simulator()
    resource = Resource(simulator, capacity=1)
    records = []

    simulator.schedule_at(
        0.0, lambda sim: resource.submit(1.0, on_complete=lambda j: records.append(j))
    )
    simulator.schedule_at(
        5.0, lambda sim: resource.submit(1.0, on_complete=lambda j: records.append(j))
    )
    simulator.run()
    assert records[0].finish_time == pytest.approx(1.0)
    # The second job arrives after the server went idle, so it starts
    # immediately at its submission time.
    assert records[1].start_time == pytest.approx(5.0)
    assert records[1].finish_time == pytest.approx(6.0)


def test_zero_service_time_job_completes():
    simulator = Simulator()
    resource = Resource(simulator, capacity=1)
    job = resource.submit(0.0)
    simulator.run()
    assert job.finish_time == pytest.approx(0.0)


def test_negative_service_time_rejected():
    simulator = Simulator()
    resource = Resource(simulator, capacity=1)
    with pytest.raises(ValueError):
        resource.submit(-1.0)


def test_invalid_capacity_rejected():
    simulator = Simulator()
    with pytest.raises(ValueError):
        Resource(simulator, capacity=0)


def test_backlog_time_counts_only_queued_jobs():
    simulator = Simulator()
    resource = Resource(simulator, capacity=1)
    resource.submit(1.0)
    resource.submit(2.0)
    resource.submit(3.0)
    # One job is in service, two are queued.
    assert resource.backlog_time() == pytest.approx(5.0)
    assert resource.queue_length == 2
    assert resource.in_service == 1
    simulator.run()
    assert resource.is_idle


def test_finished_job_is_not_retained():
    # A finished job (and the callback it pins) must be garbage once the
    # caller lets go of it: the resource keeps no per-job history.
    simulator = Simulator()
    resource = Resource(simulator, capacity=1)
    job = weakref.ref(resource.submit(1.0, on_complete=lambda job: None))
    simulator.run()
    gc.collect()
    assert job() is None
