"""Tests for the uplink retry/backoff layer."""

from __future__ import annotations

import pytest

from repro.fleet.retry import ReliableSender, RetryPolicy
from repro.network.link import Uplink
from repro.simulation.engine import Simulator


def _sender(simulator, policy=None, **uplink_kwargs):
    defaults = dict(bandwidth_mbps=8.0, propagation_delay=0.0, name="uplink/test")
    defaults.update(uplink_kwargs)
    uplink = Uplink(simulator, **defaults)
    return ReliableSender(simulator, uplink, policy=policy)


class TestBackoff:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            base_backoff_s=0.1,
            backoff_multiplier=2.0,
            max_backoff_s=0.3,
            jitter_fraction=0.0,
        )
        delays = [policy.backoff(n, seed=0, key="k") for n in (1, 2, 3, 4)]
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_jitter_shortens_but_never_exceeds_base(self):
        policy = RetryPolicy(base_backoff_s=0.1, jitter_fraction=0.5)
        delay = policy.backoff(1, seed=7, key=("cam", 3))
        assert 0.05 <= delay <= 0.1

    def test_jitter_is_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy()
        assert policy.backoff(2, 7, "k") == policy.backoff(2, 7, "k")
        assert policy.backoff(2, 7, "k") != policy.backoff(3, 7, "k")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=0.5, max_backoff_s=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout_s=0.0)
        for name in ("base_backoff_s", "max_backoff_s", "attempt_timeout_s"):
            with pytest.raises(ValueError):
                RetryPolicy(**{name: float("nan")})
        # A NaN attempt count never exhausted (``attempt >= NaN`` is false).
        for max_attempts in (float("nan"), 2.5):
            with pytest.raises(ValueError):
                RetryPolicy(max_attempts=max_attempts)


class TestReliableSender:
    def test_lossless_delivery_single_attempt(self):
        simulator = Simulator()
        sender = _sender(simulator)
        delivered = []
        sender.send(1_000_000, payload="p", key="k", on_delivered=delivered.append)
        simulator.run()
        assert len(delivered) == 1
        assert sender.stats.attempts == 1
        assert sender.stats.retries == 0

    def test_resolved_attempt_leaves_no_live_event(self):
        # The attempt's timeout is cancelled as soon as the attempt
        # resolves, so nothing is left to keep the run (or the transfer)
        # alive past the delivery.
        simulator = Simulator()
        sender = _sender(simulator)
        pending = []
        sender.send(
            7_000,
            key="k",
            on_delivered=lambda record: pending.append(simulator.pending_events),
        )
        simulator.run()
        assert pending == [0]
        assert simulator.now == pytest.approx(0.007)

    def test_attempt_delivered_on_retry_leaves_no_live_event(self):
        # Attempt 1 is lost (its timeout goes with the drop); attempt 2
        # delivers and takes its own timeout with it.
        simulator = Simulator()
        sender = _sender(
            simulator,
            policy=RetryPolicy(base_backoff_s=0.02, jitter_fraction=0.0),
            loss_probability=lambda now: 1.0 if now < 0.005 else 0.0,
        )
        pending = []
        sender.send(
            7_000,
            key="k",
            on_delivered=lambda record: pending.append(simulator.pending_events),
        )
        simulator.run()
        assert sender.stats.attempts == 2
        assert pending == [0]
        assert simulator.now == pytest.approx(0.007 + 0.02 + 0.007)

    def test_retries_through_loss_until_delivered(self):
        # Full loss for the first second, then a clean link: the transfer
        # must survive on retries alone.
        simulator = Simulator()
        sender = _sender(
            simulator,
            policy=RetryPolicy(max_attempts=8, base_backoff_s=0.3, jitter_fraction=0.0),
            loss_probability=lambda now: 1.0 if now < 1.0 else 0.0,
        )
        delivered, failed = [], []
        sender.send(
            100_000,
            key="k",
            on_delivered=delivered.append,
            on_failed=failed.append,
        )
        simulator.run()
        assert len(delivered) == 1
        assert failed == []
        assert sender.stats.retries >= 1
        assert sender.stats.delivered == 1

    def test_gives_up_after_max_attempts(self):
        simulator = Simulator()
        sender = _sender(
            simulator,
            policy=RetryPolicy(max_attempts=3, base_backoff_s=0.01, jitter_fraction=0.0),
            loss_probability=1.0,
        )
        failed = []
        sender.send(1000, key="k", on_failed=failed.append)
        simulator.run()
        assert failed == ["loss"]
        assert sender.stats.attempts == 3
        assert sender.stats.failed == 1

    def test_gives_up_early_when_deadline_unreachable(self):
        simulator = Simulator()
        sender = _sender(
            simulator,
            policy=RetryPolicy(max_attempts=5, base_backoff_s=0.5, jitter_fraction=0.0),
            loss_probability=1.0,
        )
        failed = []
        sender.send(1000, key="k", deadline=0.3, on_failed=failed.append)
        simulator.run()
        assert failed == ["deadline"]
        assert sender.stats.gave_up_deadline == 1
        assert sender.stats.attempts == 1

    def test_timeout_triggers_retry_and_late_delivery_is_ignored(self):
        # Attempt 1 queues behind a 0.6 s blocker and times out after
        # 0.5 s; its bytes still arrive at t=0.7 but by then the attempt
        # is abandoned, so the delivery must come from attempt 2 -- and
        # be counted exactly once.
        simulator = Simulator()
        sender = _sender(
            simulator,
            policy=RetryPolicy(
                max_attempts=4,
                base_backoff_s=0.05,
                jitter_fraction=0.0,
                attempt_timeout_s=0.5,
            ),
        )
        sender.uplink.send(600_000)  # occupies the link until t=0.6
        delivered = []
        sender.send(100_000, key="k", on_delivered=delivered.append)
        simulator.run()
        assert len(delivered) == 1
        assert sender.stats.timeouts >= 1
        assert sender.stats.delivered == 1

    def test_two_same_seed_runs_identical(self):
        def run():
            simulator = Simulator()
            sender = _sender(
                simulator,
                policy=RetryPolicy(max_attempts=6, jitter_fraction=0.5),
                loss_probability=0.6,
                fault_seed=13,
            )
            outcomes = []
            for index in range(20):
                sender.send(
                    50_000,
                    key=("cam", index),
                    on_delivered=lambda r: outcomes.append(("ok", round(r.finish_time, 9))),
                    on_failed=lambda reason: outcomes.append(("fail", reason)),
                )
            simulator.run()
            return outcomes, sender.stats.as_dict()

        assert run() == run()
