"""Retry with exponential backoff + jitter for lossy uplink sends.

:class:`ReliableSender` wraps an :class:`~repro.network.link.Uplink` in
the classic at-most-``max_attempts`` retransmission loop: every attempt is
a real ``send`` (it occupies the link even when it is lost), a drop or a
per-attempt timeout schedules the next attempt after an exponentially
growing, jittered backoff, and a transfer gives up when its attempts are
exhausted or its deadline cannot be met.

Determinism: backoff jitter comes from the counter-based uniforms of
:mod:`repro.network.link`, keyed by ``(transfer key, attempt)`` -- a
retry schedule depends only on the seed and the transfer's own key, never
on how many other transfers retried first.  Late resolutions of abandoned
attempts (an attempt that timed out but whose bytes were still on the
wire) are ignored through a per-transfer generation counter, so a payload
is delivered at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.network.link import SendOutcome, TransmissionRecord, Uplink, counter_uniform
from repro.simulation.engine import Simulator


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff/timeout constants of the retransmission loop."""

    max_attempts: int = 4
    base_backoff_s: float = 0.02
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 0.5
    #: Fraction of the backoff randomised away: the delay for attempt ``n``
    #: is ``base * (1 - jitter_fraction * u)`` with ``u`` counter-uniform,
    #: de-synchronising retry storms without ever exceeding the cap.
    jitter_fraction: float = 0.5
    #: Give up on an attempt that has not resolved after this long
    #: (``None`` disables the timeout and trusts drop callbacks alone).
    attempt_timeout_s: Optional[float] = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        # Each test is written so that NaN fails it too.
        if not 0 <= self.base_backoff_s <= self.max_backoff_s:
            raise ValueError("backoff bounds must satisfy 0 <= base <= max")
        if not self.backoff_multiplier >= 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        if self.attempt_timeout_s is not None and not self.attempt_timeout_s > 0:
            raise ValueError("attempt_timeout_s must be positive when set")

    def backoff(self, attempt: int, seed: int, key: Any) -> float:
        """Jittered delay before attempt ``attempt + 1`` (1-based input)."""
        base = min(
            self.base_backoff_s * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter_fraction == 0.0:
            return base
        u = counter_uniform(seed, "retry/backoff", (key, attempt))
        return base * (1.0 - self.jitter_fraction * u)


@dataclass
class TransferStats:
    """Aggregate accounting across all transfers of one sender."""

    transfers: int = 0
    attempts: int = 0
    delivered: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    gave_up_deadline: int = 0

    def as_dict(self) -> dict:
        return {
            "transfers": self.transfers,
            "attempts": self.attempts,
            "delivered": self.delivered,
            "failed": self.failed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "gave_up_deadline": self.gave_up_deadline,
        }


class ReliableSender:
    """Retransmitting wrapper around one camera's :class:`Uplink`."""

    def __init__(
        self,
        simulator: Simulator,
        uplink: Uplink,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.simulator = simulator
        self.uplink = uplink
        self.policy = policy or RetryPolicy()
        self.stats = TransferStats()

    def send(
        self,
        size_bytes: float,
        payload: Any = None,
        key: Any = None,
        deadline: Optional[float] = None,
        on_delivered: Optional[Callable[[TransmissionRecord], None]] = None,
        on_failed: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Transmit ``payload`` with retries.

        ``key`` names the transfer for the counter-based loss/backoff
        draws (callers pass stable identity like ``(camera, frame,
        slot)``); ``deadline`` lets the sender give up early when even a
        successful retry could no longer arrive in time.  ``on_failed``
        receives the terminal reason: ``"attempts"``, ``"deadline"``, or
        ``"outage"``/``"loss"``-derived exhaustion.
        """
        policy = self.policy
        self.stats.transfers += 1
        if key is None:
            key = ("transfer", self.stats.transfers)
        # One mutable cell per transfer: bumping the generation abandons
        # every callback captured by earlier attempts.
        state = {"generation": 0, "resolved": False}

        def fail(reason: str) -> None:
            state["resolved"] = True
            self.stats.failed += 1
            if on_failed is not None:
                on_failed(reason)

        def launch(attempt: int) -> None:
            if state["resolved"]:
                return
            generation = state["generation"]
            self.stats.attempts += 1

            def still_current() -> bool:
                return not state["resolved"] and generation == state["generation"]

            def delivered(record: TransmissionRecord) -> None:
                if not still_current():
                    return
                state["resolved"] = True
                self.stats.delivered += 1
                if on_delivered is not None:
                    on_delivered(record)

            def dropped(record: TransmissionRecord) -> None:
                if not still_current():
                    return
                retry_or_fail(attempt, record.drop_reason or "drop")

            outcome: SendOutcome = self.uplink.send(
                size_bytes,
                payload=payload,
                on_delivered=delivered,
                on_dropped=dropped,
                loss_key=(key, attempt),
            )
            if policy.attempt_timeout_s is not None and outcome.pending:

                def timed_out(_sim: Simulator) -> None:
                    if not still_current() or not outcome.pending:
                        return
                    self.stats.timeouts += 1
                    retry_or_fail(attempt, "timeout")

                self.simulator.schedule_in(
                    policy.attempt_timeout_s,
                    timed_out,
                    name=f"{self.uplink.name}:attempt-timeout",
                )

        def retry_or_fail(attempt: int, reason: str) -> None:
            # Abandon the attempt's remaining callbacks before rescheduling.
            state["generation"] += 1
            if attempt >= policy.max_attempts:
                fail(reason)
                return
            delay = policy.backoff(attempt, self.uplink.fault_seed, key)
            if deadline is not None and self.simulator.now + delay >= deadline:
                self.stats.gave_up_deadline += 1
                fail("deadline")
                return
            self.stats.retries += 1
            self.simulator.schedule_in(
                delay,
                lambda _sim: launch(attempt + 1),
                name=f"{self.uplink.name}:retry",
            )

        launch(1)
