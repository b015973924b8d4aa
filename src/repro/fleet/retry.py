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

import numbers
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.network.link import SendOutcome, TransmissionRecord, Uplink, counter_uniform
from repro.simulation.engine import Simulator
from repro.simulation.events import Event


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
        # NaN passes ``< 1`` and then never exhausts (``attempt >= NaN``
        # is always false), so it fails here.
        if not isinstance(self.max_attempts, numbers.Integral) or self.max_attempts < 1:
            raise ValueError("max_attempts must be an integer of at least 1")
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
        receives the terminal reason: ``"deadline"``, or the last
        attempt's ``"loss"`` or ``"timeout"`` once the attempts are
        exhausted.
        """
        self.stats.transfers += 1
        if key is None:
            key = ("transfer", self.stats.transfers)
        transfer = _Transfer(self, size_bytes, payload, key, deadline, on_delivered, on_failed)
        transfer.launch(1)


class _Transfer:
    """One payload's retransmission loop.

    It and its :class:`_Attempt` objects are ``__slots__`` records whose
    bound methods are the uplink and event callbacks, so a transfer
    allocates no closures, and nothing refers to it once it has settled.
    """

    __slots__ = (
        "sender",
        "size_bytes",
        "payload",
        "key",
        "deadline",
        "on_delivered",
        "on_failed",
        "attempt",
        "generation",
        "resolved",
    )

    def __init__(
        self,
        sender: ReliableSender,
        size_bytes: float,
        payload: Any,
        key: Any,
        deadline: Optional[float],
        on_delivered: Optional[Callable[[TransmissionRecord], None]],
        on_failed: Optional[Callable[[str], None]],
    ) -> None:
        self.sender = sender
        self.size_bytes = size_bytes
        self.payload = payload
        self.key = key
        self.deadline = deadline
        self.on_delivered = on_delivered
        self.on_failed = on_failed
        #: Number of the latest attempt (1-based).
        self.attempt = 0
        #: Bumping the generation abandons every callback of earlier
        #: attempts.
        self.generation = 0
        self.resolved = False

    def fail(self, reason: str) -> None:
        self.resolved = True
        self.sender.stats.failed += 1
        if self.on_failed is not None:
            self.on_failed(reason)

    def launch(self, attempt: int) -> None:
        if self.resolved:
            return
        sender = self.sender
        sender.stats.attempts += 1
        self.attempt = attempt
        current = _Attempt(self)
        outcome = sender.uplink.send(
            self.size_bytes,
            payload=self.payload,
            on_delivered=current.delivered,
            on_dropped=current.dropped,
            loss_key=(self.key, attempt),
        )
        timeout_s = sender.policy.attempt_timeout_s
        # A send resolves at serialisation end at the earliest, so the
        # outcome is still pending here.
        if timeout_s is not None:
            current.outcome = outcome
            current.timeout = sender.simulator.schedule_in(
                timeout_s,
                current.timed_out,
                name=f"{sender.uplink.name}:attempt-timeout",
            )

    def relaunch(self, _sim: Simulator) -> None:
        self.launch(self.attempt + 1)

    def retry_or_fail(self, reason: str) -> None:
        """Retry or give up after the latest attempt failed."""
        # Abandon the attempt's remaining callbacks before rescheduling.
        self.generation += 1
        sender = self.sender
        policy = sender.policy
        if self.attempt >= policy.max_attempts:
            self.fail(reason)
            return
        simulator = sender.simulator
        delay = policy.backoff(self.attempt, sender.uplink.fault_seed, self.key)
        if self.deadline is not None and simulator.now + delay >= self.deadline:
            sender.stats.gave_up_deadline += 1
            self.fail("deadline")
            return
        sender.stats.retries += 1
        simulator.schedule_in(
            delay, self.relaunch, name=f"{sender.uplink.name}:retry"
        )


class _Attempt:
    """One transmission of a :class:`_Transfer` and its timeout.

    The timeout is cancelled as soon as the attempt resolves, delivered
    or dropped: from then on it could only be a no-op, and a live event
    would keep the whole transfer reachable for ``attempt_timeout_s``.
    """

    __slots__ = ("transfer", "generation", "outcome", "timeout")

    def __init__(self, transfer: _Transfer) -> None:
        self.transfer = transfer
        self.generation = transfer.generation
        self.outcome: Optional[SendOutcome] = None
        self.timeout: Optional[Event] = None

    def still_current(self) -> bool:
        """Whether this is the transfer's latest attempt and it is open."""
        transfer = self.transfer
        return not transfer.resolved and self.generation == transfer.generation

    def cancel_timeout(self) -> None:
        if self.timeout is not None:
            self.timeout.cancel()
            self.timeout = None

    def delivered(self, record: TransmissionRecord) -> None:
        self.cancel_timeout()
        if not self.still_current():
            return
        transfer = self.transfer
        transfer.resolved = True
        transfer.sender.stats.delivered += 1
        if transfer.on_delivered is not None:
            transfer.on_delivered(record)

    def dropped(self, record: TransmissionRecord) -> None:
        self.cancel_timeout()
        if not self.still_current():
            return
        self.transfer.retry_or_fail(record.drop_reason or "drop")

    def timed_out(self, _sim: Simulator) -> None:
        # The event has fired; let go of it, since it refers back here.
        self.timeout = None
        if not self.still_current() or not self.outcome.pending:
            return
        self.transfer.sender.stats.timeouts += 1
        self.transfer.retry_or_fail("timeout")
