"""The bandwidth-limited uplink.

:class:`Uplink` is an event-driven FIFO link built on the simulation
:class:`~repro.simulation.resources.Resource`, and the one model of how
long bytes take on the wire.  Every end-to-end runner sends through it:
patches from the cameras share one uplink and queue behind each other,
which is exactly what produces the "arrival speed" effect the paper dials
via bandwidth.

The uplink additionally supports a **lossy / jittery mode** for the fleet
fault-injection experiments: a per-send loss probability (the bytes occupy
the link but the payload is dropped at serialisation end), bounded latency
jitter on the propagation leg, and transient outage windows during which
sends fail immediately.  All three draw from *counter-based* uniforms --
``sha256(seed, link name, send key)`` -- rather than a shared RNG stream,
which buys two properties the chaos tests rely on:

* **byte-for-byte determinism**: the outcome of a send depends only on the
  seed and its key, never on how many other sends happened first;
* **coupled monotonicity**: raising ``loss_probability`` (or the jitter
  bound) with the seed held fixed can only turn deliveries into drops
  (or delays into longer delays), never the reverse, because the same
  uniform is compared against a larger threshold.  This is what makes
  "more injected faults never increases delivered efficiency" an exact
  contract instead of a statistical one.

The default (loss-free) configuration never touches the hash path and is
byte-identical to the pre-fault implementation -- pinned in
``tests/test_link.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.simulation.engine import Simulator
from repro.simulation.resources import Resource, ResourceJob

#: A time-varying fault dial: either a constant or a ``f(now) -> value``
#: callable (the fault plan installs callables to open and close windows).
FaultDial = Union[float, Callable[[float], float]]


def _dial(value: FaultDial, now: float) -> float:
    """Evaluate a :data:`FaultDial` at simulation time ``now``."""
    if callable(value):
        return float(value(now))
    return float(value)


def counter_uniform(seed: int, name: str, key: Any) -> float:
    """A uniform in ``[0, 1)`` derived from ``(seed, name, key)``.

    The same triple always yields the same value, independent of call
    order -- the counter-based draw the lossy uplink and the retry
    backoff use for reproducible, intensity-coupled fault injection.
    """
    digest = hashlib.sha256(f"{seed}:{name}:{key!r}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") / 2.0**64


@dataclass(frozen=True)
class TransmissionRecord:
    """Bookkeeping for one completed transmission (delivered or dropped)."""

    payload: Any
    size_bytes: float
    enqueue_time: float
    start_time: float
    finish_time: float
    #: False when the transmission was dropped (loss draw or outage).
    delivered: bool = True
    #: Why an undelivered transmission failed: ``"loss"`` or ``"outage"``.
    drop_reason: Optional[str] = None

    @property
    def queueing_delay(self) -> float:
        return self.start_time - self.enqueue_time

    @property
    def transfer_time(self) -> float:
        return self.finish_time - self.start_time

    @property
    def total_delay(self) -> float:
        return self.finish_time - self.enqueue_time


@dataclass
class SendOutcome:
    """The structured result of one :meth:`Uplink.send`.

    Returned synchronously and resolved in place when the transmission
    finishes: ``status`` moves from ``"pending"`` to ``"delivered"`` or
    ``"dropped"``, and ``record`` carries the timing either way -- so
    callers (the retry layer above all) never have to *assume* success.
    """

    size_bytes: float
    payload: Any = None
    status: str = "pending"
    record: Optional[TransmissionRecord] = None
    drop_reason: Optional[str] = None

    @property
    def pending(self) -> bool:
        return self.status == "pending"

    @property
    def delivered(self) -> bool:
        return self.status == "delivered"

    @property
    def dropped(self) -> bool:
        return self.status == "dropped"

    @property
    def latency(self) -> Optional[float]:
        """Enqueue-to-resolution delay, once resolved."""
        if self.record is None:
            return None
        return self.record.total_delay


def _check_link(bandwidth_mbps: float, propagation_delay: float) -> None:
    """Reject a link that cannot carry bytes in non-negative time.

    Written as ``not x > 0`` rather than ``x <= 0`` so that NaN fails too.
    """
    if not bandwidth_mbps > 0:
        raise ValueError("bandwidth_mbps must be positive")
    if not propagation_delay >= 0:
        raise ValueError("propagation_delay must be non-negative")


class Uplink:
    """An event-driven FIFO uplink shared by one camera's transmissions.

    Parameters
    ----------
    loss_probability:
        Per-send drop probability (or a ``f(now) -> p`` dial).  A lost
        send still occupies the link for its full serialisation time --
        the bytes went out, the payload never arrives -- so loss does
        not shorten queueing for the sends behind it.
    jitter_s:
        Upper bound (seconds, or a dial) on extra propagation delay.
        Each send draws a counter-based uniform and is delayed by
        ``jitter_s * u`` on top of ``propagation_delay``; the jitter leg
        never occupies the link.
    outages:
        ``(start, end)`` windows (half-open) during which a send fails
        immediately at enqueue time with reason ``"outage"``.
    fault_seed:
        Seed of the counter-based uniforms.  Two uplinks with the same
        name, seed, and send keys make identical loss/jitter draws.
    """

    def __init__(
        self,
        simulator: Simulator,
        bandwidth_mbps: float,
        propagation_delay: float = 0.005,
        name: str = "uplink",
        loss_probability: FaultDial = 0.0,
        jitter_s: FaultDial = 0.0,
        outages: Sequence[Tuple[float, float]] = (),
        fault_seed: int = 0,
    ) -> None:
        _check_link(bandwidth_mbps, propagation_delay)
        self.simulator = simulator
        self.bandwidth_mbps = bandwidth_mbps
        self.propagation_delay = propagation_delay
        self.name = name
        self.loss_probability = loss_probability
        self.jitter_s = jitter_s
        self.outages = list(outages)
        self.fault_seed = fault_seed
        self._resource = Resource(simulator, capacity=1, name=name)
        self.records: List[TransmissionRecord] = []
        #: Transmissions that failed (loss or outage); kept separate so
        #: :attr:`records` / :attr:`total_bytes` keep their historical
        #: "delivered traffic" semantics.
        self.drops: List[TransmissionRecord] = []
        self._send_counter = 0
        # The division below runs once per transmitted patch; end-to-end
        # fleet runs send hundreds of thousands, so hoist the constant.
        self._bytes_per_second = bandwidth_mbps * 1e6 / 8.0

    @property
    def bytes_per_second(self) -> float:
        return self._bytes_per_second

    @property
    def total_bytes(self) -> float:
        """Bytes successfully delivered (historical semantics)."""
        return sum(record.size_bytes for record in self.records)

    @property
    def dropped_bytes(self) -> float:
        """Bytes of transmissions that were lost or hit an outage."""
        return sum(record.size_bytes for record in self.drops)

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    def in_outage(self, now: float) -> bool:
        """Whether ``now`` falls inside a configured outage window."""
        return any(start <= now < end for start, end in self.outages)

    def send(
        self,
        size_bytes: float,
        payload: Any = None,
        on_delivered: Optional[Callable[[TransmissionRecord], None]] = None,
        on_dropped: Optional[Callable[[TransmissionRecord], None]] = None,
        loss_key: Any = None,
    ) -> SendOutcome:
        """Enqueue a transmission and return its :class:`SendOutcome`.

        ``on_delivered`` fires at arrival time (serialisation end plus the
        propagation and jitter legs); ``on_dropped`` fires the moment the
        failure is known -- immediately for an outage, at serialisation
        end for a loss.  ``loss_key`` names the send for the counter-based
        draws (defaults to a per-uplink sequence number); the retry layer
        passes ``(patch key, attempt)`` so re-transmissions of the same
        payload draw fresh, yet reproducible, uniforms.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        enqueue_time = self.simulator.now
        outcome = SendOutcome(size_bytes=size_bytes, payload=payload)
        key = loss_key if loss_key is not None else self._send_counter
        self._send_counter += 1

        if self.outages and self.in_outage(enqueue_time):
            record = TransmissionRecord(
                payload=payload,
                size_bytes=size_bytes,
                enqueue_time=enqueue_time,
                start_time=enqueue_time,
                finish_time=enqueue_time,
                delivered=False,
                drop_reason="outage",
            )
            self.drops.append(record)
            outcome.status = "dropped"
            outcome.record = record
            outcome.drop_reason = "outage"
            if on_dropped is not None:
                on_dropped(record)
            return outcome

        serialisation = size_bytes / self._bytes_per_second
        # Loss and jitter are decided at enqueue time from counter-based
        # uniforms, so they depend only on (seed, name, key) -- never on
        # link occupancy or on how other sends resolved.
        loss_p = _dial(self.loss_probability, enqueue_time)
        lost = (
            loss_p > 0.0
            and counter_uniform(self.fault_seed, f"{self.name}/loss", key) < loss_p
        )
        jitter_bound = _dial(self.jitter_s, enqueue_time)
        extra_delay = (
            jitter_bound * counter_uniform(self.fault_seed, f"{self.name}/jitter", key)
            if jitter_bound > 0.0
            else 0.0
        )

        def finished(job: ResourceJob) -> None:
            if lost:
                record = TransmissionRecord(
                    payload=payload,
                    size_bytes=size_bytes,
                    enqueue_time=enqueue_time,
                    start_time=job.start_time,
                    finish_time=job.finish_time,
                    delivered=False,
                    drop_reason="loss",
                )
                self.drops.append(record)
                outcome.status = "dropped"
                outcome.record = record
                outcome.drop_reason = "loss"
                if on_dropped is not None:
                    on_dropped(record)
                return
            delivery_lag = self.propagation_delay + extra_delay
            record = TransmissionRecord(
                payload=payload,
                size_bytes=size_bytes,
                enqueue_time=enqueue_time,
                start_time=job.start_time,
                finish_time=job.finish_time + delivery_lag,
            )
            self.records.append(record)
            outcome.status = "delivered"
            outcome.record = record
            if on_delivered is not None:
                if delivery_lag > 0:
                    self.simulator.schedule_in(
                        delivery_lag,
                        lambda _sim, record=record: on_delivered(record),
                        name=f"{self.name}:deliver",
                    )
                else:
                    on_delivered(record)

        self._resource.submit(serialisation, payload=payload, on_complete=finished)
        return outcome
