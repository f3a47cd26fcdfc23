"""Stop-and-wait ARQ over MilBack sessions.

The paper's links are raw bursts; a deployed stack retries failures.
This is classic stop-and-wait: send, await a CRC-verified acknowledgment
on the reverse link, retry on either failure. Because MilBack's reverse
link is nearly free for the node (the ACK rides the same preamble
machinery), stop-and-wait is the natural fit at these packet sizes.

Retries may pace themselves through a :class:`RetryBackoff` (fixed or
exponential, fully deterministic — the delays are simulated-time
bookkeeping, not wall-clock sleeps), and a per-transfer ``timeout_s``
budget caps the total air + backoff time a transfer may consume before
it is abandoned. Both default off, preserving the original semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.errors import LocalizationError, ProtocolError
from repro.node.firmware import PayloadDirection
from repro.protocol.link import MilBackLink

__all__ = ["RetryBackoff", "TransferResult", "LinkStatistics", "ReliableChannel"]

#: The acknowledgment payload (CRC-protected like any frame).
ACK_PAYLOAD = b"\x06ACK"


@dataclass(frozen=True)
class RetryBackoff:
    """Deterministic retry pacing policy.

    The first attempt is never delayed; attempt ``k`` (k >= 2) waits
    ``min(initial_delay_s * multiplier**(k-2), max_delay_s)`` before
    transmitting. ``multiplier == 1`` is fixed backoff; ``> 1`` is
    exponential. No jitter by design: campaign replays must be
    bit-for-bit.
    """

    initial_delay_s: float = 0.0
    multiplier: float = 1.0
    max_delay_s: float = math.inf

    def __post_init__(self) -> None:
        if self.initial_delay_s < 0:
            raise ProtocolError("backoff delay must be non-negative")
        if self.multiplier < 1.0:
            raise ProtocolError("backoff multiplier must be >= 1")
        if self.max_delay_s < 0:
            raise ProtocolError("backoff cap must be non-negative")

    @classmethod
    def fixed(cls, delay_s: float) -> "RetryBackoff":
        """The same delay before every retry."""
        return cls(initial_delay_s=delay_s, multiplier=1.0)

    @classmethod
    def exponential(
        cls,
        initial_delay_s: float,
        multiplier: float = 2.0,
        max_delay_s: float = math.inf,
    ) -> "RetryBackoff":
        """Delays growing geometrically, capped at ``max_delay_s``."""
        return cls(
            initial_delay_s=initial_delay_s,
            multiplier=multiplier,
            max_delay_s=max_delay_s,
        )

    def delay_before_attempt_s(self, attempt: int) -> float:
        """Pacing delay inserted before the given 1-based attempt."""
        if attempt <= 1:
            return 0.0
        delay_s = self.initial_delay_s * self.multiplier ** (attempt - 2)
        return min(delay_s, self.max_delay_s)


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one reliable transfer."""

    delivered: bool
    attempts: int
    air_time_s: float
    payload: bytes
    wait_time_s: float = 0.0
    timed_out: bool = False


@dataclass
class LinkStatistics:
    """Running counters over a channel's lifetime."""

    transfers: int = 0
    delivered: int = 0
    attempts: int = 0
    data_failures: int = 0
    ack_failures: int = 0
    retries_after_ack_failure: int = 0
    timeouts: int = 0
    air_time_s: float = 0.0
    backoff_wait_s: float = 0.0

    def delivery_ratio(self) -> float:
        """Delivered transfers over attempted transfers."""
        return self.delivered / self.transfers if self.transfers else 0.0

    def mean_attempts(self) -> float:
        """Average attempts per transfer."""
        return self.attempts / self.transfers if self.transfers else 0.0


class ReliableChannel:
    """Retrying transfer service over one MilBack link."""

    def __init__(
        self,
        link: MilBackLink,
        max_attempts: int = 4,
        backoff: RetryBackoff | None = None,
        timeout_s: float | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ProtocolError("need at least one attempt")
        if timeout_s is not None and timeout_s <= 0:
            raise ProtocolError("timeout must be positive")
        self.link = link
        self.max_attempts = max_attempts
        self.backoff = backoff or RetryBackoff()
        self.timeout_s = timeout_s
        self.stats = LinkStatistics()

    def send_reliable(
        self,
        payload: bytes,
        direction: PayloadDirection = PayloadDirection.UPLINK,
        bit_rate_bps: float = 10e6,
        ack_bit_rate_bps: float = 2e6,
    ) -> TransferResult:
        """Transfer ``payload`` with retries until data AND ack succeed.

        A fault-dropped session surfaces the same way as an out-of-range
        node — an exception from the link — and consumes an attempt; the
        ``protocol.arq.retries{cause=data|ack}`` counters record which
        half of the exchange forced each retry. A call the link refuses
        outright (a rate it cannot run) raises and leaves ``stats`` as it
        was.
        """
        if not payload:
            raise ProtocolError("payload must be non-empty")
        air_time_s = 0.0
        wait_time_s = 0.0
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                delay_s = self.backoff.delay_before_attempt_s(attempt)
                wait_time_s += delay_s
                self.stats.backoff_wait_s += delay_s
                if (
                    self.timeout_s is not None
                    and air_time_s + wait_time_s > self.timeout_s
                ):
                    self.stats.timeouts += 1
                    self.stats.air_time_s += air_time_s
                    return TransferResult(
                        False, attempt - 1, air_time_s, payload, wait_time_s, True
                    )
            data = self._send_data(payload, direction, bit_rate_bps)
            if attempt == 1:
                self.stats.transfers += 1
            self.stats.attempts += 1
            if data is None:
                self._note_data_failure(attempt)
                continue
            air_time_s += data.air_time_s
            if not data.delivered:
                self._note_data_failure(attempt)
                continue
            try:
                ack = self._send_ack(direction, ack_bit_rate_bps)
            except (ProtocolError, LocalizationError):
                self._note_ack_failure(attempt)
                continue
            air_time_s += ack.air_time_s
            if ack.delivered:
                self.stats.delivered += 1
                self.stats.air_time_s += air_time_s
                return TransferResult(True, attempt, air_time_s, payload, wait_time_s)
            self._note_ack_failure(attempt)
        self.stats.air_time_s += air_time_s
        return TransferResult(
            False, self.max_attempts, air_time_s, payload, wait_time_s
        )

    def _send_data(
        self, payload: bytes, direction: PayloadDirection, bit_rate_bps: float
    ):
        """The data frame's report, or None when the node never heard the
        preamble (out of range / blocked / fault-dropped): no response, a
        failed attempt. A call the link refuses outright raises."""
        try:
            if direction is PayloadDirection.UPLINK:
                return self.link.receive_from_node(payload, bit_rate_bps)
            return self.link.send_to_node(payload, bit_rate_bps)
        except (ProtocolError, LocalizationError):
            return None

    def _send_ack(self, data_direction: PayloadDirection, bit_rate_bps: float):
        """The ACK travels opposite to the data."""
        if data_direction is PayloadDirection.UPLINK:
            return self.link.send_to_node(ACK_PAYLOAD, bit_rate_bps)
        return self.link.receive_from_node(ACK_PAYLOAD, bit_rate_bps)

    def _note_data_failure(self, attempt: int) -> None:
        self.stats.data_failures += 1
        if attempt < self.max_attempts:
            obs.counter("protocol.arq.retries", cause="data").inc()

    def _note_ack_failure(self, attempt: int) -> None:
        """The data made it; only the acknowledgment was lost."""
        self.stats.ack_failures += 1
        if attempt < self.max_attempts:
            self.stats.retries_after_ack_failure += 1
            obs.counter("protocol.arq.retries", cause="ack").inc()
