"""Battery and duty-cycle lifetime modeling.

The paper's 18/32 mW numbers are *active* power; a deployed node is
asleep almost always. This module turns the power budget plus a duty
cycle into the number an integrator actually asks for: how long does
the battery last at N reports per hour?
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.power import NodeMode, PowerBudget

if False:  # pragma: no cover - type-checking alias without the import cycle
    from repro.protocol.packet import PacketSchedule

__all__ = ["Battery", "DutyCycledNode", "LifetimeEstimate"]

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY


@dataclass(frozen=True)
class Battery:
    """An ideal-discharge battery with self-discharge.

    Defaults describe a CR2032 coin cell: 225 mAh at 3 V, ~1%/year
    self-discharge for lithium chemistry.
    """

    capacity_j: float = 0.225 * 3600.0 * 3.0  # 225 mAh x 3 V = 2430 J
    self_discharge_per_year: float = 0.01

    def __post_init__(self) -> None:
        if self.capacity_j <= 0:
            raise ConfigurationError("battery capacity must be positive")
        if not 0.0 <= self.self_discharge_per_year < 1.0:
            raise ConfigurationError("self-discharge must be in [0, 1)")

    def self_discharge_w(self) -> float:
        """Average self-discharge drain [W]."""
        return self.capacity_j * self.self_discharge_per_year / SECONDS_PER_YEAR


@dataclass(frozen=True)
class LifetimeEstimate:
    """Output of a lifetime computation."""

    average_power_w: float
    lifetime_s: float
    reports_total: float

    @property
    def lifetime_years(self) -> float:
        return self.lifetime_s / SECONDS_PER_YEAR


class DutyCycledNode:
    """A node that wakes to exchange one packet, then sleeps."""

    def __init__(
        self,
        budget: PowerBudget,
        schedule: "PacketSchedule | None" = None,
        sleep_power_w: float = 2e-6,
        include_mcu_when_active: bool = True,
        mcu_power_w: float = 5.76e-3,
    ) -> None:
        """``sleep_power_w`` defaults to a 2 µW deep-sleep (MSP430 LPM3
        with RAM retention + RTC)."""
        if sleep_power_w < 0:
            raise ConfigurationError("sleep power cannot be negative")
        # Imported lazily: hardware must stay importable without the
        # protocol package (which itself imports hardware models).
        from repro.protocol.packet import PacketSchedule

        self.budget = budget
        self.schedule = schedule or PacketSchedule()
        self.sleep_power_w = sleep_power_w
        self.include_mcu_when_active = include_mcu_when_active
        self.mcu_power_w = mcu_power_w

    def report_energy_j(
        self,
        payload_bits: int,
        bit_rate_bps: float = 10e6,
        mode: NodeMode = NodeMode.UPLINK,
        wake_overhead_s: float = 1e-3,
    ) -> float:
        """Energy of one report: wake, preamble, payload, back to sleep.

        ``wake_overhead_s`` covers oscillator start-up and settling at
        active power before the packet begins.
        """
        if payload_bits <= 0:
            raise ConfigurationError("payload must carry bits")
        active_power = self.budget.total_power_w(mode)
        if self.include_mcu_when_active:
            active_power += self.mcu_power_w
        active_time = wake_overhead_s + self.schedule.packet_duration_s(
            payload_bits, bit_rate_bps
        )
        return active_power * active_time

    def lifetime(
        self,
        battery: Battery,
        reports_per_hour: float,
        payload_bits: int = 1024,
        bit_rate_bps: float = 10e6,
        mode: NodeMode = NodeMode.UPLINK,
    ) -> LifetimeEstimate:
        """How long the battery funds the reporting schedule."""
        if reports_per_hour <= 0:
            raise ConfigurationError("need a positive reporting rate")
        per_report = self.report_energy_j(payload_bits, bit_rate_bps, mode)
        report_power = per_report * reports_per_hour / 3600.0
        average = report_power + self.sleep_power_w + battery.self_discharge_w()
        lifetime_s = battery.capacity_j / average
        return LifetimeEstimate(
            average_power_w=average,
            lifetime_s=lifetime_s,
            reports_total=lifetime_s / 3600.0 * reports_per_hour,
        )
