"""Node micro-controller model (MSP430FR6989-class, paper §8).

The MCU does three things: sample the two envelope detectors through its
ADC, drive the two switches through GPIOs, and run the tiny firmware
state machine. Its constraints — 1 MHz ADC, bounded GPIO toggle rate —
shape the protocol (slow Field-1 chirps) and bound the uplink rate
together with the switch settling time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import MCU_POWER_W, NODE_ADC_RATE_HZ
from repro.dsp.signal import Signal
from repro.errors import HardwareError
from repro.hardware.adc import Adc

__all__ = ["Microcontroller"]


@dataclass
class Microcontroller:
    """Behavioural MCU: ADC front end + GPIO timing + power."""

    adc: Adc = field(default_factory=lambda: Adc(sample_rate_hz=NODE_ADC_RATE_HZ))
    max_gpio_toggle_rate_hz: float = 100e6
    active_power_w: float = MCU_POWER_W

    def __post_init__(self) -> None:
        if self.max_gpio_toggle_rate_hz <= 0:
            raise HardwareError("GPIO toggle rate must be positive")

    def sample_detector(self, detector_output: Signal) -> Signal:
        """Digitize one envelope-detector output stream: a full video
        trace, or the detector read at this ADC's instants
        (``EnvelopeDetector.detect(..., adc=self.adc)``), which the ADC
        reads value for value."""
        return self.adc.sample(detector_output)

    def check_switching_rate(self, rate_hz: float) -> None:
        """Verify the firmware can drive the switches at ``rate_hz``."""
        if rate_hz > self.max_gpio_toggle_rate_hz:
            raise HardwareError(
                f"GPIO cannot toggle at {rate_hz/1e6:.1f} MHz "
                f"(limit {self.max_gpio_toggle_rate_hz/1e6:.1f} MHz)"
            )

    def max_uplink_bit_rate_bps(self, switch_rate_limit_hz: float) -> float:
        """Uplink ceiling: 2 bits per toggle interval across two ports,
        bounded by the slower of GPIO and switch settling."""
        per_port = min(self.max_gpio_toggle_rate_hz, switch_rate_limit_hz)
        return 2.0 * per_port
