"""Node configuration: the bill of materials of a MilBack backscatter node."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.antennas.fsa import FsaDesign
from repro.errors import ConfigurationError
from repro.hardware.envelope_detector import EnvelopeDetector
from repro.hardware.mcu import Microcontroller
from repro.hardware.switch import SpdtSwitch

__all__ = ["NodeConfig"]


@dataclass
class NodeConfig:
    """Everything needed to instantiate a node (paper Fig. 4 + §8).

    One dual-port FSA, two SPDT switches (one per port), two envelope
    detectors, one MCU.
    """

    fsa_design: FsaDesign = field(default_factory=FsaDesign)
    switch_a: SpdtSwitch = field(default_factory=SpdtSwitch)
    switch_b: SpdtSwitch = field(default_factory=SpdtSwitch)
    detector_a: EnvelopeDetector = field(default_factory=EnvelopeDetector)
    detector_b: EnvelopeDetector = field(default_factory=EnvelopeDetector)
    mcu: Microcontroller = field(default_factory=Microcontroller)
    node_id: str = "node-0"

    def max_uplink_bit_rate_bps(self) -> float:
        """Switch-limited uplink ceiling: 2 ports × toggle rate × 1 bit.

        80 M toggles/s per ADRF5020 → the paper's 160 Mbps (§9.5).
        """
        per_port = min(
            self.switch_a.max_toggle_rate_hz,
            self.switch_b.max_toggle_rate_hz,
            self.mcu.max_gpio_toggle_rate_hz,
        )
        return 2.0 * per_port

    def max_downlink_bit_rate_bps(self) -> float:
        """Detector-limited downlink ceiling (36 Mbps at defaults)."""
        return min(
            self.detector_a.max_bit_rate_bps(),
            self.detector_b.max_bit_rate_bps(),
        )

    def validate_uplink_rate(self, bit_rate_bps: float) -> None:
        """Raise when a requested uplink rate exceeds the hardware."""
        limit = self.max_uplink_bit_rate_bps()
        if bit_rate_bps > limit:
            raise ConfigurationError(
                f"uplink rate {bit_rate_bps/1e6:.0f} Mbps exceeds the "
                f"switch-limited ceiling {limit/1e6:.0f} Mbps"
            )

    def validate_downlink_rate(self, bit_rate_bps: float) -> None:
        """Raise when a requested downlink rate is not positive or exceeds
        the hardware."""
        if bit_rate_bps <= 0:
            raise ConfigurationError("bit rate must be positive")
        limit = self.max_downlink_bit_rate_bps()
        if bit_rate_bps > limit:
            raise ConfigurationError(
                f"downlink rate {bit_rate_bps/1e6:.0f} Mbps exceeds the "
                f"detector-limited ceiling {limit/1e6:.0f} Mbps"
            )
