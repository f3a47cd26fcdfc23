"""Uplink modulator: bits → per-port switch gate waveforms (paper §6.3).

To send 2 bits per symbol, the node routes each FSA port independently:
REFLECT (short to ground) re-radiates that port's tone back to the AP,
ABSORB (into the detector) suppresses it. The modulator turns a bit
stream into the two gate arrays the simulator multiplies the reflected
tones with, while enforcing the switch/MCU rate limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.node.config import NodeConfig
from repro.phy.oaqfm import tone_gates

__all__ = ["UplinkModulator", "GatePair"]


@dataclass(frozen=True)
class GatePair:
    """Per-sample reflect gates for both ports plus timing metadata."""

    gate_a: np.ndarray
    gate_b: np.ndarray
    symbol_rate_hz: float
    samples_per_symbol: int

    @property
    def n_symbols(self) -> int:
        """How many symbols the gates span."""
        return self.gate_a.size // self.samples_per_symbol


class UplinkModulator:
    """Turns payload bits into OAQFM switch gates."""

    def __init__(self, config: NodeConfig | None = None) -> None:
        self.config = config or NodeConfig()

    def gates_for_bits(
        self,
        bits: Sequence[int],
        bit_rate_bps: float,
        sample_rate_hz: float,
    ) -> GatePair:
        """Build reflect gates for an OAQFM uplink burst.

        ``bit_rate_bps`` counts both ports (2 bits per symbol), so each
        switch toggles at most at half that rate — checked against the
        hardware limits.
        """
        if bit_rate_bps <= 0:
            raise ConfigurationError("bit rate must be positive")
        self.config.validate_uplink_rate(bit_rate_bps)
        symbol_rate_bps = bit_rate_bps / 2.0
        samples_per_symbol = int(round(sample_rate_hz / symbol_rate_bps))
        if samples_per_symbol < 4:
            raise ConfigurationError(
                "fewer than 4 samples per symbol; raise the simulation rate"
            )
        self.config.switch_a.check_toggle_rate(symbol_rate_bps)
        self.config.switch_b.check_toggle_rate(symbol_rate_bps)
        self.config.mcu.check_switching_rate(symbol_rate_bps)
        gate_a, gate_b = tone_gates(bits, samples_per_symbol)
        return GatePair(gate_a, gate_b, symbol_rate_bps, samples_per_symbol)

    def localization_gates(
        self,
        duration_s: float,
        sample_rate_hz: float,
        toggle_rate_hz: float = 10e3,
        port: str = "both",
    ) -> GatePair:
        """Square-wave gates for the localization phase (§5.1).

        The node toggles between reflective and absorptive at 10 kHz so
        background subtraction can separate it from static clutter. For
        AP-side orientation sensing, only one port toggles while the
        other absorbs (§5.2a): pass ``port='A'`` or ``port='B'``.
        """
        if port not in ("both", "A", "B"):
            raise ConfigurationError(f"port must be 'both', 'A' or 'B', not {port!r}")
        self.config.switch_a.check_toggle_rate(toggle_rate_hz)
        n = int(round(duration_s * sample_rate_hz))
        t = np.arange(n) / sample_rate_hz
        square = ((t * toggle_rate_hz) % 1.0 < 0.5).astype(float)
        off = np.zeros(n)
        gate_a = square if port in ("both", "A") else off
        gate_b = square if port in ("both", "B") else off
        samples_per_half = max(int(round(sample_rate_hz / toggle_rate_hz / 2.0)), 1)
        return GatePair(gate_a, gate_b, toggle_rate_hz, samples_per_half)
