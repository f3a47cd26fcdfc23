"""Orientation Assisted Quadrature Frequency Modulation (OAQFM), paper §6.2.

OAQFM represents 2 bits per symbol by the presence/absence of two tones
whose frequencies f_A, f_B are *chosen from the node's orientation* so
that each tone lands exclusively on one FSA port:

    bits "00" → neither tone      bits "10" → tone at f_A only
    bits "01" → tone at f_B only  bits "11" → both tones

Because each port sees only "its" tone, an envelope detector per port
decodes the pair without any mixer or oscillator — the whole point of
the scheme. When the node faces the AP squarely, f_A = f_B and the
system degrades to single-tone OOK (see :mod:`repro.phy.ook`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.antennas.dual_port_fsa import TonePair
from repro.dsp.signal import Signal
from repro.dsp.waveforms import tone
from repro.errors import ConfigurationError, DecodingError

__all__ = [
    "OaqfmSymbol",
    "bits_to_symbols",
    "symbols_to_bits",
    "oaqfm_waveform",
    "tone_gates",
]


@dataclass(frozen=True)
class OaqfmSymbol:
    """One OAQFM symbol: which of the two tones is on."""

    tone_a_on: bool
    tone_b_on: bool

    @classmethod
    def from_bits(cls, bit_a: int, bit_b: int) -> "OaqfmSymbol":
        """Map a bit pair to a symbol (first bit rides tone A)."""
        return cls(bool(bit_a), bool(bit_b))

    def to_bits(self) -> tuple[int, int]:
        """Inverse of :meth:`from_bits`."""
        return (int(self.tone_a_on), int(self.tone_b_on))

    @property
    def label(self) -> str:
        """The paper's "00"/"01"/"10"/"11" notation."""
        return f"{int(self.tone_a_on)}{int(self.tone_b_on)}"


def _bit_pairs(bits: Sequence[int]) -> NDArray[np.uint8]:
    """``bits`` as (tone A, tone B) rows, one per symbol, zero-padding
    odd lengths."""
    arr = np.asarray(bits)
    if arr.size == 0:
        raise ConfigurationError("no bits to modulate")
    if np.any((arr != 0) & (arr != 1)):
        raise ConfigurationError("bits must be 0/1")
    padded = np.zeros(arr.size + arr.size % 2, dtype=np.uint8)
    padded[: arr.size] = arr.ravel()
    return padded.reshape(-1, 2)


def bits_to_symbols(bits: Sequence[int]) -> list[OaqfmSymbol]:
    """Pack a bit sequence into OAQFM symbols, zero-padding odd lengths."""
    return [OaqfmSymbol.from_bits(a, b) for a, b in _bit_pairs(bits).tolist()]


def symbols_to_bits(symbols: Sequence[OaqfmSymbol]) -> NDArray[np.uint8]:
    """Unpack symbols back into the interleaved bit vector."""
    if not symbols:
        raise DecodingError("no symbols to unpack")
    bits = np.empty(2 * len(symbols), dtype=np.uint8)
    for k, symbol in enumerate(symbols):
        bits[2 * k], bits[2 * k + 1] = symbol.to_bits()
    return bits


def tone_gates(
    bits: Sequence[int],
    samples_per_symbol: int,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Per-sample on/off gates for tone A and tone B while ``bits``
    (zero-padded to whole symbols, first bit of each pair on tone A) are
    sent at ``samples_per_symbol``."""
    if samples_per_symbol < 1:
        raise ConfigurationError("samples_per_symbol must be >= 1")
    pairs = _bit_pairs(bits).astype(np.float64)
    return (
        np.repeat(pairs[:, 0], samples_per_symbol),
        np.repeat(pairs[:, 1], samples_per_symbol),
    )


def oaqfm_waveform(
    bits: Sequence[int],
    pair: TonePair,
    symbol_rate_hz: float,
    sample_rate_hz: float,
    amplitude: float = 1.0,
    center_frequency_hz: float | None = None,
) -> Signal:
    """Synthesize the AP's downlink OAQFM waveform for ``bits``.

    Each tone is gated by its bit stream; both tones ride on one complex
    baseband centered between them (or at ``center_frequency_hz``).
    """
    samples_per_symbol = int(round(sample_rate_hz / symbol_rate_hz))
    if samples_per_symbol < 4:
        raise ConfigurationError(
            "fewer than 4 samples per symbol; raise the sample rate"
        )
    gate_a, gate_b = tone_gates(bits, samples_per_symbol)
    center_hz = (
        0.5 * (pair.freq_a_hz + pair.freq_b_hz)
        if center_frequency_hz is None
        else center_frequency_hz
    )
    duration = gate_a.size / sample_rate_hz
    carrier_a = tone(pair.freq_a_hz, duration, sample_rate_hz, amplitude, center_hz)
    carrier_b = tone(pair.freq_b_hz, duration, sample_rate_hz, amplitude, center_hz)
    n = carrier_a.samples.size
    samples = carrier_a.samples * gate_a[:n] + carrier_b.samples * gate_b[:n]
    return Signal(samples, sample_rate_hz, center_hz, 0.0)
