"""AP uplink receiver (paper §6.3, Fig. 7).

Two RX branches, each mixed against one query tone: the node's switched
reflection of that tone lands at baseband while self-interference and
clutter collapse to DC and are blocked. The receiver then integrates per
symbol and slices — the AP-side mirror of the node's envelope decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.mixing import remove_dc
from repro.dsp.modulation import bits_from_levels, symbol_integrate
from repro.dsp.signal import Signal
from repro.errors import DecodingError
from repro.node.demodulator import _safe_sinr

__all__ = ["UplinkDecodeResult", "UplinkReceiver", "PILOT_SYMBOLS", "pilot_bits"]

#: Known pilot prefix: per-branch gate values of the first symbols
#: ('11', '00', '11', '00'). DC removal makes each branch a zero-mean
#: ± waveform with an unknown sign; the pilot anchors the polarity the
#: way a real tag preamble does.
PILOT_SYMBOLS: tuple[int, ...] = (1, 0, 1, 0)


def pilot_bits() -> np.ndarray:
    """The pilot prefix as transmitted bits (2 bits per symbol)."""
    return np.repeat(np.asarray(PILOT_SYMBOLS, dtype=np.uint8), 2)


@dataclass(frozen=True)
class UplinkDecodeResult:
    """Decoded uplink burst plus per-branch quality metrics."""

    bits: np.ndarray
    levels_a: np.ndarray
    levels_b: np.ndarray
    snr_a_db: float
    snr_b_db: float

    @property
    def snr_db(self) -> float:
        """The weaker branch's SNR (the link bottleneck)."""
        return min(self.snr_a_db, self.snr_b_db)


class UplinkReceiver:
    """Baseband symbol recovery on the two mixed branches."""

    def decode(
        self,
        branch_a: Signal,
        branch_b: Signal,
        symbol_rate_hz: float,
        n_symbols: int,
        t_first_symbol_s: float | None = None,
        n_pilot_symbols: int = 0,
    ) -> UplinkDecodeResult:
        """Decode an OAQFM uplink burst.

        Branch k carries the node's gating of tone k as a baseband
        square wave (plus a DC residue from static reflections, removed
        here). Symbol integration and slicing follow. When
        ``n_pilot_symbols`` > 0, that many leading symbols are the known
        :data:`PILOT_SYMBOLS` prefix; they resolve the polarity ambiguity
        left by DC removal and are stripped from the returned bits.
        """
        if n_symbols < 1:
            raise DecodingError("need at least one symbol")
        if n_pilot_symbols > min(n_symbols, len(PILOT_SYMBOLS)):
            raise DecodingError("more pilot symbols than pattern/burst length")
        a = remove_dc(branch_a)
        b = remove_dc(branch_b)
        symbol_duration = 1.0 / symbol_rate_hz
        # The node's reflection arrives with an unknown carrier phase;
        # integrating |·| after DC removal would fold noise in, so rotate
        # each branch onto its dominant phase first and use the real part.
        levels_a = symbol_integrate(
            _phase_aligned(a), symbol_duration, n_symbols, t_first_symbol_s
        )
        levels_b = symbol_integrate(
            _phase_aligned(b), symbol_duration, n_symbols, t_first_symbol_s
        )
        if n_pilot_symbols:
            pattern = np.asarray(PILOT_SYMBOLS[:n_pilot_symbols], dtype=float) - 0.5
            levels_a = _pilot_polarity(levels_a, pattern)
            levels_b = _pilot_polarity(levels_b, pattern)
        else:
            levels_a = _polarity_normalized(levels_a)
            levels_b = _polarity_normalized(levels_b)
        bits = bits_from_levels(levels_a, levels_b)
        data_a = levels_a[n_pilot_symbols:]
        data_b = levels_b[n_pilot_symbols:]
        return UplinkDecodeResult(
            bits=bits[2 * n_pilot_symbols :],
            levels_a=data_a,
            levels_b=data_b,
            snr_a_db=_safe_sinr(levels_a),
            snr_b_db=_safe_sinr(levels_b),
        )


def _phase_aligned(signal: Signal) -> Signal:
    """Rotate the node's carrier phase onto the real axis.

    After DC removal the branch is a ±level binary waveform times an
    unknown e^{jφ}; squaring removes the sign, so φ is half the angle of
    the mean squared signal (the classic BPSK phase estimator; the π
    ambiguity is resolved later by polarity normalization).
    """
    if signal.samples.size == 0:
        raise DecodingError("empty branch signal")
    moment = np.mean(signal.samples**2)
    if abs(moment) < 1e-30:
        return signal
    phase = 0.5 * float(np.angle(moment))
    return signal.phase_shifted(-phase)


def _pilot_polarity(levels: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Flip the level stream when it anticorrelates with the known pilot."""
    n = pattern.size
    if float(np.dot(levels[:n] - levels[:n].mean(), pattern)) < 0.0:
        return -levels
    return levels


def _polarity_normalized(levels: np.ndarray) -> np.ndarray:
    """Flip the level stream when DC removal inverted it (more energy in
    the negative cluster than the positive one)."""
    if np.abs(levels.min()) > np.abs(levels.max()):
        return -levels
    return levels
