"""Envelope detection DSP.

The node's only receive element is an envelope (power) detector: it
outputs a voltage proportional to incident RF power, blind to frequency
and phase. This module provides the ideal math; the behavioural
ADL6010-style hardware model (noise, responsivity, finite video
bandwidth) lives in :mod:`repro.hardware.envelope_detector`.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.filters import single_pole_lowpass
from repro.dsp.signal import Signal
from repro.errors import SignalError

__all__ = [
    "ideal_envelope",
    "power_envelope",
    "video_filtered_envelope",
    "two_tone_mean_envelope",
]


def two_tone_mean_envelope(amplitude_a, amplitude_b):
    """Video-filtered envelope of two tones far apart in frequency.

    A linear envelope detector fed a + b·e^{jΔωt} outputs
    |a + b·e^{jΔωt}|; when the tone spacing Δω is far above the video
    bandwidth (OAQFM tone pairs are 0.1–3 GHz apart, video ≈ 40 MHz),
    the filter keeps only the phase-average

        ⟨|a + b·e^{jφ}|⟩_φ = (2/π)·(a+b)·E(m),  m = 4ab/(a+b)²

    with E the complete elliptic integral of the second kind. Computing
    this closed form lets the node-side simulation run at video rates
    instead of multi-GHz RF rates with zero loss of fidelity in the
    post-filter value.
    """
    from scipy.special import ellipe

    a = np.abs(np.asarray(amplitude_a, dtype=float))
    b = np.abs(np.asarray(amplitude_b, dtype=float))
    total = a + b
    with np.errstate(invalid="ignore", divide="ignore"):
        m = np.where(total > 0, 4.0 * a * b / np.maximum(total, 1e-300) ** 2, 0.0)
    result = (2.0 / np.pi) * total * ellipe(np.clip(m, 0.0, 1.0))
    return result if result.ndim else float(result)


def ideal_envelope(signal: Signal) -> Signal:
    """Magnitude envelope |x(t)| as a real baseband signal."""
    return Signal(
        np.abs(signal.samples),
        signal.sample_rate_hz,
        0.0,
        signal.start_time_s,
    )


def power_envelope(signal: Signal) -> Signal:
    """Instantaneous power |x(t)|^2 [W] as a real baseband signal.

    A square-law detector (the ADL6010 below ~ -15 dBm input) responds to
    power, so this is the physically right observable for the node.
    """
    return Signal(
        np.abs(signal.samples) ** 2,
        signal.sample_rate_hz,
        0.0,
        signal.start_time_s,
    )


def video_filtered_envelope(signal: Signal, video_bandwidth_hz: float) -> Signal:
    """Power envelope smoothed by a first-order video filter.

    ``video_bandwidth_hz`` sets the detector's rise/fall time
    (t_rise ≈ 0.35 / BW); this is what caps MilBack's downlink at 36 Mbps.
    """
    if signal.samples.size == 0:
        raise SignalError("empty signal")
    return single_pole_lowpass(power_envelope(signal), video_bandwidth_hz)
