"""Digital filters used by the receive chains.

Implements windowed-sinc FIR design plus the handful of application
shapes the AP and node need: low-pass (detector video bandwidth),
band-pass (the AP's ZFHP-series filters after the mixer), and moving
average (symbol integration).

:func:`first_order_lowpass` is the one caller of :mod:`scipy.signal`:
the detector's rise and fall (:func:`single_pole_lowpass`) and the burst
kernel's cancellation residual both run through it. It imports SciPy at
its first call, not when this module loads: the import costs more than
the rest of ``import repro``, and netsim, lint and obs runs never
filter. Forked pool workers would each import it again at their first
filter call, so this module also imports :mod:`scipy.signal` just
before any fork (``os.register_at_fork``), and the workers inherit it.
Either way the import runs once, under its own ``dsp.import_scipy``
span.

:func:`first_order_lowpass_noise_at` draws the same filter's response to
white noise at chosen instants only, from its exact joint law there.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro import obs
from repro.dsp.signal import Signal
from repro.errors import ConfigurationError, SignalError

__all__ = [
    "design_lowpass_fir",
    "design_bandpass_fir",
    "apply_fir",
    "lowpass",
    "bandpass",
    "moving_average",
    "single_pole_lowpass",
    "single_pole_alpha",
    "first_order_lowpass",
    "first_order_lowpass_noise_at",
]


def _import_scipy_signal() -> None:
    """Import :mod:`scipy.signal` under its own span the first time, so
    a trace charges the import to ``dsp.import_scipy``, not to whatever
    span was open (a pool's map, when this runs before a fork)."""
    if "scipy.signal" not in sys.modules:
        with obs.span("dsp.import_scipy"):
            import scipy.signal  # noqa: F401


if hasattr(os, "register_at_fork"):  # the worker pool refuses to run without fork
    os.register_at_fork(before=_import_scipy_signal)


def design_lowpass_fir(
    cutoff_hz: float,
    sample_rate_hz: float,
    num_taps: int = 129,
) -> np.ndarray:
    """Windowed-sinc (Hamming) low-pass FIR with unity DC gain."""
    _check_band(cutoff_hz, sample_rate_hz)
    if num_taps < 3 or num_taps % 2 == 0:
        raise ConfigurationError("num_taps must be an odd integer >= 3")
    fc = cutoff_hz / sample_rate_hz  # normalized (cycles/sample)
    n = np.arange(num_taps) - (num_taps - 1) / 2
    taps = 2.0 * fc * np.sinc(2.0 * fc * n)
    taps *= np.hamming(num_taps)
    taps /= taps.sum()
    return taps


def design_bandpass_fir(
    low_hz: float,
    high_hz: float,
    sample_rate_hz: float,
    num_taps: int = 257,
) -> np.ndarray:
    """Band-pass FIR as the difference of two low-pass designs.

    Gain is normalized to unity at the band center_hz.
    """
    if not 0.0 <= low_hz < high_hz:
        raise ConfigurationError(f"need 0 <= low < high, got [{low_hz}, {high_hz}]")
    _check_band(high_hz, sample_rate_hz)
    hp_part = design_lowpass_fir(high_hz, sample_rate_hz, num_taps)
    if low_hz <= 0.0:  # the guard above pins low_hz >= 0, so this is the DC edge
        taps = hp_part
    else:
        lp_part = design_lowpass_fir(low_hz, sample_rate_hz, num_taps)
        taps = hp_part - lp_part
    center_hz = 0.5 * (low_hz + high_hz)
    n = np.arange(num_taps) - (num_taps - 1) / 2
    response = np.abs(np.sum(taps * np.exp(-2j * np.pi * center_hz / sample_rate_hz * n)))
    if response < 1e-12:
        raise ConfigurationError("degenerate band-pass design (zero center_hz gain)")
    return taps / response


def apply_fir(signal: Signal, taps: np.ndarray) -> Signal:
    """Filter a signal, compensating the FIR group delay.

    The output keeps the input's N samples: those of the full convolution
    from index (M-1)//2 on, for M taps. For the symmetric designs above
    the group delay is (M-1)/2 samples, so timestamps stay aligned with
    the input. While N >= M this is NumPy's 'same' mode bit for bit;
    'same' would return M samples when the filter is the longer one.
    """
    if signal.samples.size == 0:
        raise SignalError("cannot filter an empty signal")
    start = (taps.size - 1) // 2
    filtered = np.convolve(signal.samples, taps)[start : start + signal.samples.size]
    return Signal(
        filtered,
        signal.sample_rate_hz,
        signal.center_frequency_hz,
        signal.start_time_s,
    )


def lowpass(signal: Signal, cutoff_hz: float, num_taps: int = 129) -> Signal:
    """Low-pass filter a signal with a windowed-sinc FIR."""
    return apply_fir(signal, design_lowpass_fir(cutoff_hz, signal.sample_rate_hz, num_taps))


def bandpass(
    signal: Signal,
    low_hz: float,
    high_hz: float,
    num_taps: int = 257,
) -> Signal:
    """Band-pass filter a signal (e.g. the AP's post-mixer BPF)."""
    return apply_fir(
        signal, design_bandpass_fir(low_hz, high_hz, signal.sample_rate_hz, num_taps)
    )


def moving_average(signal: Signal, window_samples: int) -> Signal:
    """Boxcar average; the optimum integrator for rectangular symbols."""
    if window_samples < 1:
        raise ConfigurationError("window must be at least one sample")
    return apply_fir(signal, np.full(window_samples, 1.0 / window_samples))


def single_pole_lowpass(signal: Signal, bandwidth_hz: float) -> Signal:
    """First-order (RC) IIR low-pass.

    This is the shape of an envelope detector's video output: exponential
    rise/fall with time constant 1/(2π·BW). Used by the hardware models to
    impose finite rise/fall times.
    """
    return Signal(
        first_order_lowpass(
            signal.samples, single_pole_alpha(bandwidth_hz, signal.sample_rate_hz)
        ),
        signal.sample_rate_hz,
        signal.center_frequency_hz,
        signal.start_time_s,
    )


def single_pole_alpha(bandwidth_hz: float, sample_rate_hz: float) -> float:
    """The coefficient ``alpha`` of :func:`first_order_lowpass` that
    :func:`single_pole_lowpass` applies at ``sample_rate_hz``."""
    if bandwidth_hz <= 0:
        raise ConfigurationError("bandwidth must be positive")
    dt = 1.0 / sample_rate_hz
    return float(1.0 - np.exp(-2.0 * np.pi * bandwidth_hz * dt))


def first_order_lowpass(samples: np.ndarray, alpha: float) -> np.ndarray:
    """``y[k] = alpha·x[k] + (1 - alpha)·y[k-1]`` along the last axis, from rest.

    NumPy cannot vectorize the dependence chain, but SciPy's ``lfilter``
    runs it in C. SciPy is imported here, at the first call.
    """
    _import_scipy_signal()
    from scipy.signal import lfilter

    return lfilter([alpha], [1.0, -(1.0 - alpha)], samples, axis=-1)


def first_order_lowpass_noise_at(
    instants: np.ndarray,
    alpha: float,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """:func:`first_order_lowpass` of white Gaussian noise of standard
    deviation ``sigma``, read only at the increasing sample indices
    ``instants`` and drawn from its exact joint law there.

    From rest, the filtered noise is an AR(1) process. Over a gap of Δ
    samples it decays by c^Δ (c = 1 − alpha) and gains an independent
    Gaussian innovation of variance α²σ²(1 − c^{2Δ})/(1 − c²). The first
    instant is reached from rest one sample before index 0, so an output
    at index k has variance α²σ²(1 − c^{2(k+1)})/(1 − c²). One standard
    normal is drawn per instant.
    """
    c = 1.0 - alpha
    gaps = np.diff(instants, prepend=-1)
    innovations = (
        alpha * sigma * np.sqrt((1.0 - c ** (2 * gaps)) / (1.0 - c * c))
        * rng.standard_normal(gaps.size)
    )
    out = np.empty(gaps.size)
    level = 0.0
    for k, (decay, innovation) in enumerate(zip((c**gaps).tolist(), innovations.tolist())):
        level = decay * level + innovation
        out[k] = level
    return out


def _check_band(edge_hz: float, sample_rate_hz: float) -> None:
    if edge_hz <= 0:
        raise ConfigurationError("band edge must be positive")
    if edge_hz >= sample_rate_hz / 2:
        raise ConfigurationError(
            f"band edge {edge_hz} Hz at/above Nyquist ({sample_rate_hz/2} Hz)"
        )
