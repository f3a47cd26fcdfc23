"""Digital filter tests (repro.dsp.filters)."""

import numpy as np
import pytest

from repro.dsp.filters import (
    apply_fir,
    bandpass,
    design_bandpass_fir,
    design_lowpass_fir,
    lowpass,
    moving_average,
    single_pole_lowpass,
)
from repro.dsp.signal import Signal
from repro.errors import ConfigurationError, SignalError


def tone_signal(freq, fs=1e6, n=4000):
    t = np.arange(n) / fs
    return Signal(np.exp(2j * np.pi * freq * t), fs)


def direct_centred(samples, taps):
    """y[k] = sum over m of taps[m]·x[k + (M-1)//2 - m], zero outside the signal."""
    start = (len(taps) - 1) // 2
    out = np.zeros(len(samples), dtype=np.result_type(samples, taps))
    for k in range(len(samples)):
        for m, tap in enumerate(taps):
            j = k + start - m
            if 0 <= j < len(samples):
                out[k] += tap * samples[j]
    return out


def measure_gain(filtered, original):
    core = slice(500, -500)
    return np.sqrt(
        np.mean(np.abs(filtered.samples[core]) ** 2)
        / np.mean(np.abs(original.samples[core]) ** 2)
    )


class TestLowpassDesign:
    def test_unity_dc_gain(self):
        taps = design_lowpass_fir(1e4, 1e6)
        assert taps.sum() == pytest.approx(1.0)

    def test_passband_tone_passes(self):
        s = tone_signal(5e3)
        assert measure_gain(lowpass(s, 5e4), s) == pytest.approx(1.0, abs=0.05)

    def test_stopband_tone_attenuated(self):
        s = tone_signal(3e5)
        assert measure_gain(lowpass(s, 5e4), s) < 0.02

    def test_even_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            design_lowpass_fir(1e4, 1e6, num_taps=128)

    def test_cutoff_above_nyquist_rejected(self):
        with pytest.raises(ConfigurationError):
            design_lowpass_fir(6e5, 1e6)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ConfigurationError):
            design_lowpass_fir(-1.0, 1e6)


class TestBandpassDesign:
    def test_center_gain_unity(self):
        s = tone_signal(1e5)
        filtered = bandpass(s, 0.8e5, 1.2e5)
        assert measure_gain(filtered, s) == pytest.approx(1.0, abs=0.1)

    def test_dc_blocked(self):
        s = Signal(np.ones(4000, dtype=complex), 1e6)
        filtered = bandpass(s, 0.8e5, 1.2e5)
        assert measure_gain(filtered, s) < 0.02

    def test_out_of_band_tone_blocked(self):
        s = tone_signal(3e5)
        filtered = bandpass(s, 0.8e5, 1.2e5)
        assert measure_gain(filtered, s) < 0.05

    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigurationError):
            design_bandpass_fir(2e5, 1e5, 1e6)

    def test_zero_low_edge_allowed(self):
        taps = design_bandpass_fir(0.0, 1e5, 1e6)
        assert np.isfinite(taps).all()


class TestApplyFir:
    def test_length_preserved(self):
        s = tone_signal(1e4, n=1000)
        taps = design_lowpass_fir(5e4, 1e6)
        assert len(apply_fir(s, taps)) == 1000

    def test_empty_signal_raises(self):
        taps = design_lowpass_fir(5e4, 1e6)
        with pytest.raises(SignalError):
            apply_fir(Signal(np.array([], dtype=complex), 1e6), taps)

    def test_linearity(self):
        taps = design_lowpass_fir(5e4, 1e6)
        a = tone_signal(1e4)
        b = tone_signal(2e4)
        combined = apply_fir(a + b, taps)
        separate = apply_fir(a, taps) + apply_fir(b, taps)
        assert np.allclose(combined.samples, separate.samples, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 100, 128])
    def test_filter_longer_than_signal_keeps_length(self, n):
        s = Signal(np.random.default_rng(n).standard_normal(n), 1e6)
        assert len(lowpass(s, 5e4)) == n  # 129 taps
        assert len(bandpass(s, 1e4, 1e5)) == n  # 257 taps

    @pytest.mark.parametrize("n", [1, 100, 257])
    def test_output_is_centred_convolution(self, n):
        rng = np.random.default_rng(n)
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        taps = design_bandpass_fir(1e4, 1e5, 1e6)  # 257 taps
        out = apply_fir(Signal(samples, 1e6), taps)
        np.testing.assert_allclose(out.samples, direct_centred(samples, taps), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [129, 130, 1000])
    def test_signal_as_long_as_filter_keeps_numpy_same_mode(self, n):
        rng = np.random.default_rng(n)
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        taps = design_lowpass_fir(5e4, 1e6)  # 129 taps
        out = apply_fir(Signal(samples, 1e6), taps)
        assert np.array_equal(out.samples, np.convolve(samples, taps, mode="same"))


class TestMovingAverage:
    def test_constant_signal_unchanged(self):
        s = Signal(np.ones(100, dtype=complex), 1e6)
        out = moving_average(s, 10)
        assert np.allclose(out.samples[20:-20], 1.0)

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            moving_average(tone_signal(1e4), 0)

    @pytest.mark.parametrize("window", [101, 150])
    def test_window_longer_than_signal_keeps_length(self, window):
        samples = np.random.default_rng(window).standard_normal(100)
        out = moving_average(Signal(samples, 1e6), window)
        assert len(out) == 100
        taps = np.full(window, 1.0 / window)
        np.testing.assert_allclose(out.samples, direct_centred(samples, taps), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("window", [1, 10, 99, 100])
    def test_window_within_signal_keeps_numpy_same_mode(self, window):
        samples = np.random.default_rng(window).standard_normal(100)
        out = moving_average(Signal(samples, 1e6), window)
        taps = np.full(window, 1.0 / window)
        assert np.array_equal(out.samples, np.convolve(samples, taps, mode="same"))


class TestSinglePole:
    def test_step_response_rises_exponentially(self):
        fs = 1e8
        bw = 1e6
        s = Signal(np.ones(3000, dtype=complex), fs)
        out = single_pole_lowpass(s, bw)
        # After ~3 time constants (3/(2 pi bw)) the output reaches ~95%.
        n_3tau = int(3.0 / (2 * np.pi * bw) * fs)
        assert abs(out.samples[n_3tau]) == pytest.approx(0.95, abs=0.03)
        assert abs(out.samples[-1]) == pytest.approx(1.0, abs=0.01)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            single_pole_lowpass(tone_signal(1e4), 0.0)

    def test_high_frequency_attenuated(self):
        s = tone_signal(4e5, fs=1e7, n=5000)
        out = single_pole_lowpass(s, 1e4)
        assert measure_gain(out, s) < 0.05
