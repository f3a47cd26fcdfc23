"""Signal container tests (repro.dsp.signal)."""

import numpy as np
import pytest

from repro.dsp.signal import Signal
from repro.errors import SignalError


def make_signal(n=100, fs=1e6, **kw):
    return Signal(np.ones(n, dtype=complex), fs, **kw)


class TestConstruction:
    def test_real_input_stays_real(self):
        # Float64 stays float64; int, bool and narrower floats become
        # float64; complex input is kept as given.
        assert Signal(np.ones(4), 1e3).samples.dtype == np.float64
        for real in (np.arange(4), np.ones(4, dtype=bool), np.ones(4, dtype=np.float32)):
            assert Signal(real, 1e3).samples.dtype == np.float64
        for cplx in (np.complex64, np.complex128):
            assert Signal(np.ones(4, dtype=cplx), 1e3).samples.dtype == cplx
        # A complex phasor makes real samples complex.
        assert np.iscomplexobj(Signal(np.ones(4), 1e3).phase_shifted(0.5).samples)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_padded_keeps_dtype(self, dtype):
        padded = Signal(np.ones(4, dtype=dtype), 1e3).padded(2, 3)
        assert padded.samples.dtype == dtype
        assert np.array_equal(padded.samples, [0, 0, 1, 1, 1, 1, 0, 0, 0])

    def test_rejects_2d(self):
        with pytest.raises(SignalError):
            Signal(np.ones((2, 2)), 1e3)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(SignalError):
            Signal(np.ones(4), 0.0)

    def test_len(self):
        assert len(make_signal(42)) == 42

    def test_duration(self):
        assert make_signal(100, 1e6).duration_s == pytest.approx(100e-6)

    def test_time_axis_starts_at_start_time(self):
        s = make_signal(10, 1e6, start_time_s=1e-3)
        assert s.time_axis_s[0] == pytest.approx(1e-3)
        assert s.time_axis_s[-1] == pytest.approx(1e-3 + 9e-6)


class TestPower:
    def test_unit_amplitude_power(self):
        assert make_signal().mean_power_w() == pytest.approx(1.0)

    def test_power_dbm_of_one_watt(self):
        assert make_signal().mean_power_dbm() == pytest.approx(30.0)

    def test_peak_power(self):
        s = Signal(np.array([1.0, 2.0, 0.5]), 1e3)
        assert s.peak_power_w() == pytest.approx(4.0)

    def test_empty_power_is_zero(self):
        assert Signal(np.array([], dtype=complex), 1e3).mean_power_w() == 0.0


class TestTransforms:
    def test_scaled_power(self):
        assert make_signal().scaled(2.0).mean_power_w() == pytest.approx(4.0)

    def test_gain_db(self):
        assert make_signal().with_gain_db(20.0).mean_power_w() == pytest.approx(100.0)

    def test_phase_shift_preserves_power(self):
        s = make_signal().phase_shifted(1.234)
        assert s.mean_power_w() == pytest.approx(1.0)
        assert np.angle(s.samples[0]) == pytest.approx(1.234)

    def test_delay_moves_start_time(self):
        s = make_signal(start_time_s=0.0).delayed(5e-6)
        assert s.start_time_s == pytest.approx(5e-6)

    def test_frequency_shift_moves_tone(self):
        fs = 1e6
        n = 1000
        t = np.arange(n) / fs
        tone = Signal(np.exp(2j * np.pi * 1e4 * t), fs)
        shifted = tone.frequency_shifted(2e4)
        spectrum = np.fft.fftshift(np.fft.fft(shifted.samples))
        freqs = np.fft.fftshift(np.fft.fftfreq(n, 1 / fs))
        peak = freqs[np.argmax(np.abs(spectrum))]
        assert peak == pytest.approx(3e4, abs=fs / n)

    def test_retuned_preserves_absolute_content(self):
        fs = 1e6
        n = 2000
        t = np.arange(n) / fs
        # Content at +10 kHz offset from a 1 GHz center = 1.00001 GHz.
        s = Signal(np.exp(2j * np.pi * 1e4 * t), fs, center_frequency_hz=1e9)
        retuned = s.retuned(1e9 - 2e4)
        spectrum = np.fft.fftshift(np.fft.fft(retuned.samples))
        freqs = np.fft.fftshift(np.fft.fftfreq(n, 1 / fs))
        peak = freqs[np.argmax(np.abs(spectrum))]
        assert retuned.center_frequency_hz == pytest.approx(1e9 - 2e4)
        assert peak == pytest.approx(3e4, abs=fs / n)

    def test_conjugate(self):
        s = Signal(np.array([1 + 1j]), 1e3).conjugate()
        assert s.samples[0] == pytest.approx(1 - 1j)

    def test_copy_is_independent(self):
        s = make_signal()
        c = s.copy()
        c.samples[0] = 0.0
        assert s.samples[0] == 1.0


class TestSliceAndPad:
    def test_sliced_window(self):
        s = make_signal(100, 1e6)
        cut = s.sliced(20e-6, 50e-6)
        assert len(cut) == 30
        assert cut.start_time_s == pytest.approx(20e-6)

    def test_sliced_clamps_to_signal(self):
        s = make_signal(10, 1e6)
        cut = s.sliced(-1.0, 1.0)
        assert len(cut) == 10

    def test_sliced_backwards_raises(self):
        with pytest.raises(SignalError):
            make_signal().sliced(1.0, 0.0)

    def test_padded_length_and_time(self):
        s = make_signal(10, 1e6).padded(5, 3)
        assert len(s) == 18
        assert s.start_time_s == pytest.approx(-5e-6)

    def test_padded_negative_raises(self):
        with pytest.raises(SignalError):
            make_signal().padded(-1)


class TestArithmetic:
    def test_add_signals(self):
        s = make_signal() + make_signal()
        assert s.samples[0] == pytest.approx(2.0)

    def test_add_scalar(self):
        s = make_signal() + 1.0
        assert s.samples[0] == pytest.approx(2.0)

    def test_multiply_signals(self):
        s = make_signal().scaled(2.0) * make_signal().scaled(3.0)
        assert s.samples[0] == pytest.approx(6.0)

    def test_add_mismatched_rate_raises(self):
        with pytest.raises(SignalError):
            make_signal(fs=1e6) + make_signal(fs=2e6)

    def test_add_mismatched_length_raises(self):
        with pytest.raises(SignalError):
            make_signal(10) + make_signal(20)

    def test_add_mismatched_start_raises(self):
        with pytest.raises(SignalError):
            make_signal() + make_signal(start_time_s=1.0)


class TestConcatAndSilence:
    def test_concatenated_length(self):
        s = make_signal(10).concatenated(make_signal(5))
        assert len(s) == 15

    def test_concatenate_rate_mismatch_raises(self):
        with pytest.raises(SignalError):
            make_signal(fs=1e6).concatenated(make_signal(fs=2e6))

    def test_concatenate_center_mismatch_raises(self):
        a = make_signal(center_frequency_hz=1e9)
        b = make_signal(center_frequency_hz=2e9)
        with pytest.raises(SignalError):
            a.concatenated(b)

    def test_silence(self):
        s = Signal.silence(1e-3, 1e6)
        assert len(s) == 1000
        assert s.mean_power_w() == 0.0
