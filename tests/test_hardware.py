"""Hardware behavioural-model tests (repro.hardware)."""

import math

import numpy as np
import pytest

from repro import faults
from repro.constants import NODE_ADC_RATE_HZ
from repro.dsp.filters import single_pole_lowpass
from repro.dsp.signal import Signal
from repro.dsp.waveforms import SawtoothChirp, tone
from repro.errors import ConfigurationError, HardwareError
from repro.hardware.adc import Adc
from repro.hardware.amplifier import Amplifier, default_lna, default_pa
from repro.hardware.envelope_detector import EnvelopeDetector
from repro.hardware.mcu import Microcontroller
from repro.hardware.mixer_rf import RfMixer
from repro.hardware.power import ComponentPower, NodeMode, PowerBudget
from repro.hardware.switch import SpdtSwitch, SwitchState
from repro.hardware.waveform_generator import WaveformGenerator


class TestPowerBudget:
    def make_budget(self):
        budget = PowerBudget()
        node = __import__("repro.node.node", fromlist=["BackscatterNode"])
        return budget

    def test_paper_power_numbers(self):
        from repro.node.node import BackscatterNode

        node = BackscatterNode()
        assert node.power_w(NodeMode.DOWNLINK) == pytest.approx(18e-3, rel=1e-6)
        assert node.power_w(NodeMode.UPLINK) == pytest.approx(32e-3, rel=1e-6)
        assert node.power_w(NodeMode.LOCALIZATION) == pytest.approx(18e-3, rel=1e-2)

    def test_energy_per_bit(self):
        from repro.node.node import BackscatterNode

        budget = BackscatterNode().power_budget(uplink_bit_rate_bps=40e6)
        assert budget.energy_per_bit_j(NodeMode.UPLINK, 40e6) == pytest.approx(0.8e-9)
        assert budget.energy_per_bit_j(NodeMode.DOWNLINK, 36e6) == pytest.approx(0.5e-9)

    def test_mcu_included_when_requested(self):
        from repro.node.node import BackscatterNode

        node = BackscatterNode()
        with_mcu = node.power_budget(include_mcu=True).total_power_w(NodeMode.DOWNLINK)
        assert with_mcu == pytest.approx(18e-3 + 5.76e-3, rel=1e-6)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            ComponentPower("bad", {NodeMode.IDLE: -1.0})

    def test_breakdown_sums_to_total(self):
        from repro.node.node import BackscatterNode

        budget = BackscatterNode().power_budget()
        breakdown = budget.breakdown(NodeMode.UPLINK)
        assert sum(breakdown.values()) == pytest.approx(
            budget.total_power_w(NodeMode.UPLINK)
        )

    def test_zero_rate_energy_raises(self):
        budget = PowerBudget()
        with pytest.raises(ConfigurationError):
            budget.energy_per_bit_j(NodeMode.UPLINK, 0.0)


class TestSwitch:
    def test_reflect_amplitude_strong(self):
        sw = SpdtSwitch(insertion_loss_db=1.0)
        sw.set_state(SwitchState.REFLECT)
        assert sw.reflection_amplitude() == pytest.approx(10 ** (-0.1), rel=1e-6)

    def test_absorb_reflection_weak(self):
        sw = SpdtSwitch(isolation_db=30.0)
        sw.set_state(SwitchState.ABSORB)
        assert sw.reflection_amplitude() == pytest.approx(10 ** (-1.5), rel=1e-6)

    def test_through_amplitude_in_absorb(self):
        sw = SpdtSwitch(insertion_loss_db=1.0)
        sw.set_state(SwitchState.ABSORB)
        assert sw.through_amplitude() == pytest.approx(10 ** (-0.05), rel=1e-6)

    def test_toggle_rate_enforced(self):
        sw = SpdtSwitch(max_toggle_rate_hz=80e6)
        with pytest.raises(HardwareError):
            sw.check_toggle_rate(100e6)

    def test_power_scales_with_toggle_rate(self):
        sw = SpdtSwitch()
        assert sw.power_draw_w(20e6) > sw.power_draw_w(0.0)

    def test_uplink_power_calibration(self):
        # 1 mW static + 350 pJ x 20 MHz = 8 mW: half of the 32-18=14 mW
        # uplink increment comes from each switch.
        sw = SpdtSwitch()
        assert sw.power_draw_w(20e6) == pytest.approx(8e-3, rel=1e-6)


class TestEnvelopeDetector:
    def test_dc_response_linear_in_amplitude(self):
        det = EnvelopeDetector(responsivity_v_per_sqrt_w=2.0)
        assert det.output_voltage_for_power(1e-4) == pytest.approx(0.02)

    def test_rise_time(self):
        det = EnvelopeDetector(video_bandwidth_hz=40e6)
        assert det.rise_time_s() == pytest.approx(8.75e-9)

    def test_max_bit_rate_is_36mbps(self):
        det = EnvelopeDetector()
        assert det.max_bit_rate_bps() == pytest.approx(36e6)

    def test_detect_recovers_cw_level(self):
        det = EnvelopeDetector(output_noise_v_per_rt_hz=0.0)
        sig = tone(28e9, 1e-6, 1e9, amplitude=math.sqrt(1e-4), center_frequency_hz=28e9)
        out = det.detect(sig, rng=0)
        assert out.samples.real[-100:].mean() == pytest.approx(0.02, rel=0.01)

    def test_detect_output_is_real(self):
        det = EnvelopeDetector()
        sig = tone(28e9, 1e-7, 1e9, center_frequency_hz=28e9)
        out = det.detect(sig, rng=0)
        assert out.samples.dtype == np.float64

    @staticmethod
    def _complex_chain_detect(det, rf, rng):
        """The detector chain as it once ran, on complex128 samples whose
        imaginary part is zero, reduced to its real part at the end."""
        fs_hz = rf.sample_rate_hz
        envelope_v = faults.detector_output(
            det.responsivity_v_per_sqrt_w * np.abs(rf.samples)
        )
        filtered = single_pole_lowpass(
            Signal(envelope_v.astype(np.complex128), fs_hz), det.video_bandwidth_hz
        )
        raw_sigma = det.output_noise_v_per_rt_hz * math.sqrt(fs_hz / 2.0)
        noise = Signal(
            raw_sigma * rng.standard_normal(len(filtered)).astype(np.complex128), fs_hz
        )
        return (filtered + single_pole_lowpass(noise, det.video_bandwidth_hz)).samples.real

    @pytest.mark.parametrize("drift", [False, True])
    def test_detect_matches_complex_chain_bitwise(self, drift):
        # A 32-byte OAQFM port input on the engine's grid: 128 symbols of
        # 190 samples, about the length one detect call sees per session.
        det = EnvelopeDetector()
        levels = np.random.default_rng(4).choice([1e-3, 0.012, 0.02], size=128)
        rf = Signal(np.repeat(levels, 190), 190e6)
        specs = [faults.FaultSpec("detector_gain_drift", rate=1.0)] if drift else []

        with faults.activate(faults.FaultPlan(specs, rng=21)):
            out = det.detect(rf, rng=np.random.default_rng(9))
        with faults.activate(faults.FaultPlan(specs, rng=21)):
            expected = self._complex_chain_detect(det, rf, np.random.default_rng(9))
        assert out.samples.dtype == np.float64
        assert np.array_equal(out.samples, expected)

    def test_noise_sigma(self):
        det = EnvelopeDetector(
            output_noise_v_per_rt_hz=200e-9, video_bandwidth_hz=25e6
        )
        assert det.output_noise_sigma_v() == pytest.approx(1e-3, rel=1e-6)

    def test_empty_input_raises(self):
        det = EnvelopeDetector()
        with pytest.raises(HardwareError):
            det.detect(Signal(np.array([], dtype=complex), 1e9))

    def test_adc_read_is_one_value_per_adc_instant(self):
        det = EnvelopeDetector()
        adc = Adc(NODE_ADC_RATE_HZ)
        rf = Signal(np.full(27_000, 0.05), 200e6)
        video = det.detect(rf, rng=0, adc=adc)
        assert video.sample_rate_hz == NODE_ADC_RATE_HZ
        assert video.samples.dtype == np.float64
        assert len(video) == len(adc.sample_instants(rf)) == 135
        # At its own rate the ADC reads each value once, as it is.
        assert np.array_equal(adc.sample_instants(video), np.arange(135))

    def test_adc_read_keeps_the_input_checks(self):
        det = EnvelopeDetector()
        adc = Adc(NODE_ADC_RATE_HZ)
        with pytest.raises(HardwareError, match="empty"):
            det.detect(Signal(np.array([]), 200e6), adc=adc)
        with pytest.raises(HardwareError, match="more coarsely than the ADC rate"):
            det.detect(Signal(np.ones(100), 500e3), adc=adc)

    def test_invalid_params_rejected(self):
        with pytest.raises(HardwareError):
            EnvelopeDetector(responsivity_v_per_sqrt_w=-1.0)
        with pytest.raises(HardwareError):
            EnvelopeDetector(video_bandwidth_hz=0.0)


class TestAmplifier:
    def test_gain_applied(self):
        amp = Amplifier(gain_db=20.0)
        sig = Signal(np.ones(1000, dtype=complex), 1e9)
        out = amp.amplify(sig, rng=0)
        assert out.mean_power_w() == pytest.approx(100.0, rel=0.01)

    def test_noise_figure_adds_noise(self):
        quiet = Amplifier(gain_db=0.0, noise_figure_db=0.0)
        noisy = Amplifier(gain_db=0.0, noise_figure_db=10.0)
        sig = Signal(np.zeros(100_000, dtype=complex), 1e9)
        assert noisy.amplify(sig, rng=1).mean_power_w() > quiet.amplify(
            sig, rng=1
        ).mean_power_w()

    def test_compression_limits_output(self):
        amp = Amplifier(gain_db=30.0, output_p1db_dbm=10.0)
        strong = Signal(np.full(100, 1.0, dtype=complex), 1e9)  # 30 dBm in
        out = amp.amplify(strong, rng=0)
        # Output must saturate near P1dB+1 (11 dBm ~ 12.6 mW) instead of 60 dBm.
        assert out.peak_power_w() < 0.02

    def test_negative_nf_rejected(self):
        with pytest.raises(HardwareError):
            Amplifier(gain_db=10.0, noise_figure_db=-1.0)

    def test_defaults(self):
        assert default_pa().gain_db == 15.0
        assert default_lna().noise_figure_db == pytest.approx(3.3)


class TestAdc:
    def test_quantization_step(self):
        adc = Adc(1e6, n_bits=10, full_scale_v=1.024)
        assert adc.lsb_v == pytest.approx(1e-3)

    def test_decimation(self):
        adc = Adc(1e6)
        analog = Signal(np.linspace(0, 1, 1000).astype(complex), 10e6)
        digital = adc.sample(analog)
        assert digital.sample_rate_hz == 1e6
        assert len(digital) == 100

    def test_clipping(self):
        adc = Adc(1e6, full_scale_v=1.0)
        analog = Signal(np.full(100, 5.0, dtype=complex), 10e6)
        digital = adc.sample(analog)
        assert digital.samples.real.max() <= 1.0

    def test_negative_clipped_to_zero(self):
        adc = Adc(1e6, full_scale_v=1.0)
        analog = Signal(np.full(100, -1.0, dtype=complex), 10e6)
        assert np.allclose(adc.sample(analog).samples.real, 0.0)

    def test_undersampled_analog_rejected(self):
        adc = Adc(1e6)
        with pytest.raises(HardwareError):
            adc.sample(Signal(np.ones(10, dtype=complex), 1e5))

    def test_invalid_bits_rejected(self):
        with pytest.raises(HardwareError):
            Adc(1e6, n_bits=0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_sample_returns_float64(self, dtype):
        adc = Adc(1e6)
        analog = Signal(np.linspace(0, 1, 1000).astype(dtype), 10e6)
        digital = adc.sample(analog)
        assert digital.samples.dtype == np.float64
        assert np.allclose(digital.samples, np.linspace(0, 1, 1000)[::10], atol=adc.lsb_v)


class TestMcu:
    def test_default_adc_rate_matches_paper(self):
        assert Microcontroller().adc.sample_rate_hz == NODE_ADC_RATE_HZ

    def test_gpio_rate_enforced(self):
        mcu = Microcontroller(max_gpio_toggle_rate_hz=50e6)
        with pytest.raises(HardwareError):
            mcu.check_switching_rate(60e6)

    def test_max_uplink_rate_combines_limits(self):
        mcu = Microcontroller(max_gpio_toggle_rate_hz=100e6)
        assert mcu.max_uplink_bit_rate_bps(80e6) == pytest.approx(160e6)
        assert mcu.max_uplink_bit_rate_bps(200e6) == pytest.approx(200e6)


class TestMixer:
    def test_conversion_loss_applied(self):
        mixer = RfMixer(conversion_loss_db=6.0)
        sig = tone(28.2e9, 1e-6, 1e9, center_frequency_hz=28e9)
        out = mixer.downconvert_with_tone(sig, 28.2e9)
        assert out.mean_power_w() == pytest.approx(10 ** (-0.6), rel=0.01)

    def test_negative_loss_rejected(self):
        with pytest.raises(HardwareError):
            RfMixer(conversion_loss_db=-1.0)


class TestWaveformGenerator:
    def test_narrow_sweep_single_segment(self):
        gen = WaveformGenerator()
        config = SawtoothChirp(27e9, 28.5e9, 10e-6)
        assert len(gen.sawtooth_segments(config)) == 1

    def test_wide_sweep_patched_into_two(self):
        gen = WaveformGenerator()
        segments = gen.sawtooth_segments(SawtoothChirp())
        assert len(segments) == 2
        # Patched segments share the overall slope.
        for seg in segments:
            assert seg.config.slope_hz_per_s == pytest.approx(
                SawtoothChirp().slope_hz_per_s
            )

    def test_patched_sweep_length(self):
        gen = WaveformGenerator()
        full = gen.patched_sweep(SawtoothChirp())
        assert full.duration_s == pytest.approx(18e-6, rel=1e-3)

    def test_two_tone_span_enforced(self):
        gen = WaveformGenerator()
        with pytest.raises(ConfigurationError):
            gen.two_tone_query(26.5e9, 29.5e9, 1e-6)

    def test_two_tone_query_power(self):
        gen = WaveformGenerator()
        sig = gen.two_tone_query(27.9e9, 28.1e9, 1e-6)
        assert sig.mean_power_w() == pytest.approx(2.0, rel=0.05)
