"""AP-side tests: config, FMCW processor, AoA, uplink RX, downlink TX."""

import math

import numpy as np
import pytest

from repro.antennas.array import aoa_phase_rad
from repro.antennas.dual_port_fsa import TonePair
from repro.ap.access_point import AccessPoint
from repro.ap.aoa import AoaEstimator
from repro.ap.config import ApConfig
from repro.ap.doppler import DopplerEstimator
from repro.ap.downlink_tx import DownlinkTransmitter
from repro.ap.fmcw import FmcwProcessor, _mean_pair_spectrum
from repro.ap.music import ArrayAoaEstimator
from repro.ap.orientation import ApOrientationEstimator
from repro.ap.uplink_rx import PILOT_SYMBOLS, UplinkReceiver, pilot_bits
from repro.constants import SPEED_OF_LIGHT
from repro.dsp.fftutils import Spectrum, interpolated_peak, windowed_fft
from repro.dsp.signal import Signal
from repro.dsp.waveforms import SawtoothChirp
from repro.errors import ConfigurationError, DecodingError, LocalizationError


FS = 40e6


def synth_chain(
    distances_amps,
    n_chirps=5,
    chirp=None,
    modulated_flags=None,
    noise=1e-9,
    rx_phase=0.0,
    seed=0,
):
    """Synthetic ``(n_chirps, n)`` dechirped chain at ``FS``: tones at
    beat(d) with given amplitudes.

    ``modulated_flags[i]`` makes path i toggle per chirp (node-like).
    """
    chirp = chirp or SawtoothChirp()
    proc = FmcwProcessor(chirp)
    n = int(round(chirp.duration_s * FS))
    t = np.arange(n) / FS
    rng = np.random.default_rng(seed)
    modulated_flags = modulated_flags or [False] * len(distances_amps)
    chain = np.zeros((n_chirps, n), dtype=complex)
    for k in range(n_chirps):
        for (d, amp), modulated in zip(distances_amps, modulated_flags):
            beat = proc.distance_to_beat_hz(d)
            factor = 1.0 if (not modulated or k % 2 == 0) else 0.03
            chain[k] += factor * amp * np.exp(1j * (2 * np.pi * beat * t + rx_phase))
        chain[k] += noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return chain


class TestApConfig:
    def test_defaults_valid(self):
        cfg = ApConfig()
        assert cfg.n_ranging_chirps == 5

    def test_rx_baseline_is_half_wavelength(self):
        cfg = ApConfig()
        lam = SPEED_OF_LIGHT / 28e9
        assert cfg.rx_baseline_m == pytest.approx(lam / 2, rel=0.01)

    def test_repetition_interval_validated(self):
        with pytest.raises(ConfigurationError):
            ApConfig(chirp_repetition_interval_s=1e-6)

    def test_too_few_chirps_rejected(self):
        with pytest.raises(ConfigurationError):
            ApConfig(n_ranging_chirps=2)

    def test_max_unambiguous_range(self):
        cfg = ApConfig()
        # 20 MHz Nyquist beat at slope 3 GHz/18 us -> 18 m.
        assert cfg.max_unambiguous_range_m() == pytest.approx(18.0, rel=0.01)


class TestFmcwProcessor:
    def test_beat_distance_roundtrip(self):
        proc = FmcwProcessor()
        assert proc.beat_to_distance_m(proc.distance_to_beat_hz(6.5)) == pytest.approx(6.5)

    def test_background_subtraction_removes_static(self):
        chain = synth_chain([(3.0, 1e-4), (9.0, 1e-2)], modulated_flags=[True, False])
        proc = FmcwProcessor()
        est = proc.estimate_range(chain, FS)
        # The static 9 m path is 40 dB stronger but cancels; the weak
        # modulated 3 m path wins.
        assert est.distance_m == pytest.approx(3.0, abs=0.05)

    def test_without_subtraction_static_dominates(self):
        chain = synth_chain([(3.0, 1e-4), (9.0, 1e-2)], modulated_flags=[True, False])
        proc = FmcwProcessor()
        freqs, spectra = proc.chirp_spectra(chain, FS)
        peak = interpolated_peak(
            Spectrum(freqs, spectra[0]), min_hz=proc.distance_to_beat_hz(0.5)
        )
        assert proc.beat_to_distance_m(peak.frequency_hz) == pytest.approx(9.0, abs=0.1)

    def test_estimate_carries_the_chain_spectra(self):
        chain = synth_chain([(3.0, 1e-4), (9.0, 1e-2)], modulated_flags=[True, False])
        proc = FmcwProcessor()
        est = proc.estimate_range(chain, FS)
        freqs, spectra = proc.chirp_spectra(chain, FS)
        assert np.array_equal(est.chirp_spectra, spectra)
        assert np.array_equal(est.spectrum.frequencies_hz, freqs)
        subtracted = _mean_pair_spectrum(*proc.chirp_spectra(chain, FS))
        assert np.array_equal(est.spectrum.values, subtracted.values)

    def test_chirp_spectra_rows_are_windowed_ffts(self):
        chain = synth_chain([(3.0, 1.0)], n_chirps=3)
        freqs, spectra = FmcwProcessor().chirp_spectra(chain, FS)
        assert spectra.shape == chain.shape
        for row, samples in zip(spectra, chain):
            expected = windowed_fft(Signal(samples, FS))
            assert np.array_equal(freqs, expected.frequencies_hz)
            assert np.array_equal(row, expected.values)

    def test_single_chirp_rejected(self):
        chain = synth_chain([(3.0, 1.0)], n_chirps=1)
        with pytest.raises(LocalizationError):
            FmcwProcessor().estimate_range(chain, FS)

    def test_range_search_window(self):
        chain = synth_chain([(2.0, 1.0)], modulated_flags=[True])
        est = FmcwProcessor().estimate_range(
            chain, FS, min_distance_m=0.5, max_distance_m=5.0
        )
        assert est.distance_m == pytest.approx(2.0, abs=0.05)


class TestAoa:
    @staticmethod
    def _fix(angle_true):
        chirp = SawtoothChirp()
        baseline = 0.5 * SPEED_OF_LIGHT / chirp.center_hz
        phase = aoa_phase_rad(angle_true, baseline, chirp.center_hz)
        rx1 = synth_chain([(3.0, 1.0)], modulated_flags=[True], seed=1)
        rx2 = synth_chain([(3.0, 1.0)], modulated_flags=[True], rx_phase=phase, seed=2)
        proc = FmcwProcessor(chirp)
        estimator = AoaEstimator(baseline, chirp.center_hz, proc)
        return estimator, np.stack([rx1, rx2], axis=1), proc.estimate_range(rx1, FS)

    def test_phase_recovers_angle(self):
        estimator, burst, ranging = self._fix(11.0)
        est = estimator.estimate(burst, FS, ranging)
        assert est.angle_deg == pytest.approx(11.0, abs=0.3)

    def test_phase_is_that_of_each_chains_own_first_pair(self):
        """The first chain's pair comes from ranging's rows; the phase is
        bit for bit that of transforming each chain's first pair."""
        estimator, burst, ranging = self._fix(-7.0)
        freqs, rx1 = estimator.processor.chirp_spectra(burst[:2, 0], FS)
        _, rx2 = estimator.processor.chirp_spectra(burst[:2, 1], FS)
        k = int(np.argmin(np.abs(freqs - ranging.beat_frequency_hz)))
        v1, v2 = complex(rx1[0, k] - rx1[1, k]), complex(rx2[0, k] - rx2[1, k])
        est = estimator.estimate(burst, FS, ranging)
        assert est.phase_rad == float(np.angle(v2 * np.conj(v1)))

    def test_estimate_of_other_records_rejected(self):
        estimator, burst, ranging = self._fix(3.0)
        with pytest.raises(LocalizationError):
            estimator.estimate(burst[..., :-1], FS, ranging)

    def test_zero_baseline_rejected(self):
        with pytest.raises(LocalizationError):
            AoaEstimator(0.0, 28e9)


def _burst_contract():
    """Estimator -> (call on a burst, rank, fewest chirps, RX chains)."""
    proc = FmcwProcessor()
    baseline = 0.5 * SPEED_OF_LIGHT / 28e9
    beat = proc.distance_to_beat_hz(3.0)
    ranging = proc.estimate_range(synth_chain([(3.0, 1e-4)], modulated_flags=[True]), FS)
    orientation = ApOrientationEstimator(AccessPoint().node_fsa.port_a, proc)
    aoa = AoaEstimator(baseline, 28e9, proc)
    array = ArrayAoaEstimator(4, baseline, 28e9)
    return {
        "chirp_spectra": (lambda b: proc.chirp_spectra(b, FS), 2, 2, None),
        "estimate_range": (lambda b: proc.estimate_range(b, FS), 2, 2, None),
        "ap_orientation": (lambda b: orientation.estimate(b, FS, beat), 2, 2, None),
        "doppler": (lambda b: DopplerEstimator(50e-6, 28e9).estimate(b, FS, beat), 2, 3, None),
        "aoa": (lambda b: aoa.estimate(b, FS, ranging), 3, 2, 2),
        "array_snapshots": (lambda b: array.snapshots(b, FS, beat), 3, 2, 4),
        "array_estimate": (lambda b: array.estimate(b, FS, beat), 3, 2, 4),
    }


def _malformed_bursts(ndim, min_chirps, n_rx):
    """Each way a burst can be wrong for an estimator, by name."""
    n = 720
    inner = (n_rx, n) if ndim == 3 else (n,)
    cases = {
        "wrong-rank": np.zeros((5, n) if ndim == 3 else (5, 2, n), complex),
        "too-few-chirps": np.zeros((min_chirps - 1, *inner), complex),
        "empty-records": np.zeros((5, *inner[:-1], 0), complex),
    }
    if n_rx is not None:
        cases["wrong-rx-count"] = np.zeros((5, n_rx + 1, n), complex)
    return cases


class TestBurstContract:
    """Every AP estimator reads the engine's beat-burst array and rejects
    a malformed one with LocalizationError, never a bare SignalError."""

    CASES = [
        (name, case)
        for name, (_, *shape) in _burst_contract().items()
        for case in _malformed_bursts(*shape)
    ]

    @pytest.mark.parametrize("name,case", CASES, ids=[f"{n}-{c}" for n, c in CASES])
    def test_malformed_burst_rejected(self, name, case):
        call, *shape = _burst_contract()[name]
        with pytest.raises(LocalizationError):
            call(_malformed_bursts(*shape)[case])

    def test_well_formed_bursts_accepted(self):
        chain = synth_chain([(3.0, 1e-4)], modulated_flags=[True])
        for name, (call, ndim, _, n_rx) in _burst_contract().items():
            burst = chain if ndim == 2 else np.stack([chain] * n_rx, axis=1)
            assert call(burst) is not None, name


class TestUplinkReceiver:
    def make_branch(self, gates, samples_per_symbol=64, amp=1.0, phase=0.7, dc=5.0, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        gate = np.repeat(np.asarray(gates, dtype=float), samples_per_symbol)
        samples = amp * gate * np.exp(1j * phase) + dc
        samples = samples + noise * (
            rng.standard_normal(gate.size) + 1j * rng.standard_normal(gate.size)
        )
        return Signal(samples, 64e6)

    def test_decodes_with_pilots(self):
        data_a = [1, 0, 1, 1]
        data_b = [0, 1, 1, 0]
        gates_a = list(PILOT_SYMBOLS) + data_a
        gates_b = list(PILOT_SYMBOLS) + data_b
        rx = UplinkReceiver()
        result = rx.decode(
            self.make_branch(gates_a),
            self.make_branch(gates_b, phase=-1.1),
            1e6,
            len(gates_a),
            n_pilot_symbols=len(PILOT_SYMBOLS),
        )
        expected = []
        for a, b in zip(data_a, data_b):
            expected += [a, b]
        assert list(result.bits) == expected

    def test_polarity_resolved_for_biased_payload(self):
        # Payload with 75% ones: naive polarity heuristics invert this.
        data = [1, 1, 1, 0, 1, 1, 1, 1]
        gates = list(PILOT_SYMBOLS) + data
        rx = UplinkReceiver()
        result = rx.decode(
            self.make_branch(gates),
            self.make_branch(gates),
            1e6,
            len(gates),
            n_pilot_symbols=len(PILOT_SYMBOLS),
        )
        assert list(result.bits[0::2]) == data

    def test_pilot_count_validated(self):
        rx = UplinkReceiver()
        branch = self.make_branch(list(PILOT_SYMBOLS))
        with pytest.raises(DecodingError):
            rx.decode(branch, branch, 1e6, 4, n_pilot_symbols=10)

    def test_pilot_bits_helper(self):
        assert list(pilot_bits()) == [1, 1, 0, 0, 1, 1, 0, 0]

    def test_zero_symbols_rejected(self):
        rx = UplinkReceiver()
        branch = self.make_branch([1])
        with pytest.raises(DecodingError):
            rx.decode(branch, branch, 1e6, 0)


class TestDownlinkTransmitter:
    def test_oaqfm_burst(self):
        tx = DownlinkTransmitter(tx_power_w=0.5, sample_rate_hz=8e9)
        burst = tx.build_burst([1, 0, 1, 1], TonePair(28.4e9, 27.6e9), 2e6)
        assert not burst.used_ook_fallback
        assert burst.n_symbols == 2
        assert burst.symbol_rate_hz == pytest.approx(1e6)

    def test_ook_fallback_on_degenerate_pair(self):
        tx = DownlinkTransmitter(tx_power_w=0.5, sample_rate_hz=8e9)
        burst = tx.build_burst([1, 0, 1], TonePair(28e9, 28e9), 1e6)
        assert burst.used_ook_fallback
        assert burst.n_symbols == 3

    def test_total_power_preserved(self):
        tx = DownlinkTransmitter(tx_power_w=0.5, sample_rate_hz=8e9)
        burst = tx.build_burst([1, 1, 1, 1], TonePair(28.4e9, 27.6e9), 2e6)
        assert burst.waveform.mean_power_w() == pytest.approx(0.5, rel=0.05)

    def test_invalid_power_rejected(self):
        with pytest.raises(ConfigurationError):
            DownlinkTransmitter(tx_power_w=0.0)


class TestAccessPoint:
    def test_tone_pair_selection(self):
        ap = AccessPoint()
        pair = ap.tone_pair_for_orientation(10.0)
        assert pair.freq_a_hz != pair.freq_b_hz

    def test_orientation_inverse(self):
        ap = AccessPoint()
        pair = ap.tone_pair_for_orientation(14.0)
        assert ap.orientation_from_peak_frequency(pair.freq_a_hz) == pytest.approx(
            14.0, abs=1e-6
        )
