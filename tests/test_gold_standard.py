"""Gold-standard cross-validation of the analytic channel synthesis.

The engine never materializes RF-rate waveforms; it synthesizes each
receiver's observable in closed form. These tests check those closed
forms against brute-force time-domain simulation — actually generating
the chirp, actually delaying it, actually mixing — on small cases where
brute force is affordable. Agreement here is what justifies the fast
path everywhere else.
"""

import numpy as np
import pytest

from repro.channel.propagation import propagation_delay_s
from repro.constants import SPEED_OF_LIGHT
from repro.dsp.fftutils import interpolated_peak, windowed_fft
from repro.dsp.mixing import downconvert
from repro.dsp.signal import Signal
from repro.dsp.waveforms import SawtoothChirp, sawtooth_chirp


def brute_force_beat(chirp: SawtoothChirp, distance_m: float, fs_rf: float) -> Signal:
    """Explicit time-domain dechirp: generate, delay, conjugate-mix."""
    tx = sawtooth_chirp(chirp, fs_rf)
    tau = 2.0 * propagation_delay_s(distance_m)
    t = tx.time_axis_s
    # The received signal is the chirp evaluated at t - tau, including the
    # carrier phase rotation exp(-j 2 pi f_c tau) of the complex baseband.
    f_off = chirp.instantaneous_frequency_hz(t - tau) - chirp.center_hz
    dt = 1.0 / fs_rf
    increments = 2.0 * np.pi * f_off * dt
    phase = np.cumsum(increments) - 0.5 * increments
    phase = phase - 2.0 * np.pi * chirp.center_hz * tau
    rx = Signal(np.exp(1j * phase), fs_rf, chirp.center_hz)
    return downconvert(tx, rx)


def analytic_beat(chirp: SawtoothChirp, distance_m: float, fs_bb: float) -> Signal:
    """The engine's closed form: a tone at slope*tau with phase 2*pi*f0*tau."""
    tau = 2.0 * propagation_delay_s(distance_m)
    n = int(round(chirp.duration_s * fs_bb))
    t = np.arange(n) / fs_bb
    beat = chirp.slope_hz_per_s * tau
    phase0 = 2.0 * np.pi * chirp.start_hz * tau
    return Signal(np.exp(1j * (2.0 * np.pi * beat * t + phase0)), fs_bb)


@pytest.mark.parametrize("distance_m", [1.0, 3.7, 8.0])
def test_beat_frequency_matches_brute_force(distance_m):
    chirp = SawtoothChirp()
    fs_rf = 8e9
    brute = brute_force_beat(chirp, distance_m, fs_rf)
    peak = interpolated_peak(windowed_fft(brute), min_hz=1e4)
    expected_beat = chirp.slope_hz_per_s * 2.0 * distance_m / SPEED_OF_LIGHT
    # The wrapped first-tau region biases the brute-force peak by a hair;
    # a tenth of a range bin (5 mm) is the agreement we need.
    assert peak.frequency_hz == pytest.approx(expected_beat, rel=2e-3)


@pytest.mark.parametrize("distance_m", [2.0, 5.0])
def test_beat_phase_matches_brute_force(distance_m):
    """The complex beat value (magnitude AND phase) must agree — AoA
    rides on this phase."""
    chirp = SawtoothChirp()
    fs_rf = 8e9
    fs_bb = 40e6
    brute = brute_force_beat(chirp, distance_m, fs_rf)
    # Decimate brute force onto the engine's baseband grid (the beat is
    # far below the decimated Nyquist; simple subsampling suffices).
    step = int(round(fs_rf / fs_bb))
    brute_bb = Signal(brute.samples[::step].copy(), fs_bb)
    fast = analytic_beat(chirp, distance_m, fs_bb)
    n = min(len(brute_bb), len(fast))
    # Skip the wrapped region (first tau) and compare complex samples.
    skip = int(2e-6 * fs_bb)
    ratio = brute_bb.samples[skip:n] / fast.samples[skip:n]
    # Constant ratio of magnitude ~1: same tone, same phase evolution.
    assert np.abs(np.abs(ratio) - 1.0).max() < 1e-6
    phase_spread = np.angle(ratio * np.conj(ratio.mean()))
    assert np.abs(phase_spread).max() < 0.02


def test_phase_difference_between_two_distances():
    """Range-dependent carrier phase: the quantity AoA exploits across
    antennas. Brute force and closed form must agree on the *relative*
    phase of two nearby reflectors."""
    chirp = SawtoothChirp()
    fs_rf = 8e9
    d1, d2 = 3.0, 3.0 + 0.002  # 2 mm apart
    skip = 200
    brute1 = brute_force_beat(chirp, d1, fs_rf).samples[skip:]
    brute2 = brute_force_beat(chirp, d2, fs_rf).samples[skip:]
    measured = float(np.angle(np.mean(brute2 * np.conj(brute1))))
    # Beat phase for tx*conj(rx) is +2*pi*f(t)*tau averaged over the
    # sweep: the effective reference is f_center + slope*T/2 (the sweep
    # mean adds half the per-chirp beat advance).
    delta_tau = 2.0 * (d2 - d1) / SPEED_OF_LIGHT
    expected = 2.0 * np.pi * delta_tau * (
        chirp.center_hz + chirp.slope_hz_per_s * chirp.duration_s / 2.0
    )
    expected_wrapped = float(np.angle(np.exp(1j * expected)))
    assert measured == pytest.approx(expected_wrapped, abs=0.05)


def test_two_tone_envelope_formula_against_waveform():
    """The elliptic-integral mean envelope must match an actual two-tone
    waveform passed through |.| and a long average."""
    from repro.dsp.envelope import two_tone_mean_envelope
    from repro.dsp.waveforms import two_tone

    a, b = 0.7, 0.3
    wave = two_tone(
        28.0e9,
        28.3e9,
        duration_s=5e-6,
        sample_rate_hz=4e9,
        amplitude_a=a,
        amplitude_b=b,
        center_frequency_hz=28.15e9,
    )
    measured = float(np.mean(np.abs(wave.samples)))
    assert measured == pytest.approx(two_tone_mean_envelope(a, b), rel=1e-3)


# --- the node's detector read at its ADC instants -----------------------------------
#
# A Field-1 capture forms the detector's video only where the MCU's ADC
# reads it (EnvelopeDetector.detect with an ADC). Brute force is the full
# 200 MHz trace that detect forms without one, sampled by Adc.sample. A
# 4,000-sample record read every 40 samples keeps the 2,000 draws per
# path cheap; a 500 kHz video bandwidth makes the noise correlated over a
# gap (c^40 ≈ 0.53) and still settling over the first instants.

FS_HZ = 200e6
N_DRAWS = 2_000


def _instant_setup(noise_v_per_rt_hz=213e-9):
    from repro.hardware.adc import Adc
    from repro.hardware.envelope_detector import EnvelopeDetector

    detector = EnvelopeDetector(
        video_bandwidth_hz=500e3, output_noise_v_per_rt_hz=noise_v_per_rt_hz
    )
    # A fixed envelope: rectified-sine humps for 15 µs, then silence.
    t = np.arange(4_000) / FS_HZ
    amplitude = 0.3 * np.abs(np.sin(2.0 * np.pi * 50e3 * t)) * (t < 15e-6)
    return detector, Adc(sample_rate_hz=5e6), Signal(amplitude, FS_HZ)


def _adc_codes(detector, adc, rf, instant_read, fault_seed):
    from repro import faults

    specs = [faults.FaultSpec("detector_gain_drift", rate=1.0)] if fault_seed else []
    plan = faults.FaultPlan(specs, rng=fault_seed)
    with faults.activate(plan):
        video = detector.detect(rf, rng=np.random.default_rng(3),
                                adc=adc if instant_read else None)
        return adc.sample(video).samples, plan.injections


@pytest.mark.parametrize("fault_seed", [None, 17])
def test_instant_read_without_noise_is_the_sampled_trace(fault_seed):
    """No detector noise: the ADC codes of the instant read equal the full
    trace sampled by Adc.sample, bit for bit, and an armed gain drift
    strikes both paths alike (the hook sees the full-grid envelope)."""
    detector, adc, rf = _instant_setup(noise_v_per_rt_hz=0.0)
    instant, injected = _adc_codes(detector, adc, rf, True, fault_seed)
    brute, brute_injected = _adc_codes(detector, adc, rf, False, fault_seed)
    assert instant.size == adc.sample_instants(rf).size == 100
    assert np.array_equal(instant, brute)
    assert injected == brute_injected
    assert bool(injected) == (fault_seed is not None)


def _instant_law_draws(instant_read):
    """``N_DRAWS`` detector outputs at the ADC instants, one row per draw,
    and the deterministic part (the noiseless output) there."""
    detector, adc, rf = _instant_setup()
    instants = adc.sample_instants(rf)
    rng = np.random.default_rng(2024)
    if instant_read:
        rows = [detector.detect(rf, rng=rng, adc=adc).samples for _ in range(N_DRAWS)]
    else:
        rows = [detector.detect(rf, rng=rng).samples[instants] for _ in range(N_DRAWS)]
    quiet, _, _ = _instant_setup(noise_v_per_rt_hz=0.0)
    deterministic = quiet.detect(rf, rng=0).samples[instants]
    return detector, instants, np.array(rows), deterministic


@pytest.mark.parametrize("instant_read", [True, False], ids=["instant-read", "full-trace"])
def test_detector_noise_at_the_instants_has_the_closed_form_law(instant_read):
    """Mean, variance and lag-one correlation at the ADC instants against
    the AR(1) closed form, for the instant read and for the full trace
    sampled at the same instants. Each check allows five standard errors
    of its estimate."""
    from repro.dsp.filters import single_pole_alpha

    detector, instants, draws, deterministic = _instant_law_draws(instant_read)
    alpha = single_pole_alpha(detector.video_bandwidth_hz, FS_HZ)
    c = 1.0 - alpha
    sigma = detector.output_noise_v_per_rt_hz * np.sqrt(FS_HZ / 2.0)
    variance = alpha**2 * sigma**2 * (1.0 - c ** (2 * (instants + 1))) / (1.0 - c**2)
    assert variance[0] == pytest.approx(alpha**2 * sigma**2)
    noise = draws - deterministic
    n = draws.shape[0]

    mean_z = noise.mean(axis=0) / np.sqrt(variance / n)
    assert np.abs(mean_z).max() < 5.0
    ratio = noise.var(axis=0, ddof=1) / variance
    assert np.abs(ratio - 1.0).max() < 5.0 * np.sqrt(2.0 / (n - 1))
    # Lag-one correlation: c^Δ times the settling ratio of the two variances.
    gaps = np.diff(instants)
    expected = c**gaps * np.sqrt(variance[:-1] / variance[1:])
    measured = np.array([np.corrcoef(noise[:, k], noise[:, k + 1])[0, 1]
                         for k in range(instants.size - 1)])
    assert np.abs(measured - expected).max() < 5.0 * ((1.0 - expected**2) / np.sqrt(n)).max()
    assert expected[-1] == pytest.approx(c**40)
