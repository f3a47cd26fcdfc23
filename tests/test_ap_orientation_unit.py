"""Unit-level tests of the AP orientation estimator on synthetic records.

The end-to-end path is covered by the engine tests; these isolate the
estimator itself: known beam-shaped beat records in, exact orientation
out, plus the failure modes.
"""

import numpy as np
import pytest

from repro.antennas.fsa import FrequencyScanningAntenna, FsaDesign
from repro.ap.fmcw import FmcwProcessor
from repro.ap.orientation import ApOrientationEstimator
from repro.dsp.waveforms import SawtoothChirp
from repro.errors import LocalizationError


FS = 40e6


def synthetic_records(
    orientation_deg: float,
    distance_m: float = 2.0,
    n_chirps: int = 5,
    noise: float = 1e-9,
    seed: int = 0,
):
    """A ``(n_chirps, n)`` beat chain at ``FS`` whose node amplitude
    follows the FSA's two-way gain at the chirp's instantaneous
    frequency — the estimator's input contract, with no engine in the
    loop."""
    chirp = SawtoothChirp()
    fsa = FrequencyScanningAntenna(FsaDesign())
    proc = FmcwProcessor(chirp)
    n = int(round(chirp.duration_s * FS))
    t = np.arange(n) / FS
    f_inst = chirp.instantaneous_frequency_hz(t)
    gain_db = np.asarray(fsa.gain_dbi(orientation_deg, f_inst), dtype=float)
    amplitude = 10.0 ** (gain_db / 10.0)  # two-way: gain twice in dB = x2 in log
    amplitude = amplitude / amplitude.max() * 1e-4
    beat = proc.distance_to_beat_hz(distance_m)
    tone = np.exp(2j * np.pi * beat * t)
    rng = np.random.default_rng(seed)
    records = np.empty((n_chirps, n), dtype=complex)
    for k in range(n_chirps):
        factor = 1.0 if k % 2 == 0 else 0.0
        records[k] = factor * amplitude * tone + noise * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
    return records, beat, fsa


class TestApOrientationEstimator:
    @pytest.mark.parametrize("orientation", [-22.0, -8.0, 3.0, 17.0, 25.0])
    def test_exact_recovery_on_clean_records(self, orientation):
        records, beat, fsa = synthetic_records(orientation)
        estimator = ApOrientationEstimator(fsa)
        result = estimator.estimate(records, FS, beat)
        assert result.orientation_deg == pytest.approx(orientation, abs=0.5)

    def test_peak_frequency_matches_alignment(self):
        records, beat, fsa = synthetic_records(12.0)
        estimator = ApOrientationEstimator(fsa)
        result = estimator.estimate(records, FS, beat)
        expected = float(fsa.alignment_frequency_hz(12.0))
        assert result.peak_frequency_hz == pytest.approx(expected, rel=2e-3)

    def test_profile_has_single_dominant_lobe(self):
        records, beat, fsa = synthetic_records(10.0)
        result = ApOrientationEstimator(fsa).estimate(records, FS, beat)
        profile = result.profile_magnitude
        peak = profile.max()
        # Away from the beam the profile must fall well below the peak.
        outer = np.concatenate([profile[: profile.size // 8], profile[-profile.size // 8 :]])
        assert outer.max() < 0.5 * peak

    def test_single_chirp_rejected(self):
        records, beat, fsa = synthetic_records(5.0, n_chirps=1)
        with pytest.raises(LocalizationError):
            ApOrientationEstimator(fsa).estimate(records, FS, beat)

    def test_mask_must_cover_bins(self):
        records, beat, fsa = synthetic_records(5.0)
        estimator = ApOrientationEstimator(fsa)
        # A beat far outside the capture band selects no bins.
        with pytest.raises(LocalizationError):
            estimator.estimate(records, FS, 1e12)
