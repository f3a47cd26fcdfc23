"""Array AoA (Bartlett/MUSIC) tests (repro.ap.music)."""

import numpy as np
import pytest

from repro.ap.music import ArrayAoaEstimator
from repro.channel.scene import Scene2D
from repro.constants import SPEED_OF_LIGHT
from repro.errors import LocalizationError
from repro.sim.engine import MilBackSimulator


def make_estimator(n=8):
    lam = SPEED_OF_LIGHT / 28e9
    return ArrayAoaEstimator(n, lam / 2, 28e9)


class TestSteeringVector:
    def test_boresight_is_ones(self):
        a = make_estimator().steering_vector(0.0)
        assert np.allclose(a, 1.0)

    def test_unit_magnitude(self):
        a = make_estimator().steering_vector(23.0)
        assert np.allclose(np.abs(a), 1.0)

    def test_progressive_phase(self):
        est = make_estimator()
        a = est.steering_vector(30.0)
        steps = np.angle(a[1:] * np.conj(a[:-1]))
        # sin(30 deg) = 0.5 at half-wavelength spacing -> pi/2 per element.
        assert np.allclose(steps, np.pi / 2, atol=1e-9)


class TestValidation:
    def test_single_antenna_rejected(self):
        lam = SPEED_OF_LIGHT / 28e9
        with pytest.raises(LocalizationError):
            ArrayAoaEstimator(1, lam / 2, 28e9)

    def test_wrong_record_count_rejected(self):
        sim = MilBackSimulator(Scene2D.single_node(3.0, orientation_deg=10.0), seed=1)
        burst = sim.beat_burst(n_rx_antennas=4)
        with pytest.raises(LocalizationError):
            make_estimator(8).snapshots(burst, sim.ap.config.beat_sample_rate_hz, 1e6)

    def test_unknown_method_rejected(self):
        sim = MilBackSimulator(Scene2D.single_node(3.0, orientation_deg=10.0), seed=2)
        burst = sim.beat_burst(n_rx_antennas=8)
        fs_hz = sim.ap.config.beat_sample_rate_hz
        with pytest.raises(LocalizationError):
            make_estimator(8).estimate(burst, fs_hz, 1e6, method="esprit")


class TestArrayLocalization:
    @pytest.mark.parametrize("method", ["music", "bartlett"])
    @pytest.mark.parametrize("azimuth", [-18.0, 0.0, 11.0])
    def test_angle_recovered(self, method, azimuth):
        errs = []
        for s in range(4):
            sim = MilBackSimulator(
                Scene2D.single_node(4.0, azimuth_deg=azimuth, orientation_deg=10.0),
                seed=300 + s,
            )
            result = sim.simulate_localization_array(8, method)
            errs.append(abs(result.angle_error_deg))
        assert float(np.mean(errs)) < 2.5

    def test_more_antennas_not_worse(self):
        errs = {}
        for n in (2, 8):
            trial_errors = []
            for s in range(8):
                sim = MilBackSimulator(
                    Scene2D.single_node(4.0, azimuth_deg=9.0, orientation_deg=10.0),
                    seed=400 + s,
                )
                if n == 2:
                    trial_errors.append(abs(sim.simulate_localization().angle_error_deg))
                else:
                    trial_errors.append(
                        abs(sim.simulate_localization_array(n).angle_error_deg)
                    )
            errs[n] = float(np.mean(trial_errors))
        assert errs[8] <= errs[2] + 0.3

    def test_range_estimate_unchanged(self):
        sim = MilBackSimulator(Scene2D.single_node(5.0, orientation_deg=10.0), seed=5)
        result = sim.simulate_localization_array(8)
        assert result.distance_est_m == pytest.approx(5.0, abs=0.15)

    def test_spectrum_shape(self):
        sim = MilBackSimulator(
            Scene2D.single_node(3.0, azimuth_deg=12.0, orientation_deg=10.0), seed=6
        )
        burst = sim.beat_burst(n_rx_antennas=8)
        fs_hz = sim.ap.config.beat_sample_rate_hz
        estimate = sim.ap.fmcw.estimate_range(burst[:, 0], fs_hz)
        est = make_estimator(8).estimate(burst, fs_hz, estimate.beat_frequency_hz)
        assert est.spectrum.size == est.spectrum_angles_deg.size
        peak_angle = est.spectrum_angles_deg[np.argmax(est.spectrum)]
        assert peak_angle == pytest.approx(12.0, abs=2.0)
