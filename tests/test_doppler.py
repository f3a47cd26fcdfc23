"""Doppler / radial-velocity estimation tests (repro.ap.doppler)."""

import numpy as np
import pytest

from repro.ap.doppler import DopplerEstimator
from repro.channel.scene import Scene2D
from repro.errors import LocalizationError
from repro.sim.engine import MilBackSimulator


class TestDopplerEstimator:
    def test_unambiguous_velocity(self):
        est = DopplerEstimator(50e-6, 28e9)
        # lambda/(8*T_rep) = 10.7 mm / 400 us ~ 26.8 m/s.
        assert est.max_unambiguous_velocity_mps() == pytest.approx(26.8, abs=0.3)

    def test_invalid_interval_rejected(self):
        with pytest.raises(LocalizationError):
            DopplerEstimator(0.0, 28e9)

    def test_too_few_chirps_rejected(self):
        est = DopplerEstimator(50e-6, 28e9)
        with pytest.raises(LocalizationError):
            est.estimate(np.zeros((2, 720), complex), 40e6, 1e6)


class TestEngineVelocity:
    @pytest.mark.parametrize("velocity", [-3.0, -0.5, 0.7, 5.0])
    def test_velocity_recovered(self, velocity):
        sim = MilBackSimulator(Scene2D.single_node(3.0, orientation_deg=10.0), seed=5)
        _, estimate = sim.simulate_velocity(velocity)
        assert estimate.velocity_mps == pytest.approx(velocity, abs=0.3)

    def test_static_node_near_zero(self):
        sim = MilBackSimulator(Scene2D.single_node(3.0, orientation_deg=10.0), seed=6)
        _, estimate = sim.simulate_velocity(0.0)
        assert abs(estimate.velocity_mps) < 0.3

    def test_range_unaffected_by_motion(self):
        sim = MilBackSimulator(Scene2D.single_node(4.0, orientation_deg=10.0), seed=7)
        range_est, _ = sim.simulate_velocity(2.0)
        assert range_est.distance_m == pytest.approx(4.0, abs=0.1)

    def test_sign_convention_receding_positive(self):
        sim = MilBackSimulator(Scene2D.single_node(3.0, orientation_deg=10.0), seed=8)
        _, receding = sim.simulate_velocity(2.0)
        sim = MilBackSimulator(Scene2D.single_node(3.0, orientation_deg=10.0), seed=8)
        _, approaching = sim.simulate_velocity(-2.0)
        assert receding.velocity_mps > 0 > approaching.velocity_mps

    def test_more_chirps_tighter_estimate(self):
        errors = {}
        for n_chirps in (5, 21):
            errs = []
            for s in range(5):
                sim = MilBackSimulator(
                    Scene2D.single_node(5.0, orientation_deg=10.0), seed=100 + s
                )
                _, est = sim.simulate_velocity(1.0, n_chirps=n_chirps)
                errs.append(abs(est.velocity_mps - 1.0))
            errors[n_chirps] = float(np.mean(errs))
        assert errors[21] <= errors[5] + 0.05
