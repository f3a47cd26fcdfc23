"""Tests for repro.kernels.aoa: steering cache + batched spectrum contract.

The AoA family is the one kernel family that is *not* bitwise equal to
its loop-form oracle (``tests/kernel_reference.py``) — BLAS reorders
the grid-scan reductions — so these tests pin the documented contract
instead (see ``docs/PERFORMANCE.md``): steering phasors bitwise shared,
spectra within a small ulp bound, the MUSIC clamp saturating
identically, and the spectrum peak plus the refined ``estimate()``
angle exactly equal between the kernels and the oracle.
"""

import numpy as np
import pytest

from repro import obs
from repro.ap.music import ArrayAoaEstimator
from repro.channel.scene import Scene2D
from repro.constants import SPEED_OF_LIGHT
from repro.kernels import aoa
from repro.sim.engine import MilBackSimulator
from tests.kernel_reference import both_modes, reference_kernels

WAVELENGTH_M = SPEED_OF_LIGHT / 28e9
BASELINE_M = WAVELENGTH_M / 2

#: Maximum ulp distance tolerated between batched and reference values
#: at well-conditioned spectrum elements (the Bartlett peak, MUSIC away
#: from its peaks). Measured worst case is ~6 ulp; 16 leaves headroom
#: without hiding a real regression.
MAX_SPECTRUM_ULP = 16

#: Constant in the conditioning-normalized absolute bound that covers
#: *every* element, cancellation zones included:
#: ``|batched - reference| <= K * eps * (no-cancellation magnitude)``
#: where the magnitude is ``n * lambda_max / n**2`` for the Bartlett
#: quadratic form and ``n**2`` for the MUSIC denominator. Measured
#: worst case across 120 covariances is K ~ 1.9.
ERROR_BOUND_K = 8

EPS = float(np.finfo(float).eps)


@pytest.fixture(autouse=True)
def _clean_slate():
    """Empty steering memo, fresh obs window."""
    aoa.clear_steering_cache()
    obs.reset()
    yield
    aoa.clear_steering_cache()
    obs.reset()


def ulp_distance(a, b):
    """Element-wise distance in units in the last place."""
    scale = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) / scale


def grid(n_grid):
    return np.linspace(-60.0, 60.0, n_grid)


def source_covariance(n_antennas, angle_deg=11.0, n_snapshots=16, seed=0):
    """Spatial covariance of one on-array source plus receiver noise."""
    rng = np.random.default_rng(seed)
    a = aoa.steering_vector(angle_deg, n_antennas, BASELINE_M, WAVELENGTH_M)
    signal = rng.normal(size=(n_snapshots, 1)) + 1j * rng.normal(size=(n_snapshots, 1))
    noise = 0.05 * (
        rng.normal(size=(n_snapshots, n_antennas))
        + 1j * rng.normal(size=(n_snapshots, n_antennas))
    )
    snapshots = signal * a[None, :] + noise
    return snapshots.T @ snapshots.conj() / n_snapshots


def singular_covariance(n_antennas, angle_deg):
    """All-identical snapshots: an exactly rank-1 covariance."""
    a = aoa.steering_vector(angle_deg, n_antennas, BASELINE_M, WAVELENGTH_M)
    snapshots = np.tile(a, (8, 1))
    return snapshots.T @ snapshots.conj() / snapshots.shape[0]


# --- steering matrix --------------------------------------------------------------


class TestSteeringMatrix:
    def test_rows_bitwise_match_scalar_path(self):
        g = grid(401)
        matrix = aoa.steering_matrix(g, 4, BASELINE_M, WAVELENGTH_M)
        for i in (0, 17, 200, 400):
            row = aoa.steering_vector(float(g[i]), 4, BASELINE_M, WAVELENGTH_M)
            assert np.array_equal(matrix[i], row)

    def test_mode_independent(self):
        g = grid(301)

        def build():
            aoa.clear_steering_cache()
            return aoa.steering_matrix(g, 8, BASELINE_M, WAVELENGTH_M)

        results = both_modes(build)
        assert np.array_equal(results["batched"], results["reference"])

    def test_result_is_read_only(self):
        matrix = aoa.steering_matrix(grid(101), 2, BASELINE_M, WAVELENGTH_M)
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_memoized_per_value_key(self):
        g = grid(101)
        first = aoa.steering_matrix(g, 4, BASELINE_M, WAVELENGTH_M)
        # A value-identical copy of the grid must hit the same entry.
        second = aoa.steering_matrix(g.copy(), 4, BASELINE_M, WAVELENGTH_M)
        assert second is first
        assert obs.counter("cache.hits", cache="aoa_steering").value == 1
        assert obs.counter("cache.misses", cache="aoa_steering").value == 1

    def test_distinct_geometry_misses(self):
        g = grid(101)
        a = aoa.steering_matrix(g, 4, BASELINE_M, WAVELENGTH_M)
        b = aoa.steering_matrix(g, 8, BASELINE_M, WAVELENGTH_M)
        assert a is not b
        assert obs.counter("cache.misses", cache="aoa_steering").value == 2

    def test_clear_cache_forces_rebuild(self):
        g = grid(101)
        first = aoa.steering_matrix(g, 2, BASELINE_M, WAVELENGTH_M)
        aoa.clear_steering_cache()
        second = aoa.steering_matrix(g, 2, BASELINE_M, WAVELENGTH_M)
        assert second is not first
        assert np.array_equal(first, second)

    def test_estimator_reuses_one_matrix_across_estimates(self):
        estimator = ArrayAoaEstimator(4, BASELINE_M, 28e9)
        misses = obs.counter("cache.misses", cache="aoa_steering").value
        # A second estimator with identical geometry shares the entry.
        other = ArrayAoaEstimator(4, BASELINE_M, 28e9)
        assert other._steering is estimator._steering
        assert obs.counter("cache.misses", cache="aoa_steering").value == misses


# --- spectrum equality ------------------------------------------------------------


class TestSpectrumEquality:
    @pytest.mark.parametrize("n_antennas", [2, 4, 8])
    @pytest.mark.parametrize("n_grid", [2400, 2401])
    def test_bartlett_within_tolerance_contract(self, n_antennas, n_grid):
        covariance = source_covariance(n_antennas, seed=n_antennas)
        steering = aoa.steering_matrix(grid(n_grid), n_antennas, BASELINE_M, WAVELENGTH_M)
        results = both_modes(lambda: aoa.bartlett_spectrum(covariance, steering))
        batched, reference = results["batched"], results["reference"]
        # Every element: absolute error bounded by the quadratic form's
        # no-cancellation magnitude (||a||^2 * lambda_max, then the /n^2
        # normalization). Covers the deep cancellation away from the
        # source where a per-element ulp bound would be dishonest.
        lambda_max = float(np.linalg.eigvalsh(covariance)[-1])
        bound = ERROR_BOUND_K * EPS * lambda_max / n_antennas
        assert np.all(np.abs(batched - reference) <= bound)
        # The peak is well-conditioned: tight ulp bound + exact argmax.
        peak = int(np.argmax(reference))
        assert int(np.argmax(batched)) == peak
        assert ulp_distance(batched[peak], reference[peak]) <= MAX_SPECTRUM_ULP

    @pytest.mark.parametrize("n_antennas", [2, 4, 8])
    @pytest.mark.parametrize("n_grid", [2400, 2401])
    def test_music_within_tolerance_contract(self, n_antennas, n_grid):
        covariance = source_covariance(n_antennas, seed=10 + n_antennas)
        noise = aoa.noise_subspace(covariance, n_sources=1)
        steering = aoa.steering_matrix(grid(n_grid), n_antennas, BASELINE_M, WAVELENGTH_M)
        results = both_modes(lambda: aoa.music_spectrum(noise, steering))
        batched, reference = results["batched"], results["reference"]
        # Off-peak elements (projection well away from the noise-null
        # cancellation): tight ulp bound.
        off_peak = reference <= 10.0 * np.median(reference)
        assert np.all(
            ulp_distance(batched[off_peak], reference[off_peak]) <= MAX_SPECTRUM_ULP
        )
        # Every element, peak neighbourhoods included: the reciprocal's
        # denominators agree to the no-cancellation magnitude of the
        # projection power (||a||^2 summed over the noise dims < n^2).
        bound = ERROR_BOUND_K * EPS * n_antennas**2
        assert np.all(np.abs(1.0 / batched - 1.0 / reference) <= bound)
        assert np.argmax(batched) == np.argmax(reference)

    def test_reference_mode_matches_window_functions_bitwise(self):
        # The refinement contract: the window loops over a few rows give
        # bitwise the values the oracle's full-grid scan has at those rows.
        covariance = source_covariance(4, seed=3)
        noise = aoa.noise_subspace(covariance)
        steering = aoa.steering_matrix(grid(501), 4, BASELINE_M, WAVELENGTH_M)
        with reference_kernels():
            bartlett = aoa.bartlett_spectrum(covariance, steering)
            music = aoa.music_spectrum(noise, steering)
        for lo in (0, 249, 498):
            rows = steering[lo : lo + 3]
            assert np.array_equal(
                aoa.bartlett_window_reference(covariance, rows), bartlett[lo : lo + 3]
            )
            assert np.array_equal(
                aoa.music_window_reference(noise, rows), music[lo : lo + 3]
            )

    def test_dispatch_counted_per_mode(self):
        covariance = source_covariance(2, seed=5)
        steering = aoa.steering_matrix(grid(101), 2, BASELINE_M, WAVELENGTH_M)
        both_modes(lambda: aoa.bartlett_spectrum(covariance, steering))
        # The shipping kernel counts its call; the oracle's loop counts none.
        dispatched = {
            key: metric["value"]
            for key, metric in obs.get_registry().snapshot().items()
            if key.startswith("kernels.dispatch.")
        }
        assert dispatched == {
            "kernels.dispatch.batched{kernel=aoa.bartlett_spectrum}": 1
        }


class TestMusicClamp:
    @pytest.mark.parametrize("n_antennas", [4, 8])
    def test_near_singular_covariance_saturates_identically(self, n_antennas):
        """All-identical snapshots: the source direction hits the floor.

        The noise subspace of the rank-1 covariance is orthogonal to the
        source steering vector up to rounding, so the on-grid source
        angle drives the MUSIC denominator far below the 1e-18 floor —
        both modes must saturate at exactly 1/1e-18, at the same angles.
        """
        g = grid(2401)
        source_deg = float(g[1450])  # exactly on-grid
        covariance = singular_covariance(n_antennas, source_deg)
        noise = aoa.noise_subspace(covariance, n_sources=1)
        steering = aoa.steering_matrix(g, n_antennas, BASELINE_M, WAVELENGTH_M)
        results = both_modes(lambda: aoa.music_spectrum(noise, steering))
        saturated = {
            mode: spectrum == 1.0 / aoa.MUSIC_DENOM_FLOOR
            for mode, spectrum in results.items()
        }
        assert saturated["reference"][1450]
        assert np.array_equal(saturated["batched"], saturated["reference"])

    def test_estimate_survives_identical_snapshots(self):
        """The end-to-end path must not divide by zero on degenerate input."""
        estimator = ArrayAoaEstimator(4, BASELINE_M, 28e9, n_grid=241)
        source_deg = float(estimator.grid_deg[160])
        covariance = singular_covariance(4, source_deg)
        noise = aoa.noise_subspace(covariance)

        def run():
            spectrum = aoa.music_spectrum(noise, estimator._steering)
            assert np.all(np.isfinite(spectrum))
            return int(np.argmax(spectrum))

        results = both_modes(run)
        assert results["batched"] == results["reference"] == 160


# --- cross-mode estimate() exactness ----------------------------------------------


class TestEstimateExactness:
    @pytest.mark.parametrize("method", ["music", "bartlett"])
    def test_refined_angle_bitwise_across_modes(self, method):
        sim = MilBackSimulator(
            Scene2D.single_node(3.0, azimuth_deg=12.0, orientation_deg=10.0), seed=6
        )
        records = sim._beat_records(n_rx_antennas=8)
        beat_hz = sim.ap.fmcw.estimate_range(records[0]).beat_frequency_hz
        estimator = ArrayAoaEstimator(8, sim.ap.config.rx_baseline_m, 28e9)

        def run():
            estimate = estimator.estimate(records, beat_hz, method=method)
            return estimate.angle_deg, int(np.argmax(estimate.spectrum))

        results = both_modes(run)
        assert results["batched"][1] == results["reference"][1]
        # Bitwise float equality, not approx: the refinement window is
        # recomputed with reference arithmetic in both modes.
        assert results["batched"][0] == results["reference"][0]

    @pytest.mark.parametrize("method", ["music", "bartlett"])
    def test_engine_array_localization_bitwise_across_modes(self, method):
        def run():
            sim = MilBackSimulator(
                Scene2D.single_node(4.0, azimuth_deg=-9.0, orientation_deg=10.0),
                seed=42,
            )
            return sim.simulate_localization_array(6, method).angle_error_deg

        results = both_modes(run)
        assert results["batched"] == results["reference"]
