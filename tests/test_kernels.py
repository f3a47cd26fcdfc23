"""Tests for repro.kernels: bitwise equality with the loop oracle + dispatch.

The kernel layer's whole contract is *exact* float equality between the
batched broadcasts and the per-record loops they replaced, kept as the
test oracle in ``tests/kernel_reference.py`` — every comparison here is
``np.array_equal``, never ``allclose``. Shapes deliberately include the
degenerate ones (one RX antenna, two chirps, clipped symbol windows)
where broadcasting bugs hide.
"""

import json

import numpy as np
import pytest
from scipy.signal import lfilter

from repro import obs
from repro.ap.fmcw import _mean_pair_spectrum
from repro.channel.scene import Scene2D
from repro.cli import main
from repro.dsp.fftutils import Spectrum, find_peaks_above
from repro.dsp.modulation import symbol_integrate
from repro.dsp.signal import Signal
from repro.errors import DecodingError
from repro.experiments.ablations import run_background_subtraction_ablation
from repro.kernels import aoa
from repro.kernels import burst as burst_kernel
from repro.kernels import dsp as dsp_kernel
from repro.kernels import rxchain
from repro.sim import cache as simcache
from repro.sim.engine import MilBackSimulator
from tests import kernel_reference
from tests.kernel_reference import both_modes, reference_kernels

# --- dispatch accounting ----------------------------------------------------------


def _nine_kernel_calls():
    """One call of each counted kernel, keyed by its dispatch label."""
    rng = np.random.default_rng(1)
    records = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    params, variates = _burst_fixture(2, 1, 16)
    steering = aoa.steering_matrix(np.linspace(-60.0, 60.0, 31), 2, 0.005, 0.01)
    covariance = np.eye(2, dtype=np.complex128)
    return {
        "burst.synthesize": lambda: burst_kernel.synthesize_burst(params, variates),
        "rxchain.windowed_spectra": lambda: rxchain.windowed_spectra(
            records, np.hanning(64)
        ),
        "rxchain.mean_abs_pair_diff": lambda: rxchain.mean_abs_pair_diff(records),
        "rxchain.complex_bin_values": lambda: rxchain.complex_bin_values(
            records, 40e6, 3.1e6
        ),
        "rxchain.masked_pair_profile": lambda: rxchain.masked_pair_profile(
            records, np.arange(64) < 20
        ),
        "dsp.local_maxima_candidates": lambda: dsp_kernel.local_maxima_candidates(
            np.array([0.0, 1.0, 0.0]), 0.5
        ),
        "dsp.integrate_slots": lambda: dsp_kernel.integrate_slots(
            records[0], np.array([0, 10]), np.array([5, 20])
        ),
        "aoa.bartlett_spectrum": lambda: aoa.bartlett_spectrum(covariance, steering),
        "aoa.music_spectrum": lambda: aoa.music_spectrum(covariance[:, :1], steering),
    }


class TestDispatchCounters:
    def test_dispatch_counts_per_kernel(self):
        calls = _nine_kernel_calls()
        assert len(calls) == len(kernel_reference.ORACLE) == 9
        for kernel, call in calls.items():
            counted = {
                label: obs.counter("kernels.dispatch.batched", kernel=label).value
                for label in calls
            }
            call()
            for label, before in counted.items():
                after = obs.counter("kernels.dispatch.batched", kernel=label).value
                assert after == before + (label == kernel), (kernel, label)


class TestOracleParity:
    """A whole experiment, run on the shipping kernels and on the oracle."""

    @staticmethod
    def _run_fig12(path, capsys):
        # Each run starts cold, as a fresh CLI process would, so the
        # cache hit/miss counters are comparable.
        simcache.clear_caches()
        aoa.clear_steering_cache()
        assert main(["run", "fig12", "--trials", "2", "--metrics-out", str(path)]) == 0
        stdout = capsys.readouterr().out
        metrics = json.loads(path.read_text(encoding="utf-8"))["metrics"]
        return stdout, metrics

    def test_fig12_identical_on_the_oracle(self, tmp_path, capsys):
        stdout, metrics = self._run_fig12(tmp_path / "batched.json", capsys)
        with reference_kernels():
            oracle_stdout, oracle_metrics = self._run_fig12(
                tmp_path / "reference.json", capsys
            )

        def deterministic(snapshot):
            return {
                name: payload
                for name, payload in snapshot.items()
                if payload["type"] in ("counter", "gauge")
                and not name.startswith("kernels.dispatch.")
            }

        assert oracle_stdout == stdout
        assert deterministic(oracle_metrics) == deterministic(metrics)
        # The patch intercepts every kernel call: none reached a kernel.
        assert any(name.startswith("kernels.dispatch.") for name in metrics)
        assert not any(name.startswith("kernels.dispatch.") for name in oracle_metrics)


# --- burst synthesis --------------------------------------------------------------


def _burst_fixture(n_chirps, n_rx, n, seed=0):
    rng = np.random.default_rng(seed)
    params = burst_kernel.BurstParams(
        static=(rng.standard_normal((n_rx, n)) + 1j * rng.standard_normal((n_rx, n))),
        node_shape=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        mirror_shape=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        t=np.arange(n) / 40e6,
        slope_hz_per_s=13.9e12,
        start_hz=27.875e9,
        on_amp=1.0,
        off_amp=0.04,
        mirror_leak=0.18,
        rx_phase_step_rad=0.73,
        doppler_step_rad=0.011,
        noise_sigma=3.2e-7,
    )
    variates = burst_kernel.draw_variates(
        np.random.default_rng(seed + 1),
        n_chirps,
        n_rx,
        n,
        trigger_jitter_s=2e-9,
        residual_sigma=0.0,
        residual_alpha=0.0,
    )
    return params, variates


class TestBurstSynthesis:
    @pytest.mark.parametrize(
        "n_chirps,n_rx,n",
        [(5, 2, 720), (2, 1, 64), (9, 4, 111), (3, 1, 1)],
    )
    def test_batched_equals_reference(self, n_chirps, n_rx, n):
        params, variates = _burst_fixture(n_chirps, n_rx, n)
        ref = kernel_reference.synthesize_burst(params, variates)
        batched = burst_kernel.synthesize_burst(params, variates)
        assert batched.shape == (n_chirps, n_rx, n)
        assert np.array_equal(batched, ref)

    def test_dispatch_follows_mode(self):
        params, variates = _burst_fixture(2, 1, 16)
        results = both_modes(lambda: burst_kernel.synthesize_burst(params, variates))
        assert np.array_equal(results["batched"], results["reference"])

    def test_engine_burst_identical_across_modes(self):
        def run():
            sim = MilBackSimulator(
                Scene2D.single_node(4.0, orientation_deg=10.0), seed=3
            )
            return sim.beat_burst(toggled_port="both", n_chirps=5, n_rx_antennas=2)

        results = both_modes(run)
        assert results["batched"].shape[:2] == (5, 2)
        assert np.array_equal(results["batched"], results["reference"])

    def test_engine_single_antenna_two_chirps(self):
        def run():
            sim = MilBackSimulator(Scene2D.single_node(3.0), seed=7)
            return sim.beat_burst(toggled_port="A", n_chirps=2, n_rx_antennas=1)

        results = both_modes(run)
        assert results["batched"].shape[:2] == (2, 1)
        assert np.array_equal(results["batched"], results["reference"])

    @staticmethod
    def _legacy_residual(rng, n, sigma, alpha):
        # The legacy per-chirp residual loop: white complex noise, a
        # first-order low-pass, then scaled to an RMS of ``sigma``.
        white = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        smooth = lfilter([alpha], [1.0, -(1.0 - alpha)], white)
        rms = float(np.sqrt(np.mean(np.abs(smooth) ** 2)))
        return (sigma / rms) * smooth

    def test_variates_draw_order_matches_legacy(self):
        # Same generator state must yield the same stream the legacy loop
        # consumed: per chirp jitter, residual, then per-antenna noise.
        # A zero sigma draws no residual; a positive one draws its two
        # normal vectors between the jitter and the noise. The engine's
        # burst shapes (5 chirps of 720 samples on 2 or 8 antennas) check
        # that filtering and averaging all chirps' residuals at once
        # matches the per-chirp loop bit for bit.
        for n_chirps, n_rx, n in ((3, 2, 8), (5, 2, 720), (5, 8, 720)):
            for sigma, alpha in ((0.0, 0.0), (0.01, 0.047)):
                drawn = np.random.default_rng(5)
                v = burst_kernel.draw_variates(
                    drawn,
                    n_chirps,
                    n_rx,
                    n,
                    trigger_jitter_s=1e-9,
                    residual_sigma=sigma,
                    residual_alpha=alpha,
                )
                rng = np.random.default_rng(5)
                for k in range(n_chirps):
                    assert v.tau_j_s[k] == rng.normal(0.0, 1e-9)
                    if sigma > 0:
                        expect = self._legacy_residual(rng, n, sigma, alpha)
                        assert np.array_equal(v.residuals[k], expect)
                        rms = np.sqrt(np.mean(np.abs(v.residuals[k]) ** 2))
                        assert rms == pytest.approx(sigma, rel=1e-12)
                    else:
                        assert not v.residuals[k].any()
                    for m in range(n_rx):
                        expect = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                        assert np.array_equal(v.noise_white[k, m], expect)
                # Both left the generator at the same point.
                assert drawn.standard_normal() == rng.standard_normal()


# --- receive chain ----------------------------------------------------------------


class TestRxChain:
    @pytest.mark.parametrize("n_records,n", [(5, 720), (2, 64), (7, 33)])
    def test_windowed_spectra_modes_equal(self, n_records, n):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((n_records, n)) + 1j * rng.standard_normal(
            (n_records, n)
        )
        taps = np.hanning(n)
        results = both_modes(lambda: rxchain.windowed_spectra(samples, taps))
        assert np.array_equal(results["batched"], results["reference"])

    def test_mean_abs_pair_diff_modes_equal(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal((5, 128)) + 1j * rng.standard_normal((5, 128))
        results = both_modes(lambda: rxchain.mean_abs_pair_diff(values))
        assert np.array_equal(results["batched"], results["reference"])

    @pytest.mark.parametrize("shape", [(5, 64), (3, 4, 64)])
    def test_complex_bin_values_modes_equal(self, shape):
        rng = np.random.default_rng(13)
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        results = both_modes(
            lambda: rxchain.complex_bin_values(samples, 40e6, 3.1e6)
        )
        assert results["batched"].shape == shape[:-1]
        assert np.array_equal(results["batched"], results["reference"])

    def test_masked_pair_profile_modes_equal(self):
        rng = np.random.default_rng(14)
        samples = rng.standard_normal((5, 96)) + 1j * rng.standard_normal((5, 96))
        mask = np.zeros(96, dtype=bool)
        mask[10:30] = True
        results = both_modes(lambda: rxchain.masked_pair_profile(samples, mask))
        assert np.array_equal(results["batched"], results["reference"])

    def test_background_subtraction_end_to_end(self):
        def run():
            sim = MilBackSimulator(Scene2D.single_node(4.0), seed=3)
            burst = sim.beat_burst(toggled_port="both", n_chirps=5, n_rx_antennas=2)
            fs_hz = sim.ap.config.beat_sample_rate_hz
            spectra = sim.ap.fmcw.chirp_spectra(burst[:, 0], fs_hz)
            return _mean_pair_spectrum(*spectra).values

        results = both_modes(run)
        assert np.array_equal(results["batched"], results["reference"])


class TestOneTransformPerChain:
    """Ranging transforms its chain once; the two-horn AoA, the discovery
    probe and the subtraction ablation read ranging's rows, so no chirp
    is windowed and transformed twice."""

    OPS = {
        "simulate_localization": (lambda sim: sim.simulate_localization(), [5, 2]),
        "observe_burst": (lambda sim: sim.observe_burst(), [5, 2]),
        "probe_direction": (lambda sim: sim.probe_direction(5.0), [11]),
        "subtraction_ablation": (lambda sim: run_background_subtraction_ablation(), [5]),
    }

    @pytest.mark.parametrize("op", list(OPS))
    def test_rows_per_call(self, monkeypatch, op):
        call, expected = self.OPS[op]
        scene = Scene2D.single_node(3.0, azimuth_deg=5.0, orientation_deg=10.0)
        sim = MilBackSimulator(scene, seed=3)
        records = []
        kernel = rxchain.windowed_spectra

        def recording(samples, taps, nfft=None):
            records.append(np.array(samples))
            return kernel(samples, taps, nfft)

        monkeypatch.setattr(rxchain, "windowed_spectra", recording)
        call(sim)
        assert [samples.shape[0] for samples in records] == expected
        rows = [row.tobytes() for samples in records for row in samples]
        assert len(set(rows)) == len(rows)


# --- dsp primitives ---------------------------------------------------------------


class TestDspKernels:
    @pytest.mark.parametrize("n", [3, 64, 4097])
    def test_local_maxima_modes_equal(self, n):
        rng = np.random.default_rng(21)
        mag = np.abs(rng.standard_normal(n)) + 0.05
        floor = 0.4 * mag.max()
        results = both_modes(lambda: dsp_kernel.local_maxima_candidates(mag, floor))
        assert results["batched"] == results["reference"]

    def test_local_maxima_plateau_keeps_rightmost(self):
        # >= toward the left neighbour, > toward the right: a flat-top
        # peak fires on its right edge only, in both modes.
        mag = np.array([0.0, 1.0, 1.0, 0.0, 2.0, 0.0])
        results = both_modes(lambda: dsp_kernel.local_maxima_candidates(mag, 0.5))
        assert results["batched"] == results["reference"] == [2, 4]

    def test_find_peaks_modes_equal(self):
        rng = np.random.default_rng(22)
        mag = np.abs(rng.standard_normal(512)) + 0.1
        mag[100] = 9.0
        mag[300] = 7.5
        spec = Spectrum(np.linspace(0.0, 1e6, 512), mag.astype(np.complex128))
        results = both_modes(
            lambda: [
                (p.frequency_hz, p.magnitude, p.bin_index)
                for p in find_peaks_above(spec, 0.3, 3)
            ]
        )
        assert results["batched"] == results["reference"]

    @pytest.mark.parametrize(
        "n_symbols,fs_hz,complex_input,t0_s",
        [
            (17, 1.04e6, False, 0.0),
            (9, 2.3e6, True, 0.0),
            (5, 1.0e6, False, -2.2e-6),  # first window clipped at sample 0
        ],
    )
    def test_symbol_integrate_modes_equal(self, n_symbols, fs_hz, complex_input, t0_s):
        rng = np.random.default_rng(23)
        n = int(round(n_symbols * 1e-5 * fs_hz)) + 3
        x = rng.standard_normal(n)
        if complex_input:
            x = x + 1j * rng.standard_normal(n)
        sig = Signal(x, fs_hz, 0.0, 0.0)
        results = both_modes(
            lambda: symbol_integrate(sig, 1e-5, n_symbols, t_first_symbol_s=t0_s)
        )
        assert np.array_equal(results["batched"], results["reference"])

    def test_integrate_slots_uneven_lengths(self):
        # Lengths {3, 4} force the grouped-gather path to split groups.
        rng = np.random.default_rng(24)
        samples = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        i0 = np.array([0, 5, 11, 20, 30])
        i1 = np.array([3, 9, 14, 24, 33])
        results = both_modes(lambda: dsp_kernel.integrate_slots(samples, i0, i1))
        assert np.array_equal(results["batched"], results["reference"])

    def test_slot_bounds_raises_like_reference(self):
        sig = Signal(np.zeros(8), 1e6, 0.0, 0.0)

        def run():
            with pytest.raises(DecodingError, match="symbol 1 falls outside"):
                symbol_integrate(sig, 1e-5, 3, t_first_symbol_s=0.0)

        both_modes(run)
