"""Benchmark: batched array kernels vs the loop-form oracle they replaced.

Two perf claims from ``docs/PERFORMANCE.md`` are measured on a
fig12-sized workload (5 chirps × 2 RX antennas × 720-sample records) and
recorded as gauges in ``BENCH_obs.json``:

* ``bench.kernel.synthesis_speedup`` — burst synthesis as one
  ``(n_chirps, n_rx, n)`` broadcast vs the per-record loop. The RNG
  draws (identical in both legs) are excluded: both legs consume the
  same pre-drawn :class:`~repro.kernels.burst.BurstVariates`.
* ``bench.kernel.rx_chain_speedup`` — the AP receive chain
  (``chirp_spectra`` + ``background_subtracted``) with stacked-FFT
  kernels vs the per-record loops.
* ``bench.kernel.music_speedup`` / ``bench.kernel.bartlett_speedup`` —
  the 2401-point AoA grid scans as one matmul projection vs the
  per-angle loops (8-antenna array, the §9.2 upgrade path).

The reference legs come from the test oracle
(``tests/kernel_reference.py``). Each pair first asserts the oracle
contract: bitwise identity (``np.array_equal``) for the burst/rxchain
kernels, exact peak index plus the documented tolerance for the AoA
spectra (see ``docs/PERFORMANCE.md``) — the speedups are only
meaningful because the outputs do not change.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.ap.music import ArrayAoaEstimator
from repro.channel.scene import Scene2D
from repro.kernels import aoa
from repro.kernels import burst as burst_kernel
from repro.sim.engine import MilBackSimulator
from tests import kernel_reference
from tests.kernel_reference import reference_kernels

#: fig12 burst geometry: 5-chirp background subtraction, two RX horns,
#: 18 µs chirps sampled at the 40 MHz beat rate.
N_CHIRPS = 5
N_RX = 2

#: Per-call cost is a few hundred µs: each timing sample averages over a
#: block of calls (drowning timer granularity), and the two legs are
#: interleaved block by block with the minimum kept — the standard
#: defence against a shared, noisy CI box, where a scheduler stall
#: landing in one leg would otherwise fabricate or destroy a speedup.
BLOCKS = 7
CALLS_PER_BLOCK = 60


def _burst_inputs():
    sim = MilBackSimulator(Scene2D.single_node(4.0, orientation_deg=10.0), seed=3)
    recs = sim._beat_records(toggled_port="both", n_chirps=N_CHIRPS, n_rx_antennas=N_RX)
    return sim, recs


def _block_s(fn) -> float:
    start_s = time.perf_counter()
    for _ in range(CALLS_PER_BLOCK):
        fn()
    return (time.perf_counter() - start_s) / CALLS_PER_BLOCK


def _timed_pair(reference_fn, batched_fn) -> tuple[float, float]:
    """Best-of-blocks per-call time for each leg, sampled interleaved."""
    reference_fn(), batched_fn()  # warm-up: primes caches and allocator
    reference_s = batched_s = float("inf")
    for _ in range(BLOCKS):
        reference_s = min(reference_s, _block_s(reference_fn))
        batched_s = min(batched_s, _block_s(batched_fn))
    return reference_s, batched_s


def test_bench_kernel_burst_synthesis(benchmark):
    sim, recs = _burst_inputs()
    n = recs[0][0].samples.size
    rng = np.random.default_rng(3)
    params = burst_kernel.BurstParams(
        static=rng.standard_normal((N_RX, n)) + 1j * rng.standard_normal((N_RX, n)),
        node_shape=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        mirror_shape=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        t=np.arange(n) / sim.ap.config.beat_sample_rate_hz,
        slope_hz_per_s=sim.ap.config.ranging_chirp.slope_hz_per_s,
        start_hz=sim.ap.config.ranging_chirp.start_hz,
        on_amp=1.0,
        off_amp=0.04,
        mirror_leak=0.18,
        rx_phase_step_rad=0.73,
        doppler_step_rad=0.0,
        noise_sigma=3.2e-7,
    )
    variates = burst_kernel.draw_variates(
        rng, N_CHIRPS, N_RX, n,
        trigger_jitter_s=2e-9,
        residual_fn=lambda: np.zeros(n, dtype=np.complex128),
    )

    reference = kernel_reference.synthesize_burst(params, variates)
    batched = burst_kernel.synthesize_burst(params, variates)
    assert np.array_equal(batched, reference)

    reference_s, batched_s = benchmark.pedantic(
        lambda: _timed_pair(
            lambda: kernel_reference.synthesize_burst(params, variates),
            lambda: burst_kernel.synthesize_burst(params, variates),
        ),
        rounds=1,
        iterations=1,
    )
    speedup = reference_s / batched_s
    obs.gauge("bench.kernel.synthesis_speedup").set(speedup)
    obs.gauge("bench.kernel.synthesis_reference_s").set(reference_s)
    obs.gauge("bench.kernel.synthesis_batched_s").set(batched_s)
    assert speedup >= 1.5
    print(f"\nburst synthesis ({N_CHIRPS}x{N_RX}x{n}): "
          f"reference {1e6 * reference_s:.0f} us, batched {1e6 * batched_s:.0f} us, "
          f"speedup {speedup:.2f}x")


def test_bench_kernel_rx_chain(benchmark):
    sim, recs = _burst_inputs()
    rx1 = recs[0]

    def rx_chain():
        return sim.ap.fmcw.background_subtracted(rx1).values

    def rx_chain_reference():
        with reference_kernels():
            return rx_chain()

    assert np.array_equal(rx_chain(), rx_chain_reference())
    reference_s, batched_s = benchmark.pedantic(
        lambda: _timed_pair(rx_chain_reference, rx_chain),
        rounds=1,
        iterations=1,
    )

    speedup = reference_s / batched_s
    obs.gauge("bench.kernel.rx_chain_speedup").set(speedup)
    obs.gauge("bench.kernel.rx_chain_reference_s").set(reference_s)
    obs.gauge("bench.kernel.rx_chain_batched_s").set(batched_s)
    assert speedup >= 1.5
    n = rx1[0].samples.size
    print(f"\nAP receive chain ({N_CHIRPS} chirps x {n} samples): "
          f"reference {1e6 * reference_s:.0f} us, batched {1e6 * batched_s:.0f} us, "
          f"speedup {speedup:.2f}x")


# --- AoA grid scans ---------------------------------------------------------------

#: The reference leg is a 2401-iteration Python loop (~tens of ms per
#: call), so the AoA pair uses far fewer calls per block than the µs-
#: scale kernels above — the interleaved best-of-blocks defence stays.
AOA_BLOCKS = 5
AOA_CALLS_PER_BLOCK = 3

#: Array geometry of the benchmark: the paper's §9.2 upgrade at 8
#: elements over the default 2401-point scan grid.
AOA_ANTENNAS = 8


def _aoa_inputs():
    """Covariance + noise subspace + steering from a real engine trial."""
    sim = MilBackSimulator(
        Scene2D.single_node(3.0, azimuth_deg=12.0, orientation_deg=10.0), seed=6
    )
    records = sim._beat_records(toggled_port="both", n_rx_antennas=AOA_ANTENNAS)
    beat_hz = sim.ap.fmcw.estimate_range(records[0]).beat_frequency_hz
    estimator = ArrayAoaEstimator(AOA_ANTENNAS, sim.ap.config.rx_baseline_m, 28e9)
    snapshots = estimator.snapshots(records, beat_hz)
    covariance = snapshots.T @ snapshots.conj() / snapshots.shape[0]
    noise = aoa.noise_subspace(covariance, n_sources=1)
    return covariance, noise, estimator._steering


def _aoa_timed_pair(reference_fn, batched_fn) -> tuple[float, float]:
    reference_fn(), batched_fn()  # warm-up
    reference_s = batched_s = float("inf")
    for _ in range(AOA_BLOCKS):
        for fn, which in ((reference_fn, "ref"), (batched_fn, "bat")):
            start_s = time.perf_counter()
            for _ in range(AOA_CALLS_PER_BLOCK):
                fn()
            block_s = (time.perf_counter() - start_s) / AOA_CALLS_PER_BLOCK
            if which == "ref":
                reference_s = min(reference_s, block_s)
            else:
                batched_s = min(batched_s, block_s)
    return reference_s, batched_s


def test_bench_kernel_music_spectrum(benchmark):
    covariance, noise, steering = _aoa_inputs()
    def run_reference():
        return kernel_reference.music_spectrum(noise, steering)

    def run_batched():
        return aoa.music_spectrum(noise, steering)

    reference, batched = run_reference(), run_batched()
    assert int(np.argmax(batched)) == int(np.argmax(reference))
    np.testing.assert_allclose(batched, reference, rtol=1e-11)

    reference_s, batched_s = benchmark.pedantic(
        lambda: _aoa_timed_pair(run_reference, run_batched),
        rounds=1,
        iterations=1,
    )
    speedup = reference_s / batched_s
    obs.gauge("bench.kernel.music_speedup").set(speedup)
    obs.gauge("bench.kernel.music_reference_s").set(reference_s)
    obs.gauge("bench.kernel.music_batched_s").set(batched_s)
    assert speedup >= 5.0
    print(f"\nMUSIC scan ({steering.shape[0]} angles x {AOA_ANTENNAS} antennas): "
          f"reference {1e3 * reference_s:.1f} ms, batched {1e6 * batched_s:.0f} us, "
          f"speedup {speedup:.1f}x")


def test_bench_kernel_bartlett_spectrum(benchmark):
    covariance, noise, steering = _aoa_inputs()
    def run_reference():
        return kernel_reference.bartlett_spectrum(covariance, steering)

    def run_batched():
        return aoa.bartlett_spectrum(covariance, steering)

    reference, batched = run_reference(), run_batched()
    assert int(np.argmax(batched)) == int(np.argmax(reference))
    np.testing.assert_allclose(batched, reference, rtol=1e-11)

    reference_s, batched_s = benchmark.pedantic(
        lambda: _aoa_timed_pair(run_reference, run_batched),
        rounds=1,
        iterations=1,
    )
    speedup = reference_s / batched_s
    obs.gauge("bench.kernel.bartlett_speedup").set(speedup)
    obs.gauge("bench.kernel.bartlett_reference_s").set(reference_s)
    obs.gauge("bench.kernel.bartlett_batched_s").set(batched_s)
    assert speedup >= 5.0
    print(f"\nBartlett scan ({steering.shape[0]} angles x {AOA_ANTENNAS} antennas): "
          f"reference {1e3 * reference_s:.1f} ms, batched {1e6 * batched_s:.0f} us, "
          f"speedup {speedup:.1f}x")
