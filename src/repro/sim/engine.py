"""End-to-end MilBack simulator: AP ↔ channel ↔ node.

The engine synthesizes exactly the observables each receiver in the real
testbed digitizes — dechirped beat records at the AP's scope, envelope
voltages at the node's MCU, post-mixer baseband at the AP's uplink
branches — from the scene geometry, the antenna models and the link
budget, then runs the same estimation/demodulation code a deployment
would. RF-rate waveforms are never materialized: each receiver's
observable has an exact complex-baseband or envelope-domain form (see
the per-method notes), which is what keeps full evaluation sweeps at
laptop scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from repro import faults, obs
from repro.antennas.dual_port_fsa import TonePair
from repro.antennas.fsa import FsaPort
from repro.ap.access_point import AccessPoint
from repro.channel.propagation import propagation_delay_s
from repro.channel.scene import Scene2D
from repro.constants import SPEED_OF_LIGHT
from repro.dsp.envelope import two_tone_mean_envelope
from repro.dsp.noise import thermal_noise_power_w
from repro.dsp.signal import Signal
from repro.errors import ConfigurationError, LocalizationError
from repro.kernels import burst as burst_kernel
from repro.node.node import BackscatterNode
from repro.phy.ber import measure_ber
from repro.sim import cache as simcache
from repro.sim.calibration import Calibration, default_calibration
from repro.sim.linkbudget import LinkBudget
from repro.utils.rng import RngLike, make_rng

__all__ = [
    "LocalizationResult",
    "ApOrientationResult",
    "BurstObservables",
    "NodeOrientationResult",
    "DownlinkResult",
    "UplinkResult",
    "MilBackSimulator",
]


# --- result records ----------------------------------------------------------------


@dataclass(frozen=True)
class LocalizationResult:
    """One ranging + AoA measurement against ground truth."""

    distance_est_m: float
    distance_true_m: float
    angle_est_deg: float
    angle_true_deg: float
    beat_frequency_hz: float

    @property
    def distance_error_m(self) -> float:
        return self.distance_est_m - self.distance_true_m

    @property
    def angle_error_deg(self) -> float:
        return self.angle_est_deg - self.angle_true_deg


@dataclass(frozen=True)
class BurstObservables:
    """Everything one Field-2 burst exposes to a downstream consumer.

    The dataset factory's unit of observation: the raw dechirped burst
    (for feature extraction), link-budget port powers and mean envelope
    magnitudes (classical signal-strength features), and the classical
    localization estimate when one was possible — ``None`` when the
    estimator found no usable peak (heavy faults, deep NLOS), which is
    itself a label worth keeping.
    """

    #: Dechirped burst, shape ``(n_chirps, n_rx, n_samples)`` complex128.
    samples: np.ndarray
    sample_rate_hz: float
    #: Received backscatter power per FSA port (A, B), dBm at the AP.
    port_power_dbm: tuple[float, float]
    #: Mean envelope magnitude per RX antenna, volts.
    envelope_mean_v: tuple[float, ...]
    localization: LocalizationResult | None


@dataclass(frozen=True)
class ApOrientationResult:
    """AP-side orientation estimate against ground truth."""

    orientation_est_deg: float
    orientation_true_deg: float
    peak_frequency_hz: float

    @property
    def error_deg(self) -> float:
        return self.orientation_est_deg - self.orientation_true_deg


@dataclass(frozen=True)
class NodeOrientationResult:
    """Node-side orientation estimate against ground truth."""

    orientation_est_deg: float
    orientation_true_deg: float
    orientation_a_deg: float
    orientation_b_deg: float

    @property
    def error_deg(self) -> float:
        return self.orientation_est_deg - self.orientation_true_deg


@dataclass(frozen=True)
class DownlinkResult:
    """One downlink burst: bits, BER and per-port SINR."""

    tx_bits: np.ndarray
    rx_bits: np.ndarray
    ber: float
    sinr_a_db: float
    sinr_b_db: float
    used_ook_fallback: bool
    pair: TonePair
    detector_a: Signal | None = None
    detector_b: Signal | None = None

    @property
    def sinr_db(self) -> float:
        values = [v for v in (self.sinr_a_db, self.sinr_b_db) if not math.isnan(v)]
        return min(values) if values else float("nan")


@dataclass(frozen=True)
class UplinkResult:
    """One uplink burst: bits, BER and per-branch SNR."""

    tx_bits: np.ndarray
    rx_bits: np.ndarray
    ber: float
    snr_a_db: float
    snr_b_db: float
    pair: TonePair

    @property
    def snr_db(self) -> float:
        values = [v for v in (self.snr_a_db, self.snr_b_db) if not math.isnan(v)]
        return min(values) if values else float("nan")


# --- the engine ----------------------------------------------------------------------


class MilBackSimulator:
    """Simulates every MilBack interaction for one scene."""

    def __init__(
        self,
        scene: Scene2D,
        node: BackscatterNode | None = None,
        ap: AccessPoint | None = None,
        calibration: Calibration | None = None,
        seed: RngLike = None,
        node_id: str | None = None,
        atmosphere=None,
    ) -> None:
        self.scene = scene
        self.calibration = calibration or default_calibration()
        if node is None:
            # The default node takes its detector noise_v_per_rt_hz density from the
            # calibration, so the knob actually drives the simulation.
            from repro.hardware.envelope_detector import EnvelopeDetector
            from repro.node.config import NodeConfig

            noise_v_per_rt_hz = self.calibration.node_detector_noise_v_per_rt_hz
            node = BackscatterNode(
                NodeConfig(
                    detector_a=EnvelopeDetector(output_noise_v_per_rt_hz=noise_v_per_rt_hz),
                    detector_b=EnvelopeDetector(output_noise_v_per_rt_hz=noise_v_per_rt_hz),
                )
            )
        self.node = node
        self.ap = ap or AccessPoint(node_fsa=self.node.fsa)
        self.rng = make_rng(seed)
        self.node_id = node_id
        cal = calibration or default_calibration()
        # Per-run instrument systematics (constant within one measurement
        # run, fresh across runs): generator slope miscalibration and RX
        # baseline phase-center offset.
        self._slope_error = float(self.rng.normal(0.0, cal.slope_error_sigma))
        self._aoa_bias_deg = float(self.rng.normal(0.0, cal.aoa_bias_sigma_deg))
        # Per-instance memos for quantities that mix the instance's own
        # ripple realization with scene-invariant terms; keyed by
        # (kind, port, grid key). The cross-instance RNG-free pieces live
        # in repro.sim.cache.
        self._ripple_interp: dict[tuple, np.ndarray] = {}
        self._amplitude_memo: dict[tuple, np.ndarray] = {}
        self.budget = LinkBudget(
            scene=scene,
            fsa=self.node.fsa,
            tx_horn=self.ap.config.tx_horn,
            rx_horn=self.ap.config.rx_horn,
            switch=self.node.config.switch_a,
            calibration=self.calibration,
            tx_power_dbm=self.ap.config.tx_power_dbm,
            node_id=node_id,
            atmosphere=atmosphere,
        )

    # --- FSA gain ripple ------------------------------------------------------------

    def _gain_ripple_db(
        self,
        port: str,
        freqs_hz: np.ndarray,
        grid_key: tuple | None = None,
    ) -> np.ndarray:
        """Slowly varying random gain ripple across the band for one port.

        Drawn once per simulator instance (one physical measurement run):
        Gaussian control points every ``fsa_ripple_correlation_hz``,
        linearly interpolated. Models fabrication tolerance and residual
        multipath standing waves — the error floor of the paper's
        orientation experiments.

        The control points come from the trial RNG, so they can never be
        shared across instances — but the interpolation onto a named
        frequency grid is memoized per ``(port, grid_key)`` within this
        instance (the grid never changes between bursts of one run).
        """
        cal = self.calibration
        if cal.fsa_gain_ripple_db <= 0:
            return np.zeros_like(np.asarray(freqs_hz, dtype=float))
        if grid_key is not None:
            cached = self._ripple_interp.get((port, grid_key))
            if cached is not None:
                return cached
        if not hasattr(self, "_ripple_tables"):
            self._ripple_tables = {}
        if port not in self._ripple_tables:
            lo, hi = self.node.fsa.band_hz
            span = hi - lo
            n_ctrl = max(int(span / cal.fsa_ripple_correlation_hz) + 2, 4)
            ctrl_f = np.linspace(lo - 0.05 * span, hi + 0.05 * span, n_ctrl)
            ctrl_v = cal.fsa_gain_ripple_db * self.rng.standard_normal(n_ctrl)
            self._ripple_tables[port] = (ctrl_f, ctrl_v)
        ctrl_f, ctrl_v = self._ripple_tables[port]
        ripple = np.interp(np.asarray(freqs_hz, dtype=float), ctrl_f, ctrl_v)
        if grid_key is not None:
            ripple = simcache.frozen_array(ripple)
            self._ripple_interp[(port, grid_key)] = ripple
        return ripple

    # --- vectorized budget helpers ------------------------------------------------

    def _backscatter_amplitude(
        self,
        port: str,
        freqs_hz: np.ndarray,
        grid: simcache.ChirpGrid | None = None,
    ) -> np.ndarray:
        """Field gain of the node's reflection across frequencies.

        Frequency-resolved version of
        :meth:`LinkBudget.backscatter_gain_db` (the FSA gain sweeps with
        the chirp, everything else is flat across the band). With a
        ``grid``, the flat budget scalar and FSA sweep come from the
        scene-invariant caches and the full array is memoized for this
        instance.
        """
        if grid is not None:
            cached = self._amplitude_memo.get(("backscatter", port, grid.key))
            if cached is not None:
                return cached
            flat_db = simcache.backscatter_gain_db(self.budget, port, grid.mean_hz)
            fsa_flat = float(
                self.node.fsa.gain_dbi(
                    port, self.budget.node_orientation_deg(), grid.mean_hz
                )
            )
            fsa_sweep = simcache.fsa_gain_sweep(
                self.node.fsa, port, self.budget.node_orientation_deg(), grid
            )
            ripple = self._gain_ripple_db(port, grid.f_inst, grid_key=grid.key)
            gain_db = flat_db + 2.0 * (fsa_sweep - fsa_flat) + 2.0 * ripple
            amplitude = simcache.frozen_array(np.power(10.0, gain_db / 20.0))
            self._amplitude_memo[("backscatter", port, grid.key)] = amplitude
            return amplitude
        flat_db = self.budget.backscatter_gain_db(port, float(np.mean(freqs_hz)))
        fsa_flat = float(
            self.node.fsa.gain_dbi(
                port, self.budget.node_orientation_deg(), float(np.mean(freqs_hz))
            )
        )
        fsa_sweep = np.asarray(
            self.node.fsa.gain_dbi(port, self.budget.node_orientation_deg(), freqs_hz),
            dtype=float,
        )
        gain_db = flat_db + 2.0 * (fsa_sweep - fsa_flat)
        gain_db = gain_db + 2.0 * self._gain_ripple_db(port, freqs_hz)
        return np.power(10.0, gain_db / 20.0)

    def _downlink_amplitude(
        self,
        port: str,
        freqs_hz: np.ndarray,
        grid: simcache.ChirpGrid | None = None,
    ) -> np.ndarray:
        """Field gain into one FSA port's detector across frequencies."""
        if grid is not None:
            cached = self._amplitude_memo.get(("downlink", port, grid.key))
            if cached is not None:
                return cached
            flat_db = simcache.downlink_port_gain_db(self.budget, port, grid.mean_hz)
            fsa_flat = float(
                self.node.fsa.gain_dbi(
                    port, self.budget.node_orientation_deg(), grid.mean_hz
                )
            )
            fsa_sweep = simcache.fsa_gain_sweep(
                self.node.fsa, port, self.budget.node_orientation_deg(), grid
            )
            ripple = self._gain_ripple_db(port, grid.f_inst, grid_key=grid.key)
            gain_db = flat_db + (fsa_sweep - fsa_flat) + ripple
            amplitude = simcache.frozen_array(np.power(10.0, gain_db / 20.0))
            self._amplitude_memo[("downlink", port, grid.key)] = amplitude
            return amplitude
        flat_db = self.budget.downlink_port_gain_db(port, float(np.mean(freqs_hz)))
        fsa_flat = float(
            self.node.fsa.gain_dbi(
                port, self.budget.node_orientation_deg(), float(np.mean(freqs_hz))
            )
        )
        fsa_sweep = np.asarray(
            self.node.fsa.gain_dbi(port, self.budget.node_orientation_deg(), freqs_hz),
            dtype=float,
        )
        gain_db = flat_db + (fsa_sweep - fsa_flat)
        gain_db = gain_db + self._gain_ripple_db(port, freqs_hz)
        return np.power(10.0, gain_db / 20.0)

    # --- FMCW beat-record synthesis -------------------------------------------------

    @obs.traced("engine.beat_records")
    def _beat_records(
        self,
        toggled_port: str = "both",
        n_chirps: int | None = None,
        steer_azimuth_deg: float | None = None,
        radial_velocity_mps: float = 0.0,
        n_rx_antennas: int = 2,
    ) -> tuple[list[Signal], ...]:
        """Synthesize the dechirped (beat) records both RX chains capture.

        Stretch processing turns a reflector with round-trip delay τ into
        a tone at slope_hz_per_s·τ with phase 2π·f₀·τ; the node's contribution is
        additionally amplitude-shaped by its FSA gain at the chirp's
        instantaneous frequency, and gated by its per-chirp toggle state.
        Synthesizing this closed form at the beat sample rate is exact —
        it is what the scope would record after the AP's mixer.

        ``steer_azimuth_deg`` points the AP's horns away from the node
        (used by discovery scans); the node's return then pays the horn
        roll-off twice and the clutter picture shifts accordingly.
        ``n_rx_antennas`` generalizes the AP's two-horn receiver to a
        uniform linear array at the same baseline_m spacing (the phased-
        array upgrade §9.2 points at); the return is one record list per
        antenna.
        """
        cfg = self.ap.config
        chirp = cfg.ranging_chirp
        n_chirps = n_chirps or cfg.n_ranging_chirps
        obs.counter("engine.chirps.synthesized").inc(n_chirps)
        fs_hz = cfg.beat_sample_rate_hz
        # Scene-invariant pieces (time grid, static clutter field, FSA
        # amplitude sweep) come from repro.sim.cache — computed once per
        # scene configuration, reused by every chirp of every trial.
        grid = simcache.chirp_grid(chirp, fs_hz)
        n = grid.n
        t = grid.t
        slope_hz_per_s = chirp.slope_hz_per_s
        lam = SPEED_OF_LIGHT / chirp.center_hz
        baseline_m = cfg.rx_baseline_m
        sqrt_ptx = math.sqrt(self.budget.tx_power_w())

        if n_rx_antennas < 1:
            raise ConfigurationError("need at least one RX antenna")
        # Static paths: clutter + self-interference (identical every chirp).
        node_azimuth = self.budget.node_azimuth_deg()
        pointing = node_azimuth if steer_azimuth_deg is None else steer_azimuth_deg
        # Horn roll-off on the node's two-way path when the scan is not
        # pointed at it (0 dB when steered at the node).
        steer_offset = pointing - node_azimuth
        horn_rolloff_db = (
            float(self.ap.config.tx_horn.gain_dbi(steer_offset, chirp.center_hz))
            - self.ap.config.tx_horn.peak_gain_dbi
            + float(self.ap.config.rx_horn.gain_dbi(steer_offset, chirp.center_hz))
            - self.ap.config.rx_horn.peak_gain_dbi
        )
        steer_factor = 10.0 ** (horn_rolloff_db / 20.0)
        static = simcache.static_beat_field(
            self.budget,
            grid,
            pointing,
            n_rx_antennas,
            baseline_m,
            self._path_azimuth,
        )

        # Node path: FSA-shaped amplitude, toggled per chirp.
        ports = {"both": (FsaPort.A, FsaPort.B), "A": (FsaPort.A,), "B": (FsaPort.B,)}
        if toggled_port not in ports:
            raise ConfigurationError("toggled_port must be 'both', 'A' or 'B'")
        node_delay = 2.0 * propagation_delay_s(self.budget.node_distance_m())
        node_beat = slope_hz_per_s * node_delay
        node_phase0 = 2.0 * math.pi * chirp.start_hz * node_delay
        node_rx2_phase = (
            2.0 * math.pi * baseline_m * math.sin(math.radians(node_azimuth)) / lam
        )
        node_tone = np.exp(1j * (2.0 * math.pi * node_beat * t + node_phase0))
        node_shape = np.zeros(n, dtype=np.complex128)
        for port in ports[toggled_port]:
            node_shape += self._backscatter_amplitude(port, grid.f_inst, grid=grid) * node_tone
        node_shape *= sqrt_ptx * steer_factor

        # Mirror-image reflection of the FSA ground plane (Fig. 13b
        # artifact): co-located with the node, flat across the sweep,
        # only partially modulated by the switching.
        mirror_db = self.budget.mirror_reflection_gain_db(chirp.center_hz)
        mirror_amp = sqrt_ptx * steer_factor * 10.0 ** (mirror_db / 20.0)
        mirror_phase = self.rng.uniform(0.0, 2.0 * math.pi)
        mirror_delay = node_delay + 2.0 * self.calibration.mirror_excess_path_m / SPEED_OF_LIGHT
        mirror_beat = slope_hz_per_s * mirror_delay
        mirror_tone = np.exp(
            1j * (2.0 * math.pi * mirror_beat * t
                  + 2.0 * math.pi * chirp.start_hz * mirror_delay)
        )
        mirror_shape = mirror_amp * mirror_tone * np.exp(1j * mirror_phase)

        # Per-chirp toggle factors: reflect on even chirps, absorb on odd.
        # The backscatter budget already includes the reflect-state loss,
        # so the "on" factor is unity and the "off" factor is the extra
        # suppression the absorb state adds (isolation vs short).
        sw = self.node.config.switch_a
        on_amp = 1.0  # backscatter gain already includes the reflect loss
        off_amp = 10.0 ** (-(sw.isolation_db - 2.0 * sw.insertion_loss_db) / 20.0)
        # Switch-stuck faults blend the toggle contrast; a bitwise no-op
        # when no plan is active (docs/ROBUSTNESS.md).
        on_amp, off_amp = faults.switch_toggle_amplitudes(on_amp, off_amp)
        leak = self.calibration.mirror_modulation_leakage

        noise_power = thermal_noise_power_w(
            fs_hz, self.calibration.ap_noise_figure_db
        ) + 1e-3 * 10.0 ** (self.calibration.beat_capture_noise_dbm / 10.0)
        # Chirp-to-chirp Doppler rotation of a moving node:
        # phi_k = 4*pi*v*t_k/lambda (intra-chirp drift is negligible at
        # indoor speeds).
        doppler_step = (
            4.0 * math.pi * radial_velocity_mps * cfg.chirp_repetition_interval_s
            / (SPEED_OF_LIGHT / chirp.center_hz)
        )
        # Assemble the whole burst through the kernel layer: variates are
        # pre-drawn in the exact legacy order (per chirp: trigger jitter,
        # cancellation residual, then per-antenna noise), then every
        # record comes out of one (n_chirps, n_rx, n) computation —
        # bitwise identical to the per-record loop the test oracle keeps.
        params = burst_kernel.BurstParams(
            static=np.stack(static),
            node_shape=node_shape,
            mirror_shape=mirror_shape,
            t=t,
            slope_hz_per_s=slope_hz_per_s,
            start_hz=chirp.start_hz,
            on_amp=on_amp,
            off_amp=off_amp,
            mirror_leak=leak,
            rx_phase_step_rad=node_rx2_phase,
            doppler_step_rad=doppler_step,
            noise_sigma=math.sqrt(noise_power / 2.0),
        )
        variates = burst_kernel.draw_variates(
            self.rng,
            n_chirps,
            n_rx_antennas,
            n,
            self.calibration.trigger_jitter_s,
            lambda: self._cancellation_residual(n, fs_hz),
        )
        samples = burst_kernel.synthesize_burst(params, variates)
        samples = faults.corrupt_burst(samples)
        records = tuple([] for _ in range(n_rx_antennas))
        for k in range(n_chirps):
            for m in range(n_rx_antennas):
                records[m].append(
                    Signal(
                        samples[k, m],
                        fs_hz,
                        0.0,
                        k * cfg.chirp_repetition_interval_s,
                    )
                )
        return records

    def _cancellation_residual(self, n: int, fs: float) -> np.ndarray:
        """Per-chirp multiplicative residual on the static paths.

        Background subtraction cancels static clutter only down to a
        floor (TX phase noise, quantization, micro-motion). The residual
        is modeled as band-limited complex noise — fresh each chirp, so
        pairwise subtraction leaves ~``clutter_cancellation_db`` of
        suppression, smeared over the residual bandwidth in beat
        frequency (i.e. range).
        """
        cal = self.calibration
        sigma = 10.0 ** (-cal.clutter_cancellation_db / 20.0)
        if sigma <= 0:
            return np.zeros(n, dtype=np.complex128)
        white = self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)
        alpha = 1.0 - math.exp(
            -2.0 * math.pi * cal.cancellation_residual_bandwidth_hz / fs
        )
        smooth = lfilter([alpha], [1.0, -(1.0 - alpha)], white)
        rms = float(np.sqrt(np.mean(np.abs(smooth) ** 2)))
        if rms <= 0:
            return np.zeros(n, dtype=np.complex128)
        return (sigma / rms) * smooth

    def _path_azimuth(self, label: str) -> float:
        """World azimuth (off AP boresight) of a named path's source."""
        for reflector, _distance, azimuth in self.scene.clutter_geometry():
            if label == f"clutter-{reflector.name}":
                return azimuth
        return 0.0  # self-interference: on-axis

    @obs.traced("engine.probe_direction", count="engine.probe_direction.trials")
    def probe_direction(
        self, steer_azimuth_deg: float, n_chirps: int = 11
    ) -> tuple[float, float, float]:
        """One discovery probe: steer the horns, transmit a Field-2 burst,
        and report ``(peak magnitude, estimated distance, coherence)``.

        Coherence is the discriminator between a node and a clutter
        residual: the node toggles deterministically once per chirp, so
        its pair differences add *coherently* under alternating signs
        (ratio → 1), while cancellation residue is random chirp to chirp
        (ratio → ~1/√n_pairs). Discovery probes use a longer burst than
        Field 2 (default 11 chirps → 10 pairs) so the statistic separates
        cleanly.
        """
        records, _ = self._beat_records(
            toggled_port="both",
            n_chirps=n_chirps,
            steer_azimuth_deg=steer_azimuth_deg,
        )
        estimate = self.ap.fmcw.estimate_range(records)
        spectra = self.ap.fmcw.chirp_spectra(records)
        values = np.array(
            [s.value_at(estimate.beat_frequency_hz) for s in spectra]
        )
        diffs = values[:-1] - values[1:]
        signs = np.array([(-1.0) ** k for k in range(diffs.size)])
        denominator = float(np.sum(np.abs(diffs)))
        coherence = (
            float(np.abs(np.sum(signs * diffs))) / denominator
            if denominator > 0
            else 0.0
        )
        return estimate.peak_magnitude, estimate.distance_m, coherence

    # --- localization (paper §5.1, Fig. 12) --------------------------------------------

    @obs.traced("engine.localization", count="engine.localization.trials")
    def simulate_localization(self) -> LocalizationResult:
        """FMCW ranging + two-antenna AoA, one full Field-2 burst."""
        records_rx1, records_rx2 = self._beat_records(toggled_port="both")
        estimate = self.ap.fmcw.estimate_range(records_rx1)
        aoa = self.ap.aoa.estimate(records_rx1, records_rx2, estimate.beat_frequency_hz)
        # The processor divides by the *assumed* slope; a generator slope
        # off by ε yields a distance off by ε·d. Likewise the AoA carries
        # the run's baseline-calibration bias.
        distance = estimate.distance_m * (1.0 + self._slope_error)
        return LocalizationResult(
            distance_est_m=distance,
            distance_true_m=self.budget.node_distance_m(),
            angle_est_deg=aoa.angle_deg + self._aoa_bias_deg,
            angle_true_deg=self.budget.node_azimuth_deg(),
            beat_frequency_hz=estimate.beat_frequency_hz,
        )

    @obs.traced("engine.observe", count="engine.observe.trials")
    def observe_burst(self, radial_velocity_mps: float = 0.0) -> BurstObservables:
        """One Field-2 burst, returned as raw observables plus estimates.

        The dataset-factory entry point: unlike
        :meth:`simulate_localization` it keeps the dechirped samples
        (feature extraction happens downstream, batched across rows)
        and degrades gracefully — a burst the classical estimator
        cannot localize still yields a row, with
        ``localization=None`` and ``engine.observe.failed`` bumped.
        """
        records = self._beat_records(
            toggled_port="both", radial_velocity_mps=radial_velocity_mps
        )
        # (n_chirps, n_rx, n) — the same layout the burst kernel produces.
        samples = np.stack(
            [np.stack([rec.samples for rec in per_antenna]) for per_antenna in records],
            axis=1,
        )
        chirp = self.ap.config.ranging_chirp
        port_power_dbm = (
            self.budget.tx_power_dbm
            + simcache.backscatter_gain_db(self.budget, FsaPort.A, chirp.center_hz),
            self.budget.tx_power_dbm
            + simcache.backscatter_gain_db(self.budget, FsaPort.B, chirp.center_hz),
        )
        envelope_mean_v = tuple(
            float(np.mean(np.abs(samples[:, m, :]))) for m in range(samples.shape[1])
        )
        localization: LocalizationResult | None
        try:
            estimate = self.ap.fmcw.estimate_range(records[0])
            aoa = self.ap.aoa.estimate(records[0], records[1], estimate.beat_frequency_hz)
            localization = LocalizationResult(
                distance_est_m=estimate.distance_m * (1.0 + self._slope_error),
                distance_true_m=self.budget.node_distance_m(),
                angle_est_deg=aoa.angle_deg + self._aoa_bias_deg,
                angle_true_deg=self.budget.node_azimuth_deg(),
                beat_frequency_hz=estimate.beat_frequency_hz,
            )
        except LocalizationError:
            obs.counter("engine.observe.failed").inc()
            localization = None
        return BurstObservables(
            samples=samples,
            sample_rate_hz=self.ap.config.beat_sample_rate_hz,
            port_power_dbm=port_power_dbm,
            envelope_mean_v=envelope_mean_v,
            localization=localization,
        )

    @obs.traced("engine.velocity", count="engine.velocity.trials")
    def simulate_velocity(
        self,
        radial_velocity_mps: float,
        n_chirps: int = 9,
    ):
        """Range + radial velocity from one extended chirp burst.

        The ISAC extension: the same burst that ranges the node also
        yields its radial speed from chirp-to-chirp phase, after undoing
        the node's deliberate toggle (see :mod:`repro.ap.doppler`).
        Returns ``(RangeEstimate, VelocityEstimate)``.
        """
        from repro.ap.doppler import DopplerEstimator

        records, _ = self._beat_records(
            toggled_port="both",
            n_chirps=n_chirps,
            radial_velocity_mps=radial_velocity_mps,
        )
        estimate = self.ap.fmcw.estimate_range(records)
        doppler = DopplerEstimator(
            self.ap.config.chirp_repetition_interval_s,
            self.ap.config.ranging_chirp.center_hz,
        )
        velocity = doppler.estimate(records, estimate.beat_frequency_hz)
        return estimate, velocity

    @obs.traced("engine.localization_array", count="engine.localization_array.trials")
    def simulate_localization_array(
        self,
        n_antennas: int = 8,
        method: str = "music",
        n_chirps: int | None = None,
    ) -> LocalizationResult:
        """Localization with an N-antenna RX array (the §9.2 upgrade).

        Ranging is unchanged; the AoA comes from Bartlett/MUSIC over the
        per-antenna node snapshots instead of two-antenna phase
        comparison.
        """
        from repro.ap.music import ArrayAoaEstimator

        records = self._beat_records(
            toggled_port="both", n_chirps=n_chirps, n_rx_antennas=n_antennas
        )
        estimate = self.ap.fmcw.estimate_range(records[0])
        estimator = ArrayAoaEstimator(
            n_antennas,
            self.ap.config.rx_baseline_m,
            self.ap.config.ranging_chirp.center_hz,
        )
        aoa = estimator.estimate(records, estimate.beat_frequency_hz, method)
        distance = estimate.distance_m * (1.0 + self._slope_error)
        return LocalizationResult(
            distance_est_m=distance,
            distance_true_m=self.budget.node_distance_m(),
            angle_est_deg=aoa.angle_deg + self._aoa_bias_deg,
            angle_true_deg=self.budget.node_azimuth_deg(),
            beat_frequency_hz=estimate.beat_frequency_hz,
        )

    # --- AP-side orientation (paper §5.2a, Fig. 13b) -----------------------------------

    @obs.traced("engine.ap_orientation", count="engine.ap_orientation.trials")
    def simulate_ap_orientation(self) -> ApOrientationResult:
        """One port toggles, the AP reads orientation off the reflection
        spectrum."""
        records_rx1, _ = self._beat_records(toggled_port="A")
        estimate = self.ap.fmcw.estimate_range(records_rx1)
        orientation = self.ap.orientation.estimate(
            records_rx1, estimate.beat_frequency_hz
        )
        return ApOrientationResult(
            orientation_est_deg=orientation.orientation_deg,
            orientation_true_deg=self.budget.node_orientation_deg(),
            peak_frequency_hz=orientation.peak_frequency_hz,
        )

    # --- node-side orientation (paper §5.2b, Fig. 13a) ----------------------------------

    @obs.traced("engine.node_orientation", count="engine.node_orientation.trials")
    def simulate_node_orientation(
        self,
        n_chirps: int = 3,
        sim_rate_hz: float = 200e6,
        return_traces: bool = False,
    ):
        """Triangular chirps; the node measures its detector peak gaps.

        The detector input during a sweep is a single tone whose
        amplitude is the port's path gain at the chirp's instantaneous
        frequency — so the envelope-domain synthesis is exact.
        """
        chirp = self.ap.config.field1_chirp
        n = int(round(n_chirps * chirp.duration_s * sim_rate_hz))
        grid = simcache.chirp_grid(chirp, sim_rate_hz, n)
        sqrt_ptx = math.sqrt(self.budget.tx_power_w())
        traces = {}
        adc_streams = {}
        for port, detector in (
            (FsaPort.A, self.node.config.detector_a),
            (FsaPort.B, self.node.config.detector_b),
        ):
            amplitude = sqrt_ptx * self._downlink_amplitude(port, grid.f_inst, grid=grid)
            rf = Signal(amplitude.astype(np.complex128), sim_rate_hz, 0.0, 0.0)
            video = detector.detect(rf, rng=self.rng)
            adc_streams[port] = self.node.config.mcu.sample_detector(video)
            if return_traces:
                traces[port] = video
        estimate = self.node.orientation_estimator.estimate(
            adc_streams[FsaPort.A], adc_streams[FsaPort.B], n_chirps=n_chirps
        )
        result = NodeOrientationResult(
            orientation_est_deg=estimate.orientation_deg,
            orientation_true_deg=self.budget.node_orientation_deg(),
            orientation_a_deg=estimate.orientation_a_deg,
            orientation_b_deg=estimate.orientation_b_deg,
        )
        if return_traces:
            return result, traces
        return result

    # --- preamble Field 1 (paper §7, Fig. 8) -------------------------------------------

    @obs.traced("engine.field1", count="engine.field1.trials")
    def simulate_field1(
        self,
        announce_uplink: bool,
        sim_rate_hz: float = 200e6,
    ) -> tuple[Signal, Signal]:
        """Synthesize the node's two ADC captures of preamble Field 1.

        Three back-to-back triangular chirps announce uplink; chirp /
        silent slot_s / chirp announces downlink. Returns the port-A and
        port-B ADC streams the firmware classifies.
        """
        chirp = self.ap.config.field1_chirp
        slot_s = chirp.duration_s
        n_slot = int(round(slot_s * sim_rate_hz))
        grid = simcache.chirp_grid(chirp, sim_rate_hz, n_slot)
        sqrt_ptx = math.sqrt(self.budget.tx_power_w())
        active = (True, True, True) if announce_uplink else (True, False, True)
        streams = []
        for port, detector in (
            (FsaPort.A, self.node.config.detector_a),
            (FsaPort.B, self.node.config.detector_b),
        ):
            amp_one = sqrt_ptx * self._downlink_amplitude(port, grid.f_inst, grid=grid)
            pieces = [amp_one if on else np.zeros(n_slot) for on in active]
            amplitude = np.concatenate(pieces)
            rf = Signal(amplitude.astype(np.complex128), sim_rate_hz, 0.0, 0.0)
            video = detector.detect(rf, rng=self.rng)
            streams.append(self.node.config.mcu.sample_detector(video))
        return streams[0], streams[1]

    # --- downlink (paper §6.1–6.2, Figs. 11 & 14) ----------------------------------------

    @obs.traced("engine.downlink", count="engine.downlink.trials")
    def simulate_downlink(
        self,
        bits,
        bit_rate_bps: float = 2e6,
        pair: TonePair | None = None,
        keep_traces: bool = False,
    ) -> DownlinkResult:
        """AP sends OAQFM (or OOK at normal incidence), node decodes.

        The per-port detector input is the phase-averaged two-tone
        envelope of (own tone, leaked other tone), each gated by its bit
        stream and scaled by the frequency-exact port gain — see
        :func:`repro.dsp.envelope.two_tone_mean_envelope` for why this is
        the exact post-video-filter observable.
        """
        bits = np.asarray(list(bits), dtype=np.uint8)
        if bits.size == 0:
            raise ConfigurationError("no bits to send")
        self.node.config.validate_downlink_rate(bit_rate_bps)
        orientation = self.budget.node_orientation_deg()
        if pair is None:
            pair = self.ap.tone_pair_for_orientation(orientation)
        use_ook = pair.separation_hz < self.ap.downlink_tx.min_tone_separation_hz

        if use_ook:
            obs.counter("engine.downlink.ook_fallbacks").inc()
            return self._simulate_downlink_ook(bits, bit_rate_bps, pair, keep_traces)

        from repro.phy.oaqfm import bits_to_symbols, tone_gates

        symbols = bits_to_symbols(bits)
        symbol_rate_bps = bit_rate_bps / 2.0
        sim_rate = max(64.0 * symbol_rate_bps, 4.0 * max(
            self.node.config.detector_a.video_bandwidth_hz,
            self.node.config.detector_b.video_bandwidth_hz,
        ))
        samples_per_symbol = int(round(sim_rate / symbol_rate_bps))
        sim_rate = samples_per_symbol * symbol_rate_bps
        gate_a, gate_b = tone_gates(symbols, samples_per_symbol)
        sqrt_tone_power = math.sqrt(self.budget.tx_power_w() / 2.0)

        amp = {
            (port, f): sqrt_tone_power
            * 10.0 ** (simcache.downlink_port_gain_db(self.budget, port, f) / 20.0)
            for port in (FsaPort.A, FsaPort.B)
            for f in (pair.freq_a_hz, pair.freq_b_hz)
        }
        detector_out = {}
        for port, detector in (
            (FsaPort.A, self.node.config.detector_a),
            (FsaPort.B, self.node.config.detector_b),
        ):
            # Each port sees BOTH tones through its own pattern: its
            # aligned tone at beam gain and the other at sidelobe level.
            # The phase-averaged envelope is symmetric in the two.
            tone_a_component = gate_a * amp[(port, pair.freq_a_hz)]
            tone_b_component = gate_b * amp[(port, pair.freq_b_hz)]
            envelope = two_tone_mean_envelope(tone_a_component, tone_b_component)
            rf = Signal(envelope.astype(np.complex128), sim_rate, 0.0, 0.0)
            detector_out[port] = detector.detect(rf, rng=self.rng)

        decode = self.node.demodulator.decode(
            detector_out[FsaPort.A],
            detector_out[FsaPort.B],
            symbol_rate_bps,
            len(symbols),
        )
        padded_tx = np.concatenate([bits, np.zeros(len(symbols) * 2 - bits.size, np.uint8)])
        return DownlinkResult(
            tx_bits=padded_tx,
            rx_bits=decode.bits,
            ber=measure_ber(padded_tx, decode.bits),
            sinr_a_db=decode.sinr_a_db,
            sinr_b_db=decode.sinr_b_db,
            used_ook_fallback=False,
            pair=pair,
            detector_a=detector_out[FsaPort.A] if keep_traces else None,
            detector_b=detector_out[FsaPort.B] if keep_traces else None,
        )

    @obs.traced("engine.downlink_dense", count="engine.downlink_dense.trials")
    def simulate_downlink_dense(
        self,
        bits,
        scheme,
        symbol_rate_hz: float = 1e6,
        pair: TonePair | None = None,
    ) -> DownlinkResult:
        """Dense (multi-amplitude) OAQFM downlink — the §9.4 extension.

        Each tone carries log2(L) bits via L amplitude levels; the node
        decodes with the same two envelope detectors, slicing against a
        full-scale reference estimated from the burst. ``scheme`` is a
        :class:`repro.phy.dense_oaqfm.DenseOaqfmScheme`.
        """
        from repro.dsp.modulation import symbol_integrate
        from repro.phy.dense_oaqfm import decode_dense_levels, dense_symbol_levels

        bits = np.asarray(list(bits), dtype=np.uint8)
        if bits.size == 0:
            raise ConfigurationError("no bits to send")
        bit_rate = symbol_rate_hz * scheme.bits_per_symbol
        self.node.config.validate_downlink_rate(bit_rate)
        orientation = self.budget.node_orientation_deg()
        if pair is None:
            pair = self.ap.tone_pair_for_orientation(orientation)
        if pair.separation_hz < self.ap.downlink_tx.min_tone_separation_hz:
            raise ConfigurationError(
                "dense OAQFM needs separable tones; use OOK near normal incidence"
            )
        levels_a, levels_b = dense_symbol_levels(bits, scheme)
        n_symbols = levels_a.size
        sim_rate_target = max(64.0 * symbol_rate_hz, 4.0 * max(
            self.node.config.detector_a.video_bandwidth_hz,
            self.node.config.detector_b.video_bandwidth_hz,
        ))
        samples_per_symbol = int(round(sim_rate_target / symbol_rate_hz))
        sim_rate = samples_per_symbol * symbol_rate_hz
        amp_a_levels = np.array([scheme.amplitude_for_level(l) for l in levels_a])
        amp_b_levels = np.array([scheme.amplitude_for_level(l) for l in levels_b])
        gate_a = np.repeat(amp_a_levels, samples_per_symbol)
        gate_b = np.repeat(amp_b_levels, samples_per_symbol)
        sqrt_tone_power = math.sqrt(self.budget.tx_power_w() / 2.0)
        amp = {
            (port, f): sqrt_tone_power
            * 10.0 ** (simcache.downlink_port_gain_db(self.budget, port, f) / 20.0)
            for port in (FsaPort.A, FsaPort.B)
            for f in (pair.freq_a_hz, pair.freq_b_hz)
        }
        measured = {}
        for port, detector in (
            (FsaPort.A, self.node.config.detector_a),
            (FsaPort.B, self.node.config.detector_b),
        ):
            own_gate, other_gate = (
                (gate_a, gate_b) if port == FsaPort.A else (gate_b, gate_a)
            )
            own_freq, other_freq = (
                (pair.freq_a_hz, pair.freq_b_hz)
                if port == FsaPort.A
                else (pair.freq_b_hz, pair.freq_a_hz)
            )
            envelope = two_tone_mean_envelope(
                own_gate * amp[(port, own_freq)],
                other_gate * amp[(port, other_freq)],
            )
            rf = Signal(envelope.astype(np.complex128), sim_rate, 0.0, 0.0)
            video = detector.detect(rf, rng=self.rng)
            measured[port] = symbol_integrate(video, 1.0 / symbol_rate_hz, n_symbols)
        rx_bits = decode_dense_levels(measured[FsaPort.A], measured[FsaPort.B], scheme)
        padded_tx = np.concatenate(
            [bits, np.zeros(n_symbols * scheme.bits_per_symbol - bits.size, np.uint8)]
        )
        return DownlinkResult(
            tx_bits=padded_tx,
            rx_bits=rx_bits,
            ber=measure_ber(padded_tx, rx_bits),
            sinr_a_db=float("nan"),
            sinr_b_db=float("nan"),
            used_ook_fallback=False,
            pair=pair,
        )

    def _simulate_downlink_ook(
        self,
        bits: np.ndarray,
        bit_rate_bps: float,
        pair: TonePair,
        keep_traces: bool,
    ) -> DownlinkResult:
        """Normal-incidence fallback: one carrier_hz, both ports receive it."""
        symbol_rate_bps = bit_rate_bps
        sim_rate_target = max(64.0 * symbol_rate_bps, 160e6)
        samples_per_symbol = int(round(sim_rate_target / symbol_rate_bps))
        sim_rate = samples_per_symbol * symbol_rate_bps
        carrier_hz = 0.5 * (pair.freq_a_hz + pair.freq_b_hz)
        gate = np.repeat(bits.astype(float), samples_per_symbol)
        sqrt_ptx = math.sqrt(self.budget.tx_power_w())
        amp_a = sqrt_ptx * 10.0 ** (
            simcache.downlink_port_gain_db(self.budget, FsaPort.A, carrier_hz) / 20.0
        )
        rf = Signal((gate * amp_a).astype(np.complex128), sim_rate, 0.0, 0.0)
        video = self.node.config.detector_a.detect(rf, rng=self.rng)
        rx_bits, sinr = self.node.demodulator.decode_ook(
            video, symbol_rate_bps, bits.size
        )
        return DownlinkResult(
            tx_bits=bits,
            rx_bits=rx_bits,
            ber=measure_ber(bits, rx_bits),
            sinr_a_db=sinr,
            sinr_b_db=float("nan"),
            used_ook_fallback=True,
            pair=pair,
            detector_a=video if keep_traces else None,
            detector_b=None,
        )

    # --- uplink (paper §6.3, Fig. 15) ------------------------------------------------------

    @obs.traced("engine.uplink", count="engine.uplink.trials")
    def simulate_uplink(
        self,
        bits,
        bit_rate_bps: float = 10e6,
        pair: TonePair | None = None,
    ) -> UplinkResult:
        """Node backscatters the AP's two-tone query; AP decodes.

        Per mixed branch, the node's gated reflection of "its" tone is a
        baseband square wave; self-interference/clutter are the DC the
        receiver blocks; thermal noise enters at kT·NF over the simulated
        band and is narrowed by symbol integration. A per-symbol
        multiplicative term models TX phase noise / residual SI, capping
        the short-range SNR (``Calibration.uplink_sinr_cap_db``).
        """
        bits = np.asarray(list(bits), dtype=np.uint8)
        if bits.size == 0:
            raise ConfigurationError("no bits to send")
        orientation = self.budget.node_orientation_deg()
        if pair is None:
            pair = self.ap.tone_pair_for_orientation(orientation)
        from repro.ap.uplink_rx import PILOT_SYMBOLS, pilot_bits

        n_pilots = len(PILOT_SYMBOLS)
        tx_stream = np.concatenate([pilot_bits(), bits])
        gates = self.node.modulator.gates_for_bits(
            tx_stream, bit_rate_bps, sample_rate_hz=16.0 * bit_rate_bps / 2.0
        )
        symbol_rate_hz = gates.symbol_rate_hz
        sim_rate = gates.samples_per_symbol * symbol_rate_hz
        n = gates.gate_a.size
        n_symbols = gates.n_symbols
        sqrt_tone_power = math.sqrt(self.budget.tx_power_w() / 2.0)
        # The mixer's conversion loss attenuates signal and (LNA-dominated,
        # input-referred) noise alike, so it cancels out of the branch SNR
        # and is deliberately not applied here.
        eps = 10.0 ** (-self.calibration.uplink_sinr_cap_db / 20.0)
        noise_power = thermal_noise_power_w(
            sim_rate, self.calibration.ap_noise_figure_db
        )

        branches = {}
        for port, gate, freq in (
            (FsaPort.A, gates.gate_a, pair.freq_a_hz),
            (FsaPort.B, gates.gate_b, pair.freq_b_hz),
        ):
            amp = sqrt_tone_power * 10.0 ** (
                simcache.backscatter_gain_db(self.budget, port, freq) / 20.0
            )
            phase = self.rng.uniform(0.0, 2.0 * math.pi)
            # Per-symbol multiplicative noise (correlated within a symbol).
            mult = 1.0 + eps * np.repeat(
                self.rng.standard_normal(n_symbols), gates.samples_per_symbol
            )
            signal = amp * gate * mult[:n] * np.exp(1j * phase)
            # Static residue: clutter + SI that the DC block removes.
            dc = 10.0 * amp
            sigma = math.sqrt(noise_power / 2.0)
            noise = sigma * (
                self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)
            )
            branches[port] = Signal(signal + dc + noise, sim_rate, 0.0, 0.0)

        decode = self.ap.uplink_rx.decode(
            branches[FsaPort.A],
            branches[FsaPort.B],
            symbol_rate_hz,
            n_symbols,
            n_pilot_symbols=n_pilots,
        )
        n_data_symbols = n_symbols - n_pilots
        padded_tx = np.concatenate(
            [bits, np.zeros(n_data_symbols * 2 - bits.size, np.uint8)]
        )
        return UplinkResult(
            tx_bits=padded_tx,
            rx_bits=decode.bits,
            ber=measure_ber(padded_tx, decode.bits),
            snr_a_db=decode.snr_a_db,
            snr_b_db=decode.snr_b_db,
            pair=pair,
        )
