"""End-to-end MilBack simulator: AP ↔ channel ↔ node.

The engine synthesizes exactly the observables each receiver in the real
testbed digitizes — the dechirped beat burst at the AP's scope, envelope
voltages at the node's MCU, post-mixer baseband at the AP's uplink
branches — from the scene geometry, the antenna models and the link
budget, then runs the same estimation/demodulation code a deployment
would. RF-rate waveforms are never materialized: each receiver's
observable has an exact complex-baseband or envelope-domain form (see
the per-method notes), which is what keeps full evaluation sweeps at
laptop scale.

Each receive step exists once, as a module function the SDM slots of
:mod:`repro.sim.multinode` call too: :func:`link_budget` builds a node's
budget, :func:`detect_symbols` runs the node's detectors over per-symbol
envelopes, and :func:`receive_uplink` synthesizes and decodes the AP's
two mixed uplink branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro import faults, obs
from repro.antennas.array import aoa_phase_rad
from repro.antennas.dual_port_fsa import TonePair
from repro.antennas.fsa import FsaPort
from repro.ap.access_point import AccessPoint
from repro.ap.uplink_rx import PILOT_SYMBOLS, pilot_bits
from repro.channel.scene import Scene2D
from repro.constants import SPEED_OF_LIGHT
from repro.dsp.envelope import two_tone_mean_envelope
from repro.dsp.noise import thermal_noise_power_w
from repro.dsp.signal import Signal
from repro.errors import ConfigurationError, LocalizationError
from repro.kernels import burst as burst_kernel
from repro.node.modulator import GatePair
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
    "detect_symbols",
    "link_budget",
    "receive_uplink",
    "uplink_gates",
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


# --- receive steps, shared with the SDM slots ----------------------------------------


def link_budget(
    scene: Scene2D,
    node: BackscatterNode,
    ap: AccessPoint,
    calibration: Calibration,
    node_id: str | None = None,
    atmosphere=None,
) -> LinkBudget:
    """The link budget of one node of ``scene``: through the node's FSA
    and switch, the AP's horns and at the AP's TX power."""
    return LinkBudget(
        scene=scene,
        fsa=node.fsa,
        tx_horn=ap.config.tx_horn,
        rx_horn=ap.config.rx_horn,
        switch=node.config.switch_a,
        calibration=calibration,
        tx_power_dbm=ap.config.tx_power_dbm,
        node_id=node_id,
        atmosphere=atmosphere,
    )


def detect_symbols(
    node: BackscatterNode,
    rng: np.random.Generator,
    envelopes: Sequence[np.ndarray],
    symbol_rate_hz: float,
) -> tuple[Signal, ...]:
    """The node's detector outputs for per-symbol input envelopes.

    ``envelopes`` holds one per-symbol envelope per port, port A first;
    a single envelope drives detector A alone. Each is repeated onto the
    detector-input grid and detected, port A first. The grid has at
    least 64 samples per symbol, and at least four times the wider video
    bandwidth of the node's two detectors, so the detector's own noise
    and rise time are resolved; its rate is a whole number of samples
    per symbol.
    """
    detectors = (node.config.detector_a, node.config.detector_b)
    target_hz = max(64.0 * symbol_rate_hz, 4.0 * max(
        detector.video_bandwidth_hz for detector in detectors
    ))
    samples_per_symbol = int(round(target_hz / symbol_rate_hz))
    sim_rate = samples_per_symbol * symbol_rate_hz
    return tuple(
        detector.detect(
            Signal(np.repeat(envelope, samples_per_symbol), sim_rate, 0.0, 0.0), rng=rng
        )
        for detector, envelope in zip(detectors, envelopes)
    )


def uplink_gates(node: BackscatterNode, bits: np.ndarray, bit_rate_bps: float) -> GatePair:
    """The node's switch gates for one uplink burst: the pilot prefix,
    then ``bits``, at 16 samples per symbol."""
    tx_stream = np.concatenate([pilot_bits(), bits])
    return node.modulator.gates_for_bits(
        tx_stream, bit_rate_bps, sample_rate_hz=16.0 * bit_rate_bps / 2.0
    )


def receive_uplink(
    rng: np.random.Generator,
    budget: LinkBudget,
    ap: AccessPoint,
    gates: GatePair,
    bits: np.ndarray,
    pair: TonePair,
    leaks: Mapping[str, Sequence[tuple[float, np.ndarray]]] | None = None,
) -> UplinkResult:
    """The AP's two mixed branches while the node reflects through
    ``gates`` (from :func:`uplink_gates` for ``bits``), decoded.

    Per mixed branch, the node's gated reflection of "its" tone is a
    baseband square wave; self-interference/clutter are the DC the
    receiver blocks; thermal noise enters at kT·NF over the simulated
    band and is narrowed by symbol integration. A per-symbol
    multiplicative term models TX phase noise / residual SI, capping
    the short-range SNR (``Calibration.uplink_sinr_cap_db``).

    ``leaks`` maps a port to the ``(amplitude, gate)`` of each foreign
    reflection on its branch — an SDM slot's other nodes; a lone node
    has none. Each branch, port A first, draws its carrier phase, its
    per-symbol normals, one phase per leak, then its noise.
    """
    cal = budget.calibration
    n = gates.gate_a.size
    sim_rate = gates.samples_per_symbol * gates.symbol_rate_hz
    sqrt_tone_power = math.sqrt(budget.tx_power_w() / 2.0)
    # The mixer's conversion loss attenuates signal and (LNA-dominated,
    # input-referred) noise alike, so it cancels out of the branch SNR
    # and is deliberately not applied here.
    eps = 10.0 ** (-cal.uplink_sinr_cap_db / 20.0)
    sigma = math.sqrt(thermal_noise_power_w(sim_rate, cal.ap_noise_figure_db) / 2.0)
    branches = []
    for port, gate, freq in (
        (FsaPort.A, gates.gate_a, pair.freq_a_hz),
        (FsaPort.B, gates.gate_b, pair.freq_b_hz),
    ):
        amp = sqrt_tone_power * 10.0 ** (
            simcache.backscatter_gain_db(budget, port, freq) / 20.0
        )
        phase = rng.uniform(0.0, 2.0 * math.pi)
        # Per-symbol multiplicative noise (correlated within a symbol).
        mult = 1.0 + eps * np.repeat(
            rng.standard_normal(gates.n_symbols), gates.samples_per_symbol
        )
        # Static residue: clutter + SI that the DC block removes.
        samples = amp * gate * mult[:n] * np.exp(1j * phase) + 10.0 * amp
        for leak_amp, leak_gate in (leaks or {}).get(port, ()):
            leak_phase = rng.uniform(0.0, 2.0 * math.pi)
            m = min(n, leak_gate.size)
            samples[:m] = samples[:m] + leak_amp * leak_gate[:m] * np.exp(1j * leak_phase)
        noise = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        branches.append(Signal(samples + noise, sim_rate, 0.0, 0.0))

    decode = ap.uplink_rx.decode(
        *branches,
        gates.symbol_rate_hz,
        gates.n_symbols,
        n_pilot_symbols=len(PILOT_SYMBOLS),
    )
    padded_tx = np.concatenate([bits, np.zeros(decode.bits.size - bits.size, np.uint8)])
    return UplinkResult(
        tx_bits=padded_tx,
        rx_bits=decode.bits,
        ber=measure_ber(padded_tx, decode.bits),
        snr_a_db=decode.snr_a_db,
        snr_b_db=decode.snr_b_db,
        pair=pair,
    )


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
        # Per-run instrument systematics (constant within one measurement
        # run, fresh across runs): generator slope miscalibration and RX
        # baseline phase-center offset.
        cal = self.calibration
        self._slope_error = float(self.rng.normal(0.0, cal.slope_error_sigma))
        self._aoa_bias_deg = float(self.rng.normal(0.0, cal.aoa_bias_sigma_deg))
        # The instance's own ripple realization (control points per port,
        # drawn on the port's first use) and a memo of the port amplitudes
        # it shapes, keyed by (passes, port, grid key, downlink switch
        # state). The cross-instance RNG-free terms come from one handle
        # on the scene's repro.sim.cache entry, resolved here.
        self._ripple_tables: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._amplitude_memo: dict[tuple, np.ndarray] = {}
        self.budget = link_budget(
            scene, self.node, self.ap, self.calibration, node_id, atmosphere
        )
        self._terms: simcache.SceneTerms = simcache.scene_terms(self.budget)

    # --- FSA gain ripple ------------------------------------------------------------

    def _gain_ripple_db(self, port: str, grid: simcache.ChirpGrid) -> np.ndarray:
        """Slowly varying random gain ripple across a chirp grid for one port.

        Drawn once per simulator instance (one physical measurement run):
        Gaussian control points every ``fsa_ripple_correlation_hz``,
        linearly interpolated. Models fabrication tolerance and residual
        multipath standing waves — the error floor of the paper's
        orientation experiments.

        The control values come from the trial RNG, so they can never be
        shared across instances; their frequencies are the scene's. The
        interpolation onto a grid is not memoized: it only runs on a miss
        of :meth:`_port_amplitude`'s memo, which already covers each
        ``(passes, port, grid)`` once.
        """
        cal = self.calibration
        if cal.fsa_gain_ripple_db <= 0:
            return np.zeros_like(grid.f_inst)
        if port not in self._ripple_tables:
            ctrl_f = self._terms.ripple_control_hz(self.budget)
            ctrl_v = cal.fsa_gain_ripple_db * self.rng.standard_normal(ctrl_f.size)
            self._ripple_tables[port] = (ctrl_f, ctrl_v)
        ctrl_f, ctrl_v = self._ripple_tables[port]
        return np.interp(grid.f_inst, ctrl_f, ctrl_v)

    # --- vectorized budget helpers ------------------------------------------------

    def _port_amplitude(self, port: str, grid: simcache.ChirpGrid, passes: int) -> np.ndarray:
        """Field gain through one FSA port across a chirp grid, memoized.

        The scene's gain base (:meth:`SceneTerms.gain_base_db`) plus this
        instance's ripple, crossed ``passes`` times: ``passes=2`` is the
        node's reflection, ``passes=1`` the downlink into the port's
        detector, which reads the switch state.
        """
        state = self.budget.switch.state if passes == 1 else None
        key = (passes, port, grid.key, state)
        cached = self._amplitude_memo.get(key)
        if cached is not None:
            return cached
        base_db = self._terms.gain_base_db(self.budget, port, grid, passes)
        ripple = self._gain_ripple_db(port, grid)
        gain_db = base_db + passes * ripple
        amplitude = simcache.frozen_array(np.power(10.0, gain_db / 20.0))
        self._amplitude_memo[key] = amplitude
        return amplitude

    # --- FMCW beat-burst synthesis --------------------------------------------------

    @obs.traced("engine.beat_records")
    def beat_burst(
        self,
        toggled_port: str = "both",
        n_chirps: int | None = None,
        steer_azimuth_deg: float | None = None,
        radial_velocity_mps: float = 0.0,
        n_rx_antennas: int = 2,
    ) -> np.ndarray:
        """Synthesize the dechirped (beat) burst the RX chains capture.

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
        array upgrade §9.2 points at).

        Returns the ``(n_chirps, n_rx_antennas, n)`` complex burst at
        ``ApConfig.beat_sample_rate_hz``, as the burst kernel made it and
        the fault hook left it; every AP estimator reads this array.
        """
        cfg = self.ap.config
        chirp = cfg.ranging_chirp
        if n_chirps is None:
            n_chirps = cfg.n_ranging_chirps
        if n_chirps < 1:
            raise ConfigurationError("need at least one chirp")
        if n_rx_antennas < 1:
            raise ConfigurationError("need at least one RX antenna")
        ports = {"both": (FsaPort.A, FsaPort.B), "A": (FsaPort.A,), "B": (FsaPort.B,)}
        if toggled_port not in ports:
            raise ConfigurationError("toggled_port must be 'both', 'A' or 'B'")
        obs.counter("engine.chirps.synthesized").inc(n_chirps)
        fs_hz = cfg.beat_sample_rate_hz
        # Scene-invariant terms (time grid, static clutter field, gain
        # bases, node and mirror tones, horn roll-off) come from the
        # scene's repro.sim.cache entry — computed once per scene
        # configuration, reused by every chirp of every trial.
        grid = simcache.chirp_grid(chirp, fs_hz)
        terms = self._terms
        baseline_m = cfg.rx_baseline_m

        # Static paths: clutter + self-interference (identical every chirp).
        node_azimuth = self.budget.node_azimuth_deg()
        pointing = node_azimuth if steer_azimuth_deg is None else steer_azimuth_deg
        static = terms.static_field(self.budget, grid, pointing, n_rx_antennas, baseline_m)
        # Horn roll-off on the node's two-way path when the scan is not
        # pointed at it (unity when steered at the node), and the FSA
        # ground plane's mirror image behind it (Fig. 13b artifact).
        steer_factor, mirror_term = terms.steer_terms(self.budget, grid, pointing - node_azimuth)

        # Node path: FSA-shaped amplitude, toggled per chirp.
        node_rx2_phase = aoa_phase_rad(node_azimuth, baseline_m, chirp.center_hz)
        node_tone = terms.node_tone(self.budget, grid)
        node_shape = np.zeros(grid.n, dtype=np.complex128)
        for port in ports[toggled_port]:
            node_shape += self._port_amplitude(port, grid, passes=2) * node_tone
        node_shape *= math.sqrt(self.budget.tx_power_w()) * steer_factor

        # The mirror is only partially modulated by the switching; each
        # burst draws its phase.
        mirror_phase = self.rng.uniform(0.0, 2.0 * math.pi)
        mirror_shape = mirror_term * np.exp(1j * mirror_phase)

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
        # cancellation residual, then per-antenna noise), then the burst
        # comes out of one (n_chirps, n_rx, n) computation — bitwise
        # identical to the per-record loop the test oracle keeps.
        params = burst_kernel.BurstParams(
            static=static,
            node_shape=node_shape,
            mirror_shape=mirror_shape,
            t=grid.t,
            slope_hz_per_s=chirp.slope_hz_per_s,
            start_hz=chirp.start_hz,
            on_amp=on_amp,
            off_amp=off_amp,
            mirror_leak=leak,
            rx_phase_step_rad=node_rx2_phase,
            doppler_step_rad=doppler_step,
            noise_sigma=math.sqrt(noise_power / 2.0),
        )
        # Background subtraction cancels the static paths only down to
        # clutter_cancellation_db: the kernel draws a fresh band-limited
        # residual per chirp.
        cal = self.calibration
        variates = burst_kernel.draw_variates(
            self.rng,
            n_chirps,
            n_rx_antennas,
            grid.n,
            cal.trigger_jitter_s,
            residual_sigma=10.0 ** (-cal.clutter_cancellation_db / 20.0),
            residual_alpha=1.0 - math.exp(
                -2.0 * math.pi * cal.cancellation_residual_bandwidth_hz / fs_hz
            ),
        )
        return faults.corrupt_burst(burst_kernel.synthesize_burst(params, variates))

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
        chain = self.beat_burst(
            toggled_port="both",
            n_chirps=n_chirps,
            steer_azimuth_deg=steer_azimuth_deg,
        )[:, 0]
        fs_hz = self.ap.config.beat_sample_rate_hz
        estimate = self.ap.fmcw.estimate_range(chain, fs_hz)
        freqs, spectra = estimate.spectrum.frequencies_hz, estimate.chirp_spectra
        values = spectra[:, np.argmin(np.abs(freqs - estimate.beat_frequency_hz))]
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

    def _location_fix(self, estimate, angle_deg: float) -> LocalizationResult:
        """A range estimate and an AoA, with this run's systematics applied.

        The processor divides by the *assumed* slope; a generator slope
        off by ε yields a distance off by ε·d. Likewise the AoA carries
        the run's baseline-calibration bias.
        """
        return LocalizationResult(
            distance_est_m=estimate.distance_m * (1.0 + self._slope_error),
            distance_true_m=self.budget.node_distance_m(),
            angle_est_deg=angle_deg + self._aoa_bias_deg,
            angle_true_deg=self.budget.node_azimuth_deg(),
            beat_frequency_hz=estimate.beat_frequency_hz,
        )

    def _two_horn_fix(self, burst: np.ndarray) -> LocalizationResult:
        """FMCW range off the first RX horn plus two-horn phase AoA."""
        fs_hz = self.ap.config.beat_sample_rate_hz
        estimate = self.ap.fmcw.estimate_range(burst[:, 0], fs_hz)
        aoa = self.ap.aoa.estimate(burst, fs_hz, estimate)
        return self._location_fix(estimate, aoa.angle_deg)

    @obs.traced("engine.localization", count="engine.localization.trials")
    def simulate_localization(self) -> LocalizationResult:
        """FMCW ranging + two-antenna AoA, one full Field-2 burst."""
        return self._two_horn_fix(self.beat_burst(toggled_port="both"))

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
        samples = self.beat_burst(
            toggled_port="both", radial_velocity_mps=radial_velocity_mps
        )
        center_hz = self.ap.config.ranging_chirp.center_hz
        port_power_dbm = (
            self.budget.tx_power_dbm
            + self._terms.backscatter_db(self.budget, FsaPort.A, center_hz),
            self.budget.tx_power_dbm
            + self._terms.backscatter_db(self.budget, FsaPort.B, center_hz),
        )
        envelope_mean_v = tuple(
            float(np.mean(np.abs(samples[:, m, :]))) for m in range(samples.shape[1])
        )
        localization: LocalizationResult | None
        try:
            localization = self._two_horn_fix(samples)
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

        chain = self.beat_burst(
            toggled_port="both",
            n_chirps=n_chirps,
            radial_velocity_mps=radial_velocity_mps,
        )[:, 0]
        fs_hz = self.ap.config.beat_sample_rate_hz
        estimate = self.ap.fmcw.estimate_range(chain, fs_hz)
        doppler = DopplerEstimator(
            self.ap.config.chirp_repetition_interval_s,
            self.ap.config.ranging_chirp.center_hz,
        )
        velocity = doppler.estimate(chain, fs_hz, estimate.beat_frequency_hz)
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

        burst = self.beat_burst(
            toggled_port="both", n_chirps=n_chirps, n_rx_antennas=n_antennas
        )
        fs_hz = self.ap.config.beat_sample_rate_hz
        estimate = self.ap.fmcw.estimate_range(burst[:, 0], fs_hz)
        estimator = ArrayAoaEstimator(
            n_antennas,
            self.ap.config.rx_baseline_m,
            self.ap.config.ranging_chirp.center_hz,
        )
        aoa = estimator.estimate(burst, fs_hz, estimate.beat_frequency_hz, method)
        return self._location_fix(estimate, aoa.angle_deg)

    # --- AP-side orientation (paper §5.2a, Fig. 13b) -----------------------------------

    @obs.traced("engine.ap_orientation", count="engine.ap_orientation.trials")
    def simulate_ap_orientation(self) -> ApOrientationResult:
        """One port toggles, the AP reads orientation off the reflection
        spectrum."""
        chain = self.beat_burst(toggled_port="A")[:, 0]
        fs_hz = self.ap.config.beat_sample_rate_hz
        estimate = self.ap.fmcw.estimate_range(chain, fs_hz)
        orientation = self.ap.orientation.estimate(
            chain, fs_hz, estimate.beat_frequency_hz
        )
        return ApOrientationResult(
            orientation_est_deg=orientation.orientation_deg,
            orientation_true_deg=self.budget.node_orientation_deg(),
            peak_frequency_hz=orientation.peak_frequency_hz,
        )

    # --- node-side orientation (paper §5.2b, Fig. 13a) ----------------------------------

    def _field1_captures(
        self, grid: simcache.ChirpGrid, lit: tuple[bool, ...]
    ) -> tuple[tuple[Signal, Signal], ...]:
        """Each port's detector video and ADC stream, port A first, while
        the Field-1 chirp sweeps ``grid`` once per lit slot of ``lit`` and
        the unlit slots stay silent.

        The detector input during a sweep is a single tone whose
        amplitude is the port's path gain at the chirp's instantaneous
        frequency — so the envelope-domain synthesis is exact. Each port
        is detected and then sampled before the next port, the order in
        which an armed fault plan's detector and ADC hooks draw.
        """
        sqrt_ptx = math.sqrt(self.budget.tx_power_w())
        captures = []
        for port, detector in (
            (FsaPort.A, self.node.config.detector_a),
            (FsaPort.B, self.node.config.detector_b),
        ):
            sweep = sqrt_ptx * self._port_amplitude(port, grid, passes=1)
            amplitude = np.concatenate([sweep if on else np.zeros(grid.n) for on in lit])
            video = detector.detect(Signal(amplitude, grid.fs_hz, 0.0, 0.0), rng=self.rng)
            captures.append((video, self.node.config.mcu.sample_detector(video)))
        return tuple(captures)

    def node_orientation_fix(
        self, adc_a: Signal, adc_b: Signal, n_chirps: int
    ) -> NodeOrientationResult:
        """The node's orientation estimate from its two ADC captures of
        ``n_chirps`` triangular chirps, against ground truth."""
        estimate = self.node.orientation_estimator.estimate(adc_a, adc_b, n_chirps=n_chirps)
        return NodeOrientationResult(
            orientation_est_deg=estimate.orientation_deg,
            orientation_true_deg=self.budget.node_orientation_deg(),
            orientation_a_deg=estimate.orientation_a_deg,
            orientation_b_deg=estimate.orientation_b_deg,
        )

    @obs.traced("engine.node_orientation", count="engine.node_orientation.trials")
    def simulate_node_orientation(
        self,
        n_chirps: int = 3,
        sim_rate_hz: float = 200e6,
        return_traces: bool = False,
    ):
        """Triangular chirps; the node measures its detector peak gaps."""
        chirp = self.ap.config.field1_chirp
        n = int(round(n_chirps * chirp.duration_s * sim_rate_hz))
        (video_a, adc_a), (video_b, adc_b) = self._field1_captures(
            simcache.chirp_grid(chirp, sim_rate_hz, n), (True,)
        )
        result = self.node_orientation_fix(adc_a, adc_b, n_chirps)
        if return_traces:
            return result, {FsaPort.A: video_a, FsaPort.B: video_b}
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
        n_slot = int(round(chirp.duration_s * sim_rate_hz))
        lit = (True, True, True) if announce_uplink else (True, False, True)
        (_, adc_a), (_, adc_b) = self._field1_captures(
            simcache.chirp_grid(chirp, sim_rate_hz, n_slot), lit
        )
        return adc_a, adc_b

    # --- downlink (paper §6.1–6.2, Figs. 11 & 14) ----------------------------------------

    def _detect_two_tones(
        self,
        gate_a: np.ndarray,
        gate_b: np.ndarray,
        pair: TonePair,
        symbol_rate_hz: float,
    ) -> tuple[Signal, ...]:
        """Each port's detector output while the tones of ``pair`` carry
        the per-symbol amplitudes ``gate_a`` and ``gate_b``.

        Each tone carries half the TX power. Each port sees BOTH tones
        through its own pattern, at the frequency-exact port gain: its
        aligned tone at beam gain and the other at sidelobe level. The
        detector input is their phase-averaged two-tone envelope — see
        :func:`repro.dsp.envelope.two_tone_mean_envelope` for why this is
        the exact post-video-filter observable — which is symmetric in
        the two.
        """
        sqrt_tone_power = math.sqrt(self.budget.tx_power_w() / 2.0)

        def tone_amplitude(port: str, freq_hz: float) -> float:
            return sqrt_tone_power * 10.0 ** (
                simcache.downlink_port_gain_db(self.budget, port, freq_hz) / 20.0
            )

        envelopes = [
            two_tone_mean_envelope(
                gate_a * tone_amplitude(port, pair.freq_a_hz),
                gate_b * tone_amplitude(port, pair.freq_b_hz),
            )
            for port in (FsaPort.A, FsaPort.B)
        ]
        return detect_symbols(self.node, self.rng, envelopes, symbol_rate_hz)

    @obs.traced("engine.downlink", count="engine.downlink.trials")
    def simulate_downlink(
        self,
        bits,
        bit_rate_bps: float = 2e6,
        pair: TonePair | None = None,
        keep_traces: bool = False,
    ) -> DownlinkResult:
        """AP sends OAQFM (or OOK at normal incidence), node decodes.

        Each tone is gated by its bit stream; the gates are constant
        within a symbol, so the detector input is evaluated once per
        symbol (:meth:`_detect_two_tones`).
        """
        bits = np.asarray(list(bits), dtype=np.uint8)
        if bits.size == 0:
            raise ConfigurationError("no bits to send")
        self.node.config.validate_downlink_rate(bit_rate_bps)
        orientation = self.budget.node_orientation_deg()
        if pair is None:
            pair = self.ap.tone_pair_for_orientation(orientation)
        if pair.separation_hz < self.ap.downlink_tx.min_tone_separation_hz:
            obs.counter("engine.downlink.ook_fallbacks").inc()
            return self._simulate_downlink_ook(bits, bit_rate_bps, pair, keep_traces)

        from repro.phy.oaqfm import bits_to_symbols, tone_gates

        symbols = bits_to_symbols(bits)
        symbol_rate_bps = bit_rate_bps / 2.0
        detector_a, detector_b = self._detect_two_tones(
            *tone_gates(symbols, 1), pair, symbol_rate_bps
        )
        decode = self.node.demodulator.decode(
            detector_a, detector_b, symbol_rate_bps, len(symbols)
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
            detector_a=detector_a if keep_traces else None,
            detector_b=detector_b if keep_traces else None,
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
        videos = self._detect_two_tones(
            np.array([scheme.amplitude_for_level(l) for l in levels_a]),
            np.array([scheme.amplitude_for_level(l) for l in levels_b]),
            pair,
            symbol_rate_hz,
        )
        measured_a, measured_b = (
            symbol_integrate(video, 1.0 / symbol_rate_hz, n_symbols) for video in videos
        )
        rx_bits = decode_dense_levels(measured_a, measured_b, scheme)
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
        """Normal-incidence fallback: one carrier_hz, both ports receive it.

        One bit per symbol, on the same detector-input grid as OAQFM.
        """
        carrier_hz = 0.5 * (pair.freq_a_hz + pair.freq_b_hz)
        sqrt_ptx = math.sqrt(self.budget.tx_power_w())
        amp_a = sqrt_ptx * 10.0 ** (
            simcache.downlink_port_gain_db(self.budget, FsaPort.A, carrier_hz) / 20.0
        )
        (video,) = detect_symbols(self.node, self.rng, (bits * amp_a,), bit_rate_bps)
        rx_bits, sinr = self.node.demodulator.decode_ook(video, bit_rate_bps, bits.size)
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
        """Node backscatters the AP's two-tone query; AP decodes
        (:func:`receive_uplink`)."""
        bits = np.asarray(list(bits), dtype=np.uint8)
        if bits.size == 0:
            raise ConfigurationError("no bits to send")
        orientation = self.budget.node_orientation_deg()
        if pair is None:
            pair = self.ap.tone_pair_for_orientation(orientation)
        gates = uplink_gates(self.node, bits, bit_rate_bps)
        return receive_uplink(self.rng, self.budget, self.ap, gates, bits, pair)
