"""Ablations of MilBack's design choices (DESIGN.md §5).

Each ablation removes or varies one mechanism and measures the
consequence the paper's design argument predicts:

1. Background subtraction off → ranging locks onto clutter.
2. FSA element count → beamwidth/gain → link SINR and range.
3. Switch toggle rate → uplink rate ceiling.
4. Detector video bandwidth → downlink rate ceiling.
5. OAQFM vs single-tone OOK → bits per symbol.
6. Node peak refinement (firmware upgrade) → orientation accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.analysis.report import render_table
from repro.antennas.fsa import FsaDesign
from repro.channel.scene import Scene2D
from repro.dsp.fftutils import Spectrum, interpolated_peak
from repro.hardware.envelope_detector import EnvelopeDetector
from repro.hardware.switch import SpdtSwitch
from repro.node.config import NodeConfig
from repro.node.node import BackscatterNode
from repro.node.orientation import NodeOrientationEstimator
from repro.sim.engine import MilBackSimulator

__all__ = [
    "run_background_subtraction_ablation",
    "run_fsa_size_ablation",
    "run_switch_rate_ablation",
    "run_detector_bandwidth_ablation",
    "run_modulation_ablation",
    "run_peak_refinement_ablation",
    "run_chirp_bandwidth_ablation",
    "run_subtraction_burst_ablation",
    "main",
    "BackgroundSubtractionAblation",  # milback: disable=ML014 — public experiment result type
]


@dataclass(frozen=True)
class BackgroundSubtractionAblation:
    """Ranging with and without the paper's §5.1 clutter cancellation."""

    distance_true_m: float
    error_with_subtraction_m: float
    error_without_subtraction_m: float


def run_background_subtraction_ablation(
    distance_m: float = 4.0,
    orientation_deg: float = 10.0,
    seed: int = 51,
) -> BackgroundSubtractionAblation:
    """Range once with subtraction, once off the raw single-chirp
    spectrum (which the back wall dominates)."""
    scene = Scene2D.single_node(distance_m, orientation_deg=orientation_deg)
    sim = MilBackSimulator(scene, seed=seed)
    chain = sim.beat_burst(toggled_port="both")[:, 0]
    fs_hz = sim.ap.config.beat_sample_rate_hz
    processor = sim.ap.fmcw

    estimate = processor.estimate_range(chain, fs_hz)
    peak = interpolated_peak(
        Spectrum(estimate.spectrum.frequencies_hz, estimate.chirp_spectra[0]),
        min_hz=processor.distance_to_beat_hz(0.3),
        max_hz=processor.distance_to_beat_hz(
            processor.beat_to_distance_m(fs_hz / 2.0) * 0.95
        ),
    )
    without_sub = processor.beat_to_distance_m(peak.frequency_hz)

    return BackgroundSubtractionAblation(
        distance_true_m=distance_m,
        error_with_subtraction_m=abs(estimate.distance_m - distance_m),
        error_without_subtraction_m=abs(without_sub - distance_m),
    )


def run_fsa_size_ablation(
    element_counts=(8, 16, 24, 32),
    distance_m: float = 6.0,
    orientation_deg: float = 10.0,
    seed: int = 52,
) -> list[dict[str, object]]:
    """Larger FSAs buy narrower beams; gain scales with aperture, which
    the paper's conclusion names as the range lever."""
    rows = []
    for n in element_counts:
        import math

        # Peak gain tracks aperture (10·log10 N relative to the 24-element
        # reference design's 13 dBi).
        gain = 13.0 + 10.0 * math.log10(n / 24.0)
        design = FsaDesign.from_scan(n_elements=n, peak_gain_dbi=gain)
        node = BackscatterNode(NodeConfig(fsa_design=design))
        sim = MilBackSimulator(
            Scene2D.single_node(distance_m, orientation_deg=orientation_deg),
            node=node,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 128)
        downlink = sim.simulate_downlink(bits, 2e6)
        uplink = sim.simulate_uplink(bits, 10e6)
        rows.append(
            {
                "Elements": n,
                "Peak gain (dBi)": round(gain, 1),
                "Beamwidth (deg)": round(node.fsa.port_a.beamwidth_deg(28e9), 2),
                "Downlink SINR (dB)": round(downlink.sinr_db, 1),
                "Uplink SNR (dB)": round(uplink.snr_db, 1),
            }
        )
    return rows


def run_switch_rate_ablation(
    toggle_rates_hz=(5e6, 20e6, 80e6, 320e6),
) -> list[dict[str, object]]:
    """The uplink rate ceiling is 2 × per-port toggle rate (§9.5)."""
    rows = []
    for rate in toggle_rates_hz:
        switch = SpdtSwitch(max_toggle_rate_hz=rate)
        config = NodeConfig(switch_a=switch, switch_b=SpdtSwitch(max_toggle_rate_hz=rate))
        rows.append(
            {
                "Switch toggle rate (MHz)": rate / 1e6,
                "Max uplink rate (Mbps)": config.max_uplink_bit_rate_bps() / 1e6,
            }
        )
    return rows


def run_detector_bandwidth_ablation(
    bandwidths_hz=(10e6, 40e6, 100e6, 400e6),
) -> list[dict[str, object]]:
    """The downlink rate ceiling follows the detector video bandwidth
    (§9.4: 'one can increase the data-rate by using faster envelope
    detector')."""
    rows = []
    for bw in bandwidths_hz:
        detector = EnvelopeDetector(video_bandwidth_hz=bw)
        config = NodeConfig(detector_a=detector, detector_b=detector)
        rows.append(
            {
                "Video bandwidth (MHz)": bw / 1e6,
                "Rise time (ns)": round(detector.rise_time_s() * 1e9, 2),
                "Max downlink rate (Mbps)": config.max_downlink_bit_rate_bps() / 1e6,
            }
        )
    return rows


def run_modulation_ablation(
    distance_m: float = 3.0,
    orientation_deg: float = 10.0,
    symbol_rate_hz: float = 1e6,
    n_bits: int = 128,
    seed: int = 53,
) -> list[dict[str, object]]:
    """OAQFM (dual tone) vs single-tone OOK at equal symbol rate:
    the dual-port design doubles bits per symbol."""
    scene = Scene2D.single_node(distance_m, orientation_deg=orientation_deg)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_bits)
    rows = []

    sim = MilBackSimulator(scene, seed=seed)
    oaqfm = sim.simulate_downlink(bits, bit_rate_bps=2.0 * symbol_rate_hz)
    rows.append(
        {
            "Scheme": "OAQFM (2 tones)",
            "Bits/symbol": 2,
            "Throughput (Mbps)": 2.0 * symbol_rate_hz / 1e6,
            "SINR (dB)": round(oaqfm.sinr_db, 1),
            "BER": oaqfm.ber,
        }
    )

    sim = MilBackSimulator(scene, seed=seed)
    pair = sim.ap.tone_pair_for_orientation(orientation_deg)
    from repro.antennas.dual_port_fsa import TonePair

    degenerate = TonePair(pair.freq_a_hz, pair.freq_a_hz)
    ook = sim.simulate_downlink(bits, bit_rate_bps=symbol_rate_hz, pair=degenerate)
    rows.append(
        {
            "Scheme": "Single-tone OOK",
            "Bits/symbol": 1,
            "Throughput (Mbps)": symbol_rate_hz / 1e6,
            "SINR (dB)": round(ook.sinr_db, 1),
            "BER": ook.ber,
        }
    )
    return rows


def run_peak_refinement_ablation(
    orientations_deg=(-15.0, -5.0, 5.0, 15.0),
    n_trials: int = 10,
    distance_m: float = 2.0,
    seed: int = 54,
) -> list[dict[str, object]]:
    """Firmware upgrade ablation: plain argmax (MSP430-realistic) versus
    parabolic sub-sample peak refinement at the node."""
    rows = []
    for refine in (False, True):
        errors = []
        for i, orientation in enumerate(orientations_deg):
            for t in range(n_trials):
                scene = Scene2D.single_node(distance_m, orientation_deg=orientation)
                sim = MilBackSimulator(scene, seed=seed + 1000 * i + t)
                sim.node.orientation_estimator = NodeOrientationEstimator(
                    sim.node.fsa, refine_peaks=refine
                )
                errors.append(abs(sim.simulate_node_orientation().error_deg))
        rows.append(
            {
                "Peak detection": "parabolic" if refine else "argmax (firmware)",
                "Mean error (deg)": round(float(np.mean(errors)), 3),
                "P90 error (deg)": round(float(np.percentile(errors, 90)), 3),
            }
        )
    return rows


@obs.traced("experiment.ablations", count="experiment.runs", experiment="ablations")
def main() -> str:
    """Run and render every ablation."""
    sections = []
    bg = run_background_subtraction_ablation()
    sections.append(
        render_table(
            [
                {
                    "Background subtraction": "on",
                    "Ranging error (m)": round(bg.error_with_subtraction_m, 4),
                },
                {
                    "Background subtraction": "off",
                    "Ranging error (m)": round(bg.error_without_subtraction_m, 4),
                },
            ],
            title="Ablation 1: background subtraction (node at 4 m, cluttered room)",
        )
    )
    sections.append(
        render_table(run_fsa_size_ablation(), title="Ablation 2: FSA element count")
    )
    sections.append(
        render_table(run_switch_rate_ablation(), title="Ablation 3: switch toggle rate")
    )
    sections.append(
        render_table(
            run_detector_bandwidth_ablation(),
            title="Ablation 4: envelope-detector video bandwidth",
        )
    )
    sections.append(
        render_table(run_modulation_ablation(), title="Ablation 5: OAQFM vs OOK")
    )
    sections.append(
        render_table(
            run_peak_refinement_ablation(),
            title="Ablation 6: node peak detection firmware",
        )
    )
    sections.append(
        render_table(
            run_chirp_bandwidth_ablation(),
            title="Ablation 7: FMCW sweep bandwidth (resolution = c/2B)",
        )
    )
    sections.append(
        render_table(
            run_subtraction_burst_ablation(),
            title="Ablation 8: background-subtraction burst length",
        )
    )
    return "\n\n".join(sections)


if __name__ == "__main__":
    print(main())  # milback: disable=ML007 — script entry point


def run_chirp_bandwidth_ablation(
    bandwidths_hz=(0.5e9, 1.0e9, 3.0e9),
    distance_m: float = 5.0,
    n_trials: int = 6,
    seed: int = 55,
) -> list[dict[str, object]]:
    """Ranging accuracy vs swept bandwidth — with a finding.

    Resolution is c/2B (§2), but with the generator's slope calibration
    error in play (the dominant systematic, ∝ distance), total accuracy
    barely moves with bandwidth. Zeroing that systematic exposes the
    bandwidth-limited precision floor: 3 GHz is ~15x more precise than
    0.5 GHz. Bandwidth buys the *floor*; instrument calibration sets the
    *ceiling* — and the paper's 3 GHz sweep puts the floor far below it.
    """
    from dataclasses import replace as _replace

    from repro.ap.access_point import AccessPoint
    from repro.ap.config import ApConfig
    from repro.dsp.waveforms import SawtoothChirp
    from repro.constants import BAND_CENTER_HZ, SPEED_OF_LIGHT
    from repro.sim.calibration import default_calibration

    ideal_cal = _replace(default_calibration(), slope_error_sigma=0.0)
    rows = []
    for bandwidth in bandwidths_hz:
        chirp = SawtoothChirp(
            BAND_CENTER_HZ - bandwidth / 2.0,
            BAND_CENTER_HZ + bandwidth / 2.0,
            18e-6,
        )
        realistic, floor = [], []
        for t in range(n_trials):
            for errors, calibration in ((realistic, None), (floor, ideal_cal)):
                sim = MilBackSimulator(
                    Scene2D.single_node(distance_m, orientation_deg=10.0),
                    ap=AccessPoint(ApConfig(ranging_chirp=chirp)),
                    calibration=calibration,
                    seed=seed + t,
                )
                errors.append(abs(sim.simulate_localization().distance_error_m))
        rows.append(
            {
                "Sweep (GHz)": bandwidth / 1e9,
                "Resolution c/2B (cm)": round(
                    100.0 * SPEED_OF_LIGHT / (2.0 * bandwidth), 1
                ),
                "Error, real instrument (cm)": round(100.0 * float(np.mean(realistic)), 2),
                "Error, ideal slope cal (cm)": round(100.0 * float(np.mean(floor)), 2),
            }
        )
    return rows


def run_subtraction_burst_ablation(
    n_chirps_options=(3, 5, 9),
    distance_m: float = 7.0,
    n_trials: int = 8,
    seed: int = 56,
) -> list[dict[str, object]]:
    """Ranging accuracy vs background-subtraction burst length.

    The paper uses five chirps (four difference pairs); more pairs
    average the residual floor down at the cost of air time.
    """
    rows = []
    for n_chirps in n_chirps_options:
        errors = []
        for t in range(n_trials):
            sim = MilBackSimulator(
                Scene2D.single_node(distance_m, orientation_deg=10.0),
                seed=seed + t,
            )
            burst = sim.beat_burst(toggled_port="both", n_chirps=n_chirps)
            estimate = sim.ap.fmcw.estimate_range(
                burst[:, 0], sim.ap.config.beat_sample_rate_hz
            )
            errors.append(abs(estimate.distance_m - distance_m))
        rows.append(
            {
                "Chirps": n_chirps,
                "Pairs": n_chirps - 1,
                "Mean error (cm)": round(100.0 * float(np.mean(errors)), 2),
                "Worst error (cm)": round(100.0 * float(np.max(errors)), 2),
            }
        )
    return rows
