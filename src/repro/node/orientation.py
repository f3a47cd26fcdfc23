"""Node-side orientation sensing (paper §5.2b, Figs. 5 and 13a).

During Field 1 the AP sweeps a *triangular* chirp. A node port's beam is
aligned toward the AP only at its alignment frequency, so the detector
output peaks twice per chirp — once on the up-leg, once on the down-leg
— and the time gap between the peaks encodes that frequency, hence the
orientation. The node needs no knowledge of absolute time or frequency:
only the gap, measured with its 1 MHz ADC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.antennas.dual_port_fsa import DualPortFsa
from repro.dsp.fftutils import parabolic_vertex
from repro.dsp.signal import Signal
from repro.dsp.waveforms import TriangularChirp
from repro.errors import LocalizationError

__all__ = ["NodeOrientationEstimate", "NodeOrientationEstimator"]


@dataclass(frozen=True)
class NodeOrientationEstimate:
    """Result of one node-side orientation measurement."""

    orientation_deg: float
    orientation_a_deg: float
    orientation_b_deg: float
    peak_gap_a_s: float
    peak_gap_b_s: float


class NodeOrientationEstimator:
    """Peak-gap orientation estimation from the two detector streams."""

    def __init__(
        self,
        fsa: DualPortFsa | None = None,
        chirp: TriangularChirp | None = None,
        refine_peaks: bool = False,
    ) -> None:
        """``refine_peaks=False`` (default) locates peaks by plain argmax,
        matching what MSP430-class firmware does on a live ADC stream;
        the 1 µs sample spacing then dominates the error (≈2.7° of scan
        per sample), reproducing the paper's 1–3° node-side accuracy.
        ``refine_peaks=True`` enables parabolic sub-sample refinement —
        the upgrade path ablated in the benchmarks."""
        self.fsa = fsa or DualPortFsa()
        self.chirp = chirp or TriangularChirp()
        self.refine_peaks = refine_peaks

    def estimate(
        self,
        adc_a: Signal,
        adc_b: Signal,
        n_chirps: int = 1,
    ) -> NodeOrientationEstimate:
        """Estimate orientation from ADC captures spanning ``n_chirps``
        triangular chirps (both ports in absorptive mode).

        Per port: measure the up/down peak gap (averaged across chirps),
        invert the chirp geometry for the alignment frequency, invert the
        FSA dispersion for the angle. The two ports' estimates are
        averaged (§9.3), with port B's sign flipped by its mirrored
        dispersion automatically.
        """
        gap_a = self._mean_peak_gap(adc_a, n_chirps)
        gap_b = self._mean_peak_gap(adc_b, n_chirps)
        freq_a = self.chirp.frequency_from_peak_gap(gap_a)
        freq_b = self.chirp.frequency_from_peak_gap(gap_b)
        angle_a = float(self.fsa.port_a.beam_angle_deg(freq_a))
        angle_b = float(self.fsa.port_b.beam_angle_deg(freq_b))
        return NodeOrientationEstimate(
            orientation_deg=0.5 * (angle_a + angle_b),
            orientation_a_deg=angle_a,
            orientation_b_deg=angle_b,
            peak_gap_a_s=gap_a,
            peak_gap_b_s=gap_b,
        )

    # --- internals ---------------------------------------------------------------

    def _mean_peak_gap(self, adc: Signal, n_chirps: int) -> float:
        """Average up/down peak separation across chirp periods."""
        if n_chirps < 1:
            raise LocalizationError("need at least one chirp")
        fs_hz = adc.sample_rate_hz
        period_samples = int(round(self.chirp.duration_s * fs_hz))
        if adc.samples.size < n_chirps * period_samples:
            raise LocalizationError(
                f"ADC capture too short: {adc.samples.size} samples for "
                f"{n_chirps} chirps of {period_samples}"
            )
        gaps = []
        for k in range(n_chirps):
            segment = adc.samples[k * period_samples : (k + 1) * period_samples].real
            gaps.append(self._peak_gap_one_chirp(segment, fs_hz))
        return float(np.mean(gaps))

    def _peak_gap_one_chirp(self, values: np.ndarray, fs: float) -> float:
        """Locate the up-leg and down-leg peaks with sub-sample
        interpolation and return their separation [s]."""
        half = values.size // 2
        if half < 3:
            raise LocalizationError("chirp period too short at this ADC rate")
        t_up = self._argmax(values[:half]) / fs
        t_down = (half + self._argmax(values[half:])) / fs
        return t_down - t_up

    def _argmax(self, values: np.ndarray) -> float:
        """Peak index: plain argmax, or parabolic-refined when enabled."""
        k = int(np.argmax(values))
        if self.refine_peaks and 0 < k < values.size - 1:
            return k + parabolic_vertex(values[k - 1], values[k], values[k + 1])
        return float(k)
