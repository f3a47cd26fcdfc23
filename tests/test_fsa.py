"""FSA and dual-port FSA tests — the heart of MilBack's node."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.antennas.dual_port_fsa import DualPortFsa, TonePair
from repro.antennas.fsa import FrequencyScanningAntenna, FsaDesign, FsaPort
from repro.constants import BAND_START_HZ, BAND_STOP_HZ
from repro.errors import ConfigurationError

band_freqs = st.floats(min_value=BAND_START_HZ, max_value=BAND_STOP_HZ)


def _reference_gain_dbi(design, port, angle_deg, frequency_hz):
    """The pattern with its array factor written as ``np.tensordot`` over
    a taper rebuilt per call — the reference ``gain_dbi`` must match bit
    for bit."""
    mirror = -1.0 if port == FsaPort.B else 1.0
    angle_b, freq_b = np.broadcast_arrays(
        np.asarray(angle_deg, dtype=float), np.asarray(frequency_hz, dtype=float)
    )
    k = 2.0 * np.pi * freq_b / 299792458.0
    d_m = design.element_spacing_m
    psi = k * d_m * design.sin_beam_angle(freq_b)
    phase_per_element = k * d_m * np.sin(np.radians(mirror * angle_b)) - psi
    taper = design.element_weights()
    phases = np.multiply.outer(phase_per_element, np.arange(design.n_elements))
    af = np.abs(np.tensordot(np.exp(1j * phases), taper, axes=([phases.ndim - 1], [0])))
    af_norm = af / taper.sum()
    element_factor = np.maximum(np.cos(np.radians(angle_b)), 1e-3)
    gain_linear = 10.0 ** (design.peak_gain_dbi / 10.0) * af_norm**2 * element_factor
    return 10.0 * np.log10(np.maximum(gain_linear, 1e-12))


class TestFsaDesign:
    def test_from_scan_hits_endpoints(self):
        design = FsaDesign.from_scan()
        fsa = FrequencyScanningAntenna(design)
        assert float(fsa.beam_angle_deg(BAND_START_HZ)) == pytest.approx(-30.0, abs=0.01)
        assert float(fsa.beam_angle_deg(BAND_STOP_HZ)) == pytest.approx(30.0, abs=0.01)

    def test_from_scan_custom_angles(self):
        design = FsaDesign.from_scan(angle_start_deg=-20.0, angle_stop_deg=40.0)
        fsa = FrequencyScanningAntenna(design)
        assert float(fsa.beam_angle_deg(BAND_START_HZ)) == pytest.approx(-20.0, abs=0.01)
        assert float(fsa.beam_angle_deg(BAND_STOP_HZ)) == pytest.approx(40.0, abs=0.01)

    def test_monotonic_dispersion(self):
        design = FsaDesign()
        freqs = np.linspace(BAND_START_HZ, BAND_STOP_HZ, 50)
        sines = design.sin_beam_angle(freqs)
        assert np.all(np.diff(sines) > 0)

    def test_scan_band_contains_design_band(self):
        lo, hi = FsaDesign().scan_band_hz()
        assert lo < BAND_START_HZ
        assert hi > BAND_STOP_HZ

    def test_element_weights_positive_and_decaying_envelope(self):
        weights = FsaDesign().element_weights()
        assert (weights > 0).all()

    def test_uniform_taper_only_feed_loss(self):
        design = FsaDesign(element_taper="uniform", feed_loss_np_per_m=0.0)
        assert np.allclose(design.element_weights(), 1.0)

    def test_invalid_taper_rejected(self):
        with pytest.raises(ConfigurationError):
            FsaDesign(element_taper="chebyshev")

    def test_too_few_elements_rejected(self):
        with pytest.raises(ConfigurationError):
            FsaDesign(n_elements=1)

    def test_aperture(self):
        design = FsaDesign(n_elements=10, element_spacing_m=4e-3)
        assert design.aperture_m() == pytest.approx(0.04)


class TestFsaPortDispersion:
    def test_port_b_mirrors_port_a(self):
        design = FsaDesign()
        a = FrequencyScanningAntenna(design, FsaPort.A)
        b = FrequencyScanningAntenna(design, FsaPort.B)
        for f in (26.5e9, 28e9, 29.5e9):
            assert float(b.beam_angle_deg(f)) == pytest.approx(
                -float(a.beam_angle_deg(f))
            )

    @given(band_freqs)
    def test_alignment_roundtrip(self, freq):
        fsa = FrequencyScanningAntenna(FsaDesign())
        angle = float(fsa.beam_angle_deg(freq))
        assert float(fsa.alignment_frequency_hz(angle)) == pytest.approx(freq, rel=1e-9)

    def test_out_of_visible_band_raises(self):
        fsa = FrequencyScanningAntenna(FsaDesign())
        with pytest.raises(ConfigurationError):
            fsa.beam_angle_deg(40e9)

    def test_invalid_port_rejected(self):
        with pytest.raises(ConfigurationError):
            FrequencyScanningAntenna(FsaDesign(), port="C")

    def test_scan_rate_positive_for_port_a(self):
        fsa = FrequencyScanningAntenna(FsaDesign())
        assert fsa.scan_rate_deg_per_hz(28e9) > 0

    def test_scan_rate_magnitude(self):
        # ~60 deg over 3 GHz -> ~2e-8 deg/Hz at band center.
        fsa = FrequencyScanningAntenna(FsaDesign())
        assert fsa.scan_rate_deg_per_hz(28e9) == pytest.approx(2e-8, rel=0.3)


class TestFsaPattern:
    def test_peak_gain_at_beam_angle(self):
        fsa = FrequencyScanningAntenna(FsaDesign())
        angle = float(fsa.beam_angle_deg(28e9))
        peak = float(fsa.gain_dbi(angle, 28e9))
        assert peak == pytest.approx(13.0, abs=0.3)

    def test_all_band_beams_above_10dbi(self):
        # Fig. 10: every beam peak across the band exceeds 10 dBi.
        fsa = FrequencyScanningAntenna(FsaDesign())
        for f in np.linspace(BAND_START_HZ, BAND_STOP_HZ, 13):
            angle = float(fsa.beam_angle_deg(f))
            assert float(fsa.gain_dbi(angle, f)) > 10.0

    def test_off_beam_suppression(self):
        fsa = FrequencyScanningAntenna(FsaDesign())
        angle = float(fsa.beam_angle_deg(28e9))
        assert float(fsa.gain_dbi(angle + 25.0, 28e9)) < float(
            fsa.gain_dbi(angle, 28e9)
        ) - 20.0

    def test_beamwidth_near_10deg(self):
        # §9.3: "the beam width of the node is around 10 degree".
        fsa = FrequencyScanningAntenna(FsaDesign())
        assert fsa.beamwidth_deg(28e9) == pytest.approx(10.0, abs=1.5)

    def test_port_b_pattern_is_mirrored(self):
        design = FsaDesign()
        a = FrequencyScanningAntenna(design, FsaPort.A)
        b = FrequencyScanningAntenna(design, FsaPort.B)
        angles = np.linspace(-35, 35, 141)
        assert np.allclose(
            a.gain_dbi(angles, 28.4e9), b.gain_dbi(-angles, 28.4e9), atol=1e-9
        )

    def test_broadcast_shapes(self):
        fsa = FrequencyScanningAntenna(FsaDesign())
        out = fsa.gain_dbi(np.zeros(5), np.full(5, 28e9))
        assert out.shape == (5,)

    @pytest.mark.parametrize("port", [FsaPort.A, FsaPort.B])
    @pytest.mark.parametrize("taper", ["cosine", "uniform"])
    def test_pattern_bit_identical_to_reference(self, port, taper):
        design = FsaDesign(element_taper=taper)
        fsa = FrequencyScanningAntenna(design, port)
        band = np.linspace(BAND_START_HZ, BAND_STOP_HZ, 7)
        cases = [
            (12.5, 28.1e9),
            (np.linspace(-80.0, 80.0, 161), 27.3e9),
            (-7.0, band),
            (np.linspace(-40.0, 40.0, 9)[:, None], band[None, :]),
        ]
        for angle, freq in cases:
            expected = _reference_gain_dbi(design, port, angle, freq)
            got = fsa.gain_dbi(angle, freq)
            assert np.asarray(got).shape == expected.shape
            assert np.array_equal(np.asarray(got), expected)
        assert isinstance(fsa.gain_dbi(12.5, 28.1e9), float)


class TestDualPortFsa:
    def test_scan_coverage_60deg(self):
        assert DualPortFsa().scan_coverage_deg() == pytest.approx(60.0, abs=2.0)

    def test_alignment_pair_mirror_symmetry(self):
        dp = DualPortFsa()
        pair = dp.alignment_pair(12.0)
        mirrored = dp.alignment_pair(-12.0)
        assert pair.freq_a_hz == pytest.approx(mirrored.freq_b_hz)
        assert pair.freq_b_hz == pytest.approx(mirrored.freq_a_hz)

    def test_degenerate_at_normal_incidence(self):
        assert DualPortFsa().alignment_pair(0.0).degenerate

    def test_nondegenerate_off_normal(self):
        pair = DualPortFsa().alignment_pair(10.0)
        assert not pair.degenerate
        assert pair.separation_hz > 0.5e9

    def test_out_of_band_orientation_raises(self):
        with pytest.raises(ConfigurationError):
            DualPortFsa().alignment_pair(50.0)

    def test_orientation_from_alignment_roundtrip(self):
        dp = DualPortFsa()
        pair = dp.alignment_pair(17.0)
        assert dp.orientation_from_alignment(pair.freq_a_hz, FsaPort.A) == pytest.approx(
            17.0, abs=1e-6
        )
        assert dp.orientation_from_alignment(pair.freq_b_hz, FsaPort.B) == pytest.approx(
            17.0, abs=1e-6
        )

    def test_port_isolation_good_beyond_beamwidth(self):
        # Beams are ~10 deg wide; at 10 deg orientation the mirrored beam
        # is 20 deg away and the other tone is well suppressed.
        assert DualPortFsa().port_isolation_db(10.0) > 20.0

    def test_port_isolation_degrades_near_normal(self):
        dp = DualPortFsa()
        assert dp.port_isolation_db(4.0) < dp.port_isolation_db(10.0)

    def test_gain_dispatch(self):
        dp = DualPortFsa()
        assert float(dp.gain_dbi(FsaPort.A, 5.0, 28e9)) == pytest.approx(
            float(dp.port_a.gain_dbi(5.0, 28e9))
        )
        with pytest.raises(ConfigurationError):
            dp.gain_dbi("Q", 0.0, 28e9)

    def test_band_validation(self):
        with pytest.raises(ConfigurationError):
            DualPortFsa(band_hz=(29e9, 27e9))
