"""End-to-end engine tests (repro.sim.engine).

These are the headline integration checks: every paper capability must
work through the full simulated chain with realistic accuracy.
"""

import numpy as np
import pytest

from repro.channel.scene import Scene2D
from repro.errors import ConfigurationError
from repro.hardware.envelope_detector import EnvelopeDetector
from repro.node.config import NodeConfig
from repro.node.firmware import PayloadDirection
from repro.node.node import BackscatterNode
from repro.sim.calibration import Calibration
from repro.sim.engine import MilBackSimulator


def scene_at(distance=2.0, orientation=10.0, azimuth=0.0, clutter=True):
    return Scene2D.single_node(
        distance, azimuth_deg=azimuth, orientation_deg=orientation, with_clutter=clutter
    )


class TestLocalization:
    def test_ranging_centimeter_class(self):
        sim = MilBackSimulator(scene_at(3.0), seed=1)
        result = sim.simulate_localization()
        assert abs(result.distance_error_m) < 0.06

    def test_ranging_at_8m_still_works(self):
        errors = [
            abs(MilBackSimulator(scene_at(8.0), seed=s).simulate_localization().distance_error_m)
            for s in range(4)
        ]
        assert np.median(errors) < 0.25

    def test_angle_estimate(self):
        sim = MilBackSimulator(scene_at(3.0, azimuth=6.0), seed=2)
        result = sim.simulate_localization()
        assert abs(result.angle_error_deg) < 4.0

    def test_works_amid_clutter(self):
        # Clutter returns are >30 dB above the node's, yet subtraction
        # recovers the node.
        sim = MilBackSimulator(scene_at(4.0, clutter=True), seed=3)
        result = sim.simulate_localization()
        assert abs(result.distance_error_m) < 0.1

    def test_deterministic_given_seed(self):
        a = MilBackSimulator(scene_at(), seed=5).simulate_localization()
        b = MilBackSimulator(scene_at(), seed=5).simulate_localization()
        assert a.distance_est_m == b.distance_est_m


class TestOrientation:
    def test_ap_side_accuracy(self):
        sim = MilBackSimulator(scene_at(2.0, orientation=12.0), seed=4)
        result = sim.simulate_ap_orientation()
        assert abs(result.error_deg) < 3.0

    def test_node_side_accuracy(self):
        sim = MilBackSimulator(scene_at(2.0, orientation=-15.0), seed=5)
        result = sim.simulate_node_orientation()
        assert abs(result.error_deg) < 3.0

    def test_node_ports_agree(self):
        sim = MilBackSimulator(scene_at(2.0, orientation=8.0), seed=6)
        result = sim.simulate_node_orientation()
        assert result.orientation_a_deg == pytest.approx(
            result.orientation_b_deg, abs=5.0
        )

    def test_mirror_bump_degrades_specular_window(self):
        # Fig. 13b: errors are worse in the -6..-2 deg window.
        errs_bump, errs_clean = [], []
        for s in range(6):
            sim = MilBackSimulator(scene_at(2.0, orientation=-3.0), seed=800 + s)
            errs_bump.append(abs(sim.simulate_ap_orientation().error_deg))
            sim = MilBackSimulator(scene_at(2.0, orientation=15.0), seed=800 + s)
            errs_clean.append(abs(sim.simulate_ap_orientation().error_deg))
        assert np.mean(errs_bump) > np.mean(errs_clean)

    def test_traces_returned_when_requested(self):
        sim = MilBackSimulator(scene_at(), seed=7)
        result, traces = sim.simulate_node_orientation(return_traces=True)
        assert set(traces) == {"A", "B"}


class TestDownlink:
    def test_error_free_at_short_range(self):
        sim = MilBackSimulator(scene_at(2.0), seed=8)
        bits = np.random.default_rng(0).integers(0, 2, 128)
        result = sim.simulate_downlink(bits, 2e6)
        assert result.ber == 0.0
        assert result.sinr_db > 20.0

    def test_sinr_falls_with_distance(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 128)
        near = MilBackSimulator(scene_at(2.0), seed=9).simulate_downlink(bits, 2e6)
        far = MilBackSimulator(scene_at(10.0), seed=9).simulate_downlink(bits, 2e6)
        assert near.sinr_db > far.sinr_db + 8.0

    def test_ook_fallback_at_normal_incidence(self):
        sim = MilBackSimulator(scene_at(2.0, orientation=0.0), seed=10)
        bits = np.random.default_rng(2).integers(0, 2, 64)
        result = sim.simulate_downlink(bits, 1e6)
        assert result.used_ook_fallback
        assert result.ber == 0.0

    def test_rate_ceiling_enforced(self):
        sim = MilBackSimulator(scene_at(), seed=11)
        with pytest.raises(ConfigurationError):
            sim.simulate_downlink([1, 0], 50e6)

    def test_empty_bits_rejected(self):
        sim = MilBackSimulator(scene_at(), seed=12)
        with pytest.raises(ConfigurationError):
            sim.simulate_downlink([], 2e6)

    def test_traces_kept_on_request(self):
        sim = MilBackSimulator(scene_at(), seed=13)
        result = sim.simulate_downlink([1, 0, 1, 1], 2e6, keep_traces=True)
        assert result.detector_a is not None

    def test_ook_fallback_samples_a_fast_detector_like_oaqfm(self):
        # A 400 MHz detector (as the detector-bandwidth ablation builds)
        # must be sampled on the same grid on both paths, or the OOK
        # path under-resolves its noise and overstates the SINR.
        def fast_node():
            return BackscatterNode(
                NodeConfig(
                    detector_a=EnvelopeDetector(video_bandwidth_hz=400e6),
                    detector_b=EnvelopeDetector(video_bandwidth_hz=400e6),
                )
            )

        # One on-symbol pair, then a long quiet tail: only noise is left
        # once the first 16 symbols have settled.
        bits = np.array([1, 0] * 4 + [0] * 56, dtype=np.uint8)
        ratios = {}
        rates = {}
        for orientation, ook in ((0.0, True), (10.0, False)):
            node = fast_node()
            sim = MilBackSimulator(scene_at(3.0, orientation), node=node, seed=11)
            result = sim.simulate_downlink(bits, 2e6, keep_traces=True)
            assert result.used_ook_fallback is ook
            trace = result.detector_a
            symbol_rate = 2e6 if result.used_ook_fallback else 1e6
            samples_per_symbol = round(trace.sample_rate_hz / symbol_rate)
            quiet = trace.samples.real[16 * samples_per_symbol :]
            sigma = node.config.detector_a.output_noise_sigma_v()
            ratios[result.used_ook_fallback] = float(np.std(quiet)) / sigma
            rates[result.used_ook_fallback] = trace.sample_rate_hz
        assert rates[True] == rates[False]
        assert ratios[True] == pytest.approx(ratios[False], rel=0.10)


class TestUplink:
    def test_error_free_at_short_range(self):
        sim = MilBackSimulator(scene_at(2.0), seed=14)
        bits = np.random.default_rng(3).integers(0, 2, 128)
        result = sim.simulate_uplink(bits, 10e6)
        assert result.ber == 0.0
        assert result.snr_db > 18.0

    def test_snr_falls_faster_than_downlink(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 128)
        # Compare beyond the uplink's short-range SINR cap (it binds
        # below ~4 m): 6->9 m should show ~40 log d for uplink versus
        # ~20 log d for downlink.
        up_near = MilBackSimulator(scene_at(6.0), seed=15).simulate_uplink(bits, 10e6)
        up_far = MilBackSimulator(scene_at(9.0), seed=15).simulate_uplink(bits, 10e6)
        dl_near = MilBackSimulator(scene_at(6.0), seed=15).simulate_downlink(bits, 2e6)
        dl_far = MilBackSimulator(scene_at(9.0), seed=15).simulate_downlink(bits, 2e6)
        uplink_drop = up_near.snr_db - up_far.snr_db
        downlink_drop = dl_near.sinr_db - dl_far.sinr_db
        assert uplink_drop > downlink_drop + 2.0

    def test_higher_rate_lower_snr(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 128)
        slow = MilBackSimulator(scene_at(6.0), seed=16).simulate_uplink(bits, 10e6)
        fast = MilBackSimulator(scene_at(6.0), seed=16).simulate_uplink(bits, 40e6)
        assert slow.snr_db > fast.snr_db + 3.0

    def test_rate_ceiling_enforced(self):
        sim = MilBackSimulator(scene_at(), seed=17)
        with pytest.raises(ConfigurationError):
            sim.simulate_uplink([1, 0], 200e6)

    def test_short_range_snr_capped(self):
        # Fig. 15a flattens below ~2 m; the cap must bind.
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, 256)
        at_1m = MilBackSimulator(scene_at(1.0), seed=18).simulate_uplink(bits, 10e6)
        at_2m = MilBackSimulator(scene_at(2.0), seed=18).simulate_uplink(bits, 10e6)
        assert abs(at_1m.snr_db - at_2m.snr_db) < 3.0


class TestField1:
    def test_uplink_announcement_classified(self):
        sim = MilBackSimulator(scene_at(), seed=19)
        adc_a, adc_b = sim.simulate_field1(announce_uplink=True)
        decision = sim.node.firmware.classify_field1(adc_a, adc_b)
        assert decision.direction is PayloadDirection.UPLINK

    def test_downlink_announcement_classified(self):
        sim = MilBackSimulator(scene_at(), seed=20)
        adc_a, adc_b = sim.simulate_field1(announce_uplink=False)
        decision = sim.node.firmware.classify_field1(adc_a, adc_b)
        assert decision.direction is PayloadDirection.DOWNLINK

    def test_classification_robust_at_range(self):
        sim = MilBackSimulator(scene_at(8.0), seed=21)
        adc_a, adc_b = sim.simulate_field1(announce_uplink=False)
        decision = sim.node.firmware.classify_field1(adc_a, adc_b)
        assert decision.direction is PayloadDirection.DOWNLINK


class TestCalibrationInjection:
    def test_zero_ripple_improves_orientation(self):
        clean = Calibration(fsa_gain_ripple_db=0.0)
        errs_clean, errs_default = [], []
        for s in range(5):
            sim = MilBackSimulator(scene_at(2.0, orientation=12.0), calibration=clean, seed=900 + s)
            errs_clean.append(abs(sim.simulate_node_orientation().error_deg))
            sim = MilBackSimulator(scene_at(2.0, orientation=12.0), seed=900 + s)
            errs_default.append(abs(sim.simulate_node_orientation().error_deg))
        assert np.mean(errs_clean) <= np.mean(errs_default) + 0.2
