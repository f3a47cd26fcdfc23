"""Engine edge cases: odd inputs, extreme geometries, degenerate modes."""

import numpy as np
import pytest

from repro import obs
from repro.antennas.dual_port_fsa import TonePair
from repro.channel.multipath import Reflector
from repro.channel.scene import Scene2D
from repro.errors import ConfigurationError
from repro.node.firmware import PayloadDirection
from repro.phy.dense_oaqfm import DenseOaqfmScheme
from repro.protocol.arq import ReliableChannel
from repro.protocol.link import MilBackLink
from repro.sim.engine import MilBackSimulator
from repro.utils.geometry import Point2D


class TestOddInputs:
    def test_odd_bit_count_padded_downlink(self):
        sim = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=10.0), seed=1)
        result = sim.simulate_downlink([1, 0, 1], 2e6)
        assert result.tx_bits.size == 4
        assert result.tx_bits[-1] == 0
        assert result.ber == 0.0

    def test_odd_bit_count_padded_uplink(self):
        sim = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=10.0), seed=2)
        result = sim.simulate_uplink([1, 0, 1, 1, 0], 10e6)
        assert result.tx_bits.size == 6
        assert result.ber == 0.0

    def test_single_bit_downlink(self):
        sim = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=10.0), seed=3)
        result = sim.simulate_downlink([1], 2e6)
        assert result.tx_bits.size == 2

    def test_all_zero_payload(self):
        # An all-absorb uplink burst: nothing reflects during data; SNR is
        # undefined (NaN) but the decode must not crash and pilots anchor
        # the stream.
        sim = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=10.0), seed=4)
        result = sim.simulate_uplink([0] * 32, 10e6)
        assert result.ber == 0.0

    def test_all_one_payload(self):
        sim = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=10.0), seed=5)
        result = sim.simulate_uplink([1] * 32, 10e6)
        assert result.ber == 0.0


class TestExtremeGeometry:
    def test_node_at_scan_edge(self):
        # Orientation near the FSA's ±30 deg scan edge still communicates.
        sim = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=26.0), seed=6)
        bits = np.random.default_rng(0).integers(0, 2, 64)
        result = sim.simulate_downlink(bits, 2e6)
        assert result.ber == 0.0

    def test_orientation_beyond_scan_rejected(self):
        sim = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=45.0), seed=7)
        with pytest.raises(ConfigurationError):
            sim.simulate_downlink([1, 0], 2e6)

    def test_anechoic_scene_localizes(self):
        # No clutter at all: subtraction still works (nothing to cancel).
        sim = MilBackSimulator(
            Scene2D.single_node(4.0, orientation_deg=10.0, with_clutter=False), seed=8
        )
        result = sim.simulate_localization()
        assert abs(result.distance_error_m) < 0.1

    def test_very_close_node(self):
        sim = MilBackSimulator(Scene2D.single_node(0.8, orientation_deg=10.0), seed=9)
        result = sim.simulate_localization()
        assert abs(result.distance_error_m) < 0.05

    def test_negative_orientation_mirrors_tones(self):
        pos = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=15.0), seed=10)
        neg = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=-15.0), seed=10)
        pair_pos = pos.ap.tone_pair_for_orientation(15.0)
        pair_neg = neg.ap.tone_pair_for_orientation(-15.0)
        assert pair_pos.freq_a_hz == pytest.approx(pair_neg.freq_b_hz)


class TestExplicitPairOverride:
    def test_misaligned_pair_degrades_link(self):
        # Feeding tones for the wrong orientation costs beam gain.
        scene = Scene2D.single_node(4.0, orientation_deg=10.0)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 64)
        good = MilBackSimulator(scene, seed=11)
        aligned = good.simulate_downlink(bits, 2e6)
        bad = MilBackSimulator(scene, seed=11)
        wrong_pair = bad.ap.tone_pair_for_orientation(22.0)
        misaligned = bad.simulate_downlink(bits, 2e6, pair=wrong_pair)
        assert aligned.sinr_db > misaligned.sinr_db + 5.0

    def test_small_orientation_error_tolerated(self):
        # §9.3: a 3-4 deg orientation error must not break communication
        # (the beam is ~10 deg wide).
        scene = Scene2D.single_node(3.0, orientation_deg=10.0)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 64)
        sim = MilBackSimulator(scene, seed=12)
        pair = sim.ap.tone_pair_for_orientation(13.0)  # 3 deg off
        result = sim.simulate_downlink(bits, 2e6, pair=pair)
        assert result.ber == 0.0

    def test_manual_degenerate_pair_forces_ook(self):
        scene = Scene2D.single_node(2.0, orientation_deg=10.0)
        sim = MilBackSimulator(scene, seed=13)
        pair = sim.ap.tone_pair_for_orientation(10.0)
        degenerate = TonePair(pair.freq_a_hz, pair.freq_a_hz)
        result = sim.simulate_downlink([1, 0, 1, 1], 1e6, pair=degenerate)
        assert result.used_ook_fallback


class TestDynamicRange:
    def test_detector_output_within_adc_range_at_close_range(self):
        """At 0.5 m the detector sees its strongest input; the MCU ADC
        (1.2 V full scale) must not clip."""
        sim = MilBackSimulator(Scene2D.single_node(0.5, orientation_deg=10.0), seed=20)
        result, traces = sim.simulate_node_orientation(return_traces=True)
        for trace in traces.values():
            assert float(np.max(trace.samples.real)) < 1.2
        assert abs(result.error_deg) < 3.0

    def test_close_range_downlink_decodes(self):
        sim = MilBackSimulator(Scene2D.single_node(0.5, orientation_deg=10.0), seed=21)
        bits = np.random.default_rng(0).integers(0, 2, 64)
        assert sim.simulate_downlink(bits, 2e6).ber == 0.0


class TestBeatBurstArguments:
    """Only ``None`` means the default burst; a count below one is
    rejected before the burst is counted."""

    @pytest.mark.parametrize("n_chirps", [0, -2])
    def test_chirp_count_below_one_rejected(self, n_chirps):
        sim = MilBackSimulator(Scene2D.single_node(3.0, orientation_deg=10.0), seed=1)
        synthesized = obs.counter("engine.chirps.synthesized").value
        with pytest.raises(ConfigurationError):
            sim.beat_burst(n_chirps=n_chirps)
        with pytest.raises(ConfigurationError):
            sim.simulate_localization_array(n_chirps=n_chirps)
        assert obs.counter("engine.chirps.synthesized").value == synthesized

    def test_rx_antenna_count_below_one_rejected_before_counting(self):
        sim = MilBackSimulator(Scene2D.single_node(3.0, orientation_deg=10.0), seed=1)
        synthesized = obs.counter("engine.chirps.synthesized").value
        with pytest.raises(ConfigurationError):
            sim.beat_burst(n_rx_antennas=0)
        assert obs.counter("engine.chirps.synthesized").value == synthesized

    def test_none_gives_the_default_burst(self):
        sim = MilBackSimulator(Scene2D.single_node(3.0, orientation_deg=10.0), seed=1)
        synthesized = obs.counter("engine.chirps.synthesized").value
        burst = sim.beat_burst(n_chirps=None)
        assert burst.shape[0] == sim.ap.config.n_ranging_chirps == 5
        assert obs.counter("engine.chirps.synthesized").value == synthesized + 5


class TestDownlinkRates:
    """A downlink rate that is not positive raises `ConfigurationError`,
    as an uplink rate does, and the engine draws nothing first."""

    @pytest.mark.parametrize("bit_rate_bps", [0.0, -2e6])
    @pytest.mark.parametrize(("orientation_deg", "ook"), [(10.0, False), (0.0, True)])
    def test_simulate_downlink_rejects(self, orientation_deg, ook, bit_rate_bps):
        scene = Scene2D.single_node(2.0, orientation_deg=orientation_deg)
        sim = MilBackSimulator(scene, seed=1)
        state = sim.rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="positive"):
            sim.simulate_downlink([1, 0, 1, 1], bit_rate_bps)
        assert sim.rng.bit_generator.state == state
        fallback = MilBackSimulator(scene, seed=1).simulate_downlink([1, 0, 1, 1], 2e6)
        assert fallback.used_ook_fallback is ook

    @pytest.mark.parametrize("symbol_rate_hz", [0.0, -1e6])
    def test_dense_downlink_rejects(self, symbol_rate_hz):
        sim = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=10.0), seed=1)
        with pytest.raises(ConfigurationError, match="positive"):
            sim.simulate_downlink_dense(
                [1, 0, 1, 1], DenseOaqfmScheme(4), symbol_rate_hz=symbol_rate_hz
            )

    @pytest.mark.parametrize("bit_rate_bps", [0.0, -2e6])
    def test_link_and_arq_reject(self, bit_rate_bps):
        scene = Scene2D.single_node(2.0, orientation_deg=10.0)
        link = MilBackLink(MilBackSimulator(scene, seed=1))
        with pytest.raises(ConfigurationError, match="positive"):
            link.send_to_node(b"hi", bit_rate_bps)
        channel = ReliableChannel(MilBackLink(MilBackSimulator(scene, seed=1)))
        with pytest.raises(ConfigurationError, match="positive"):
            channel.send_reliable(b"hi", PayloadDirection.DOWNLINK, bit_rate_bps)


class TestClutterNames:
    def test_reflectors_sharing_a_name_keep_their_own_azimuths(self):
        """A reflector's name labels it; its phase across the RX array
        comes from where it stands."""

        def burst(first: str, second: str) -> np.ndarray:
            scene = (
                Scene2D.single_node(3.0, azimuth_deg=5.0, orientation_deg=10.0, with_clutter=False)
                .with_clutter(Reflector(Point2D(4.0, -2.5), rcs_dbsm=3.0, name=first))
                .with_clutter(Reflector(Point2D(5.5, 2.5), rcs_dbsm=3.0, name=second))
            )
            return MilBackSimulator(scene, seed=3).beat_burst()

        assert np.array_equal(burst("shelf", "shelf"), burst("shelf-1", "shelf-2"))
