"""Cross-module integration tests: the complete MilBack story.

Each test exercises a user-level scenario through the public API — the
same paths the examples and benchmarks use.
"""

import zlib

import numpy as np
import pytest

from repro import (
    BackscatterNode,
    Calibration,
    MilBackLink,
    MilBackSimulator,
    NodeConfig,
    Scene2D,
    SdmScheduler,
)
from repro.antennas.fsa import FsaDesign
from repro.channel.scene import NodePlacement
from repro.errors import LocalizationError, ProtocolError
from repro.node.firmware import PayloadDirection
from repro.utils.geometry import Pose2D


class TestFullSessions:
    def test_bidirectional_exchange(self):
        scene = Scene2D.single_node(3.0, orientation_deg=12.0)
        link = MilBackLink(MilBackSimulator(scene, seed=77))
        down = link.send_to_node(b"config: report every 10 s", bit_rate_bps=4e6)
        up = link.receive_from_node(b"temperature=23.4C", bit_rate_bps=10e6)
        assert down.delivered and up.delivered

    def test_session_at_paper_max_range(self):
        # 8 m, the paper's demonstrated uplink range at 10 Mbps. About one
        # session in five fails there, most in Field 1 (155-156 of seeds
        # 0-199 pass), so the claim is a rate over seeds, not one seed.
        scene = Scene2D.single_node(8.0, orientation_deg=10.0)
        passed = 0
        for seed in range(40):
            link = MilBackLink(MilBackSimulator(scene, seed=seed))
            try:
                passed += link.receive_from_node(b"edge-of-range", bit_rate_bps=10e6).crc_ok
            except (ProtocolError, LocalizationError):
                pass
        assert passed >= 0.6 * 40

    def test_normal_incidence_falls_back_to_ook(self):
        scene = Scene2D.single_node(2.0, orientation_deg=0.0)
        sim = MilBackSimulator(scene, seed=79)
        bits = np.random.default_rng(0).integers(0, 2, 64)
        result = sim.simulate_downlink(bits, 1e6)
        assert result.used_ook_fallback
        assert result.ber == 0.0

    def test_joint_localization_and_communication(self):
        # The ISAC promise: one session yields location, orientation AND data.
        scene = Scene2D.single_node(4.0, azimuth_deg=8.0, orientation_deg=-14.0)
        link = MilBackLink(MilBackSimulator(scene, seed=80))
        result = link.receive_from_node(b"payload", bit_rate_bps=10e6)
        assert abs(result.localization.distance_error_m) < 0.15
        assert abs(result.localization.angle_error_deg) < 4.0
        assert abs(result.ap_orientation.error_deg) < 4.0
        assert result.delivered


class TestCustomHardware:
    def test_larger_fsa_extends_range(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 64)
        scene = Scene2D.single_node(9.0, orientation_deg=10.0)

        small = MilBackSimulator(scene, seed=81)
        big_node = BackscatterNode(
            NodeConfig(fsa_design=FsaDesign.from_scan(n_elements=48, peak_gain_dbi=16.0))
        )
        big = MilBackSimulator(scene, node=big_node, seed=81)
        assert big.simulate_uplink(bits, 10e6).snr_db > small.simulate_uplink(
            bits, 10e6
        ).snr_db

    def test_custom_calibration_flows_through(self):
        scene = Scene2D.single_node(6.0, orientation_deg=10.0)
        bits = np.random.default_rng(2).integers(0, 2, 64)
        lossy = Calibration(uplink_implementation_loss_db=20.0)
        base = MilBackSimulator(scene, seed=82).simulate_uplink(bits, 10e6)
        degraded = MilBackSimulator(scene, calibration=lossy, seed=82).simulate_uplink(
            bits, 10e6
        )
        assert base.snr_db > degraded.snr_db + 10.0


class TestMultiNode:
    def make_scene(self):
        import math

        scene = Scene2D.single_node(3.0, azimuth_deg=-22.0, node_id="left")
        for node_id, az in (("center", 0.0), ("right", 22.0)):
            x = 3.0 * math.cos(math.radians(az))
            y = 3.0 * math.sin(math.radians(az))
            scene = scene.with_node(NodePlacement(Pose2D.at(x, y, az + 180.0), node_id))
        return scene

    def test_sdm_schedule_then_serve(self):
        scene = self.make_scene()
        scheduler = SdmScheduler(scene, min_separation_deg=18.0)
        groups = scheduler.schedule()
        assert scheduler.concurrency() >= 1.0
        served = []
        for group in groups:
            for node_id in group.node_ids:
                seed = zlib.crc32(node_id.encode()) % 1000
                sim = MilBackSimulator(scene, seed=seed, node_id=node_id)
                fix = sim.simulate_localization()
                assert abs(fix.distance_error_m) < 0.15
                served.append(node_id)
        assert sorted(served) == ["center", "left", "right"]


class TestFramedTrafficStatistics:
    def test_many_packets_all_delivered_at_close_range(self):
        scene = Scene2D.single_node(2.0, orientation_deg=10.0)
        link = MilBackLink(MilBackSimulator(scene, seed=83))
        delivered = 0
        for i in range(5):
            result = link.receive_from_node(f"pkt-{i}".encode(), bit_rate_bps=10e6)
            delivered += result.delivered
        assert delivered == 5

    def test_event_log_spans_all_packets(self):
        scene = Scene2D.single_node(2.0, orientation_deg=10.0)
        link = MilBackLink(MilBackSimulator(scene, seed=84))
        link.send_to_node(b"a", bit_rate_bps=2e6)
        link.receive_from_node(b"b", bit_rate_bps=10e6)
        assert len(link.log.events("payload")) == 2
        directions = [e.detail["direction"] for e in link.log.events("field1")]
        assert directions == ["downlink", "uplink"]
