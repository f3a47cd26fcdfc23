"""Concurrent SDM uplink and downlink tests (repro.sim.multinode)."""

import copy
import math

import numpy as np
import pytest

from repro.channel.scene import NodePlacement, Scene2D
from repro.errors import ConfigurationError
from repro.sim.engine import MilBackSimulator
from repro.sim.multinode import MultiNodeDownlink, MultiNodeUplink
from repro.utils.geometry import Pose2D


def scene_with_pair(separation_deg: float, distance_m: float = 3.0) -> Scene2D:
    """Two nodes at equal range, ``separation_deg`` apart in azimuth."""
    half = separation_deg / 2.0
    scene = Scene2D.single_node(
        distance_m, azimuth_deg=-half, orientation_deg=10.0, node_id="n0"
    )
    x = distance_m * math.cos(math.radians(half))
    y = distance_m * math.sin(math.radians(half))
    return scene.with_node(
        NodePlacement(Pose2D.at(x, y, half + 180.0 - 10.0), "n1")
    )


def lone_node_scene() -> Scene2D:
    """One node, off the AP's boresight and turned away from it."""
    return Scene2D.single_node(6.0, azimuth_deg=15.0, orientation_deg=-12.0, node_id="n0")


@pytest.fixture
def payloads():
    rng = np.random.default_rng(0)
    return {"n0": rng.integers(0, 2, 128), "n1": rng.integers(0, 2, 128)}


class TestSpatialIsolation:
    def test_grows_with_separation(self):
        near = MultiNodeUplink(scene_with_pair(8.0), seed=1)
        far = MultiNodeUplink(scene_with_pair(30.0), seed=1)
        assert far.spatial_isolation_db("n0", "n1") > near.spatial_isolation_db(
            "n0", "n1"
        )

    def test_symmetric_for_symmetric_geometry(self):
        mn = MultiNodeUplink(scene_with_pair(20.0), seed=2)
        assert mn.spatial_isolation_db("n0", "n1") == pytest.approx(
            mn.spatial_isolation_db("n1", "n0"), abs=0.1
        )


class TestSpectralIsolation:
    def test_same_orientation_means_overlapping_tones(self):
        # Both nodes at orientation 10 deg -> same tone pairs -> 0 dB.
        mn = MultiNodeUplink(scene_with_pair(20.0), seed=3)
        assert mn.spectral_isolation_db("n0", "n1", 5e6) == 0.0

    def test_different_orientations_separate_tones(self):
        scene = Scene2D.single_node(3.0, azimuth_deg=-10.0, orientation_deg=25.0, node_id="n0")
        x = 3.0 * math.cos(math.radians(10.0))
        y = 3.0 * math.sin(math.radians(10.0))
        scene = scene.with_node(
            NodePlacement(Pose2D.at(x, y, 10.0 + 180.0 + 15.0), "n1")
        )
        mn = MultiNodeUplink(scene, seed=4)
        assert mn.spectral_isolation_db("n0", "n1", 5e6) > 20.0


class TestConcurrentSlot:
    def test_well_separated_nodes_both_clean(self, payloads):
        mn = MultiNodeUplink(scene_with_pair(30.0), seed=5)
        results = mn.simulate_slot(payloads)
        assert results["n0"].ber == 0.0
        assert results["n1"].ber == 0.0
        assert results["n0"].sinr_db > 18.0

    def test_sinr_degrades_as_nodes_approach(self, payloads):
        sinrs = []
        for separation in (30.0, 14.0, 7.0):
            mn = MultiNodeUplink(scene_with_pair(separation), seed=6)
            sinrs.append(mn.simulate_slot(payloads)["n0"].sinr_db)
        assert sinrs[0] > sinrs[1] > sinrs[2]

    def test_scheduler_default_separation_is_safe(self, payloads):
        # The SdmScheduler groups nodes >=18 deg apart; that must leave a
        # usable link.
        mn = MultiNodeUplink(scene_with_pair(18.0), seed=7)
        results = mn.simulate_slot(payloads)
        assert results["n0"].sinr_db > 10.0
        assert results["n0"].ber < 0.01

    def test_interference_over_noise_reported(self, payloads):
        near = MultiNodeUplink(scene_with_pair(8.0), seed=8)
        far = MultiNodeUplink(scene_with_pair(40.0), seed=8)
        assert (
            near.simulate_slot(payloads)["n0"].interference_over_noise_db
            > far.simulate_slot(payloads)["n0"].interference_over_noise_db
        )

    def test_single_node_slot_matches_isolated_link(self, payloads):
        """A one-node slot is the engine's uplink: from the same generator
        state it draws the same variates and decodes the same bits."""
        for scene in (scene_with_pair(30.0), lone_node_scene()):
            sim = MilBackSimulator(scene, seed=9, node_id="n0")
            mn = MultiNodeUplink(scene, node=sim.node, ap=sim.ap, seed=copy.deepcopy(sim.rng))
            solo = mn.simulate_slot({"n0": payloads["n0"]})
            isolated = sim.simulate_uplink(payloads["n0"])
            assert solo["n0"].ber == 0.0
            assert solo["n0"].interference_over_noise_db == -math.inf
            assert solo["n0"].ber == isolated.ber
            assert solo["n0"].sinr_db == isolated.snr_db

    def test_unknown_node_rejected(self, payloads):
        mn = MultiNodeUplink(scene_with_pair(30.0), seed=10)
        with pytest.raises(Exception):
            mn.simulate_slot({"ghost": payloads["n0"]})

    def test_empty_payloads_rejected(self):
        mn = MultiNodeUplink(scene_with_pair(30.0), seed=11)
        with pytest.raises(ConfigurationError):
            mn.simulate_slot({})

    def test_empty_scene_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiNodeUplink(Scene2D())


def scene_with_pair_orientations(
    separation_deg: float, ori0: float, ori1: float, distance_m: float = 3.0
) -> Scene2D:
    half = separation_deg / 2.0
    scene = Scene2D.single_node(
        distance_m, azimuth_deg=-half, orientation_deg=ori0, node_id="n0"
    )
    x = distance_m * math.cos(math.radians(half))
    y = distance_m * math.sin(math.radians(half))
    return scene.with_node(
        NodePlacement(Pose2D.at(x, y, half + 180.0 - ori1), "n1")
    )


class TestConcurrentDownlink:
    @pytest.fixture
    def dl_payloads(self):
        rng = np.random.default_rng(1)
        return {"n0": rng.integers(0, 2, 64), "n1": rng.integers(0, 2, 64)}

    def test_distinct_orientations_deliver_error_free(self, dl_payloads):
        scene = scene_with_pair_orientations(18.0, 18.0, -12.0)
        results = MultiNodeDownlink(scene, seed=5).simulate_slot(dl_payloads)
        assert results["n0"].ber == 0.0
        assert results["n1"].ber == 0.0

    def test_sinr_grows_with_separation(self, dl_payloads):
        sinrs = []
        for separation in (8.0, 18.0, 36.0):
            scene = scene_with_pair_orientations(separation, 18.0, -12.0)
            results = MultiNodeDownlink(scene, seed=5).simulate_slot(dl_payloads)
            sinrs.append(results["n0"].sinr_db)
        assert sinrs[0] < sinrs[1] < sinrs[2]

    def test_same_orientation_tone_collision_hurts(self, dl_payloads):
        """Two nodes with identical orientation share tone frequencies;
        only wide beam separation can isolate them — the downlink-SDM
        planning constraint this module surfaces."""
        close = scene_with_pair_orientations(8.0, 10.0, 10.0)
        wide = scene_with_pair_orientations(36.0, 10.0, 10.0)
        ber_close = MultiNodeDownlink(close, seed=6).simulate_slot(dl_payloads)["n0"].ber
        ber_wide = MultiNodeDownlink(wide, seed=6).simulate_slot(dl_payloads)["n0"].ber
        assert ber_wide == 0.0
        assert ber_close > ber_wide

    def test_single_node_slot_matches_isolated_link(self, dl_payloads):
        """A one-node slot is the engine's OAQFM downlink, bit for bit."""
        for scene in (scene_with_pair_orientations(18.0, 18.0, -12.0), lone_node_scene()):
            sim = MilBackSimulator(scene, seed=5, node_id="n0")
            mn = MultiNodeDownlink(
                scene, node=sim.node, ap=sim.ap, seed=copy.deepcopy(sim.rng)
            )
            solo = mn.simulate_slot({"n0": dl_payloads["n0"]})["n0"]
            isolated = sim.simulate_downlink(dl_payloads["n0"])
            assert not isolated.used_ook_fallback
            assert solo.ber == isolated.ber
            assert solo.sinr_db == isolated.sinr_db

    def test_empty_payloads_rejected(self):
        scene = scene_with_pair_orientations(18.0, 18.0, -12.0)
        with pytest.raises(ConfigurationError):
            MultiNodeDownlink(scene, seed=7).simulate_slot({})
