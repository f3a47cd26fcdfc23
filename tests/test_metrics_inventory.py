"""Tests for RF metrics and the slotted inventory protocol."""

import math

import numpy as np
import pytest

from repro.analysis.metrics import (
    evm_percent,
    occupied_bandwidth_hz,
    papr_db,
    tone_snr_db,
)
from repro.channel.scene import NodePlacement, Scene2D
from repro.dsp.noise import awgn
from repro.dsp.signal import Signal
from repro.dsp.waveforms import SawtoothChirp, sawtooth_chirp, tone, two_tone
from repro.errors import ProtocolError, SignalError
from repro.protocol.inventory import SlottedInventory, inventory_frame, next_frame_size
from repro.protocol.mac import SdmScheduler
from repro.utils.geometry import Pose2D


class TestPapr:
    def test_single_tone_is_0db(self):
        s = tone(28e9, 1e-6, 1e9, center_frequency_hz=28e9)
        assert papr_db(s) == pytest.approx(0.0, abs=0.01)

    def test_chirp_is_0db(self):
        s = sawtooth_chirp(SawtoothChirp(), 4e9)
        assert papr_db(s) == pytest.approx(0.0, abs=0.01)

    def test_two_tone_is_3db(self):
        s = two_tone(28.1e9, 27.9e9, 10e-6, 2e9, center_frequency_hz=28e9)
        assert papr_db(s) == pytest.approx(3.0, abs=0.2)

    def test_zero_signal_rejected(self):
        with pytest.raises(SignalError):
            papr_db(Signal(np.zeros(10, dtype=complex), 1e6))


class TestOccupiedBandwidth:
    def test_tone_is_narrow(self):
        s = tone(28e9 + 5e6, 100e-6, 100e6, center_frequency_hz=28e9)
        assert occupied_bandwidth_hz(s) < 1e6

    def test_chirp_fills_sweep(self):
        s = sawtooth_chirp(SawtoothChirp(), 4e9)
        bw = occupied_bandwidth_hz(s)
        assert bw == pytest.approx(3e9, rel=0.05)

    def test_two_tone_spans_separation(self):
        s = two_tone(28.2e9, 27.8e9, 20e-6, 2e9, center_frequency_hz=28e9)
        assert occupied_bandwidth_hz(s) == pytest.approx(0.4e9, rel=0.1)

    def test_invalid_fraction_rejected(self):
        s = tone(28e9, 1e-6, 1e9, center_frequency_hz=28e9)
        with pytest.raises(SignalError):
            occupied_bandwidth_hz(s, fraction=1.0)


class TestEvm:
    def test_identical_signals_zero_evm(self):
        s = tone(28e9, 1e-6, 1e9, center_frequency_hz=28e9)
        assert evm_percent(s, s) == pytest.approx(0.0, abs=1e-9)

    def test_gain_and_phase_offsets_removed(self):
        s = tone(28e9, 1e-6, 1e9, center_frequency_hz=28e9)
        scaled = s.scaled(3.0).phase_shifted(1.0)
        assert evm_percent(scaled, s) == pytest.approx(0.0, abs=1e-6)

    def test_noise_sets_evm(self):
        s = tone(28e9, 100e-6, 1e8, center_frequency_hz=28e9)
        noisy = awgn(s, 0.01, rng=1)  # SNR 20 dB
        # EVM ~ 1/sqrt(SNR) = 10%.
        assert evm_percent(noisy, s) == pytest.approx(10.0, rel=0.2)

    def test_empty_rejected(self):
        empty = Signal(np.array([], dtype=complex), 1e6)
        with pytest.raises(SignalError):
            evm_percent(empty, empty)


class TestToneSnr:
    def test_clean_tone_high_snr(self):
        s = tone(28e9 + 2e6, 200e-6, 40e6, center_frequency_hz=28e9)
        noisy = awgn(s, 1e-6, rng=2)
        snr = tone_snr_db(noisy, 2e6, 100e3)
        assert snr > 30.0

    def test_snr_tracks_noise_power(self):
        s = tone(28e9 + 2e6, 200e-6, 40e6, center_frequency_hz=28e9)
        quiet = tone_snr_db(awgn(s, 1e-6, rng=3), 2e6, 100e3)
        loud = tone_snr_db(awgn(s, 1e-4, rng=3), 2e6, 100e3)
        assert quiet - loud == pytest.approx(20.0, abs=2.0)

    def test_bad_band_rejected(self):
        s = tone(28e9, 1e-6, 1e9, center_frequency_hz=28e9)
        with pytest.raises(SignalError):
            tone_snr_db(s, 0.0, 0.0)


def tag_scene(azimuths_deg, distance_m=3.0):
    scene = None
    for i, az in enumerate(azimuths_deg):
        x = distance_m * math.cos(math.radians(az))
        y = distance_m * math.sin(math.radians(az))
        placement = NodePlacement(Pose2D.at(x, y, az + 180.0), f"tag-{i}")
        scene = Scene2D(nodes=(placement,)) if scene is None else scene.with_node(placement)
    return scene


class TestSlottedInventory:
    def test_single_tag_one_round(self):
        inventory = SlottedInventory(tag_scene([0.0]), seed=1)
        result = inventory.run()
        assert result.inventoried == ("tag-0",)
        assert result.n_rounds == 1

    def test_all_tags_inventoried(self):
        azimuths = [-30.0, -18.0, -6.0, 6.0, 18.0, 30.0]
        inventory = SlottedInventory(tag_scene(azimuths), seed=2)
        result = inventory.run()
        assert sorted(result.inventoried) == sorted(f"tag-{i}" for i in range(6))

    def test_rounds_bounded(self):
        azimuths = list(np.linspace(-30, 30, 12))
        inventory = SlottedInventory(tag_scene(azimuths), max_rounds=5, seed=3)
        result = inventory.run()
        assert result.n_rounds <= 5

    def test_sdm_resolves_separable_collisions(self):
        # Two tags far apart in azimuth: even when they pick the same
        # slot, SDM saves the round.
        inventory = SlottedInventory(tag_scene([-30.0, 30.0]), seed=4)
        result = inventory.run(initial_frame_size=1)  # guaranteed collision
        assert len(result.inventoried) == 2
        assert result.rounds[0].resolved_by_sdm == 1

    def test_angularly_close_tags_must_serialize(self):
        # Two tags 4 deg apart cannot share a slot; forcing them into one
        # slot yields a true collision.
        inventory = SlottedInventory(tag_scene([0.0, 4.0]), seed=5)
        result = inventory.run(initial_frame_size=1)
        assert result.rounds[0].collisions == 1
        # They still get resolved in later frames.
        assert len(result.inventoried) == 2

    def test_efficiency_metric(self):
        inventory = SlottedInventory(tag_scene([-25.0, 0.0, 25.0]), seed=6)
        result = inventory.run()
        assert result.slots_per_tag() >= 1.0

    def test_empty_scene_rejected(self):
        with pytest.raises(ProtocolError):
            SlottedInventory(Scene2D())

    @pytest.mark.parametrize("initial_frame_size", [0, -3])
    def test_initial_frame_size_below_one_rejected(self, initial_frame_size):
        inventory = SlottedInventory(tag_scene([-30.0, 30.0]), seed=4)
        with pytest.raises(ProtocolError, match="at least 1"):
            inventory.run(initial_frame_size=initial_frame_size)


class TestInventoryFrame:
    """The one frame function both inventories run."""

    def _counting_factory(self, scene):
        calls = []

        def factory():
            calls.append(1)
            return SdmScheduler(scene)

        return factory, calls

    def test_no_heard_collision_never_builds_the_scheduler(self):
        scene = tag_scene([-30.0, 0.0, 30.0])
        factory, calls = self._counting_factory(scene)
        tags = [p.node_id for p in scene.nodes]
        # A frame far larger than the tag count: find a seed where every
        # tag lands in its own slot.
        for seed in range(100):
            slots = np.random.default_rng(seed).integers(0, 64, size=len(tags))
            if len(set(slots.tolist())) == len(tags):
                break
        stats, resolved, heard = inventory_frame(
            np.random.default_rng(seed), tags, 64, lambda tag: True, factory
        )
        assert calls == []
        assert (stats.singles, stats.collisions, stats.resolved_by_sdm) == (3, 0, 0)
        assert heard == 3
        assert sorted(resolved) == sorted(tags)

    def test_collisions_build_the_scheduler_once_per_frame(self):
        # One slot: the four tags collide in it. Two pairs of them are
        # close in azimuth, so SDM cannot separate the slot.
        scene = tag_scene([-30.0, -28.0, 28.0, 30.0])
        factory, calls = self._counting_factory(scene)
        tags = [p.node_id for p in scene.nodes]
        stats, resolved, heard = inventory_frame(
            np.random.default_rng(0), tags, 1, lambda tag: True, factory
        )
        assert calls == [1]
        assert (stats.collisions, stats.empties, heard, resolved) == (1, 0, 4, [])
        # Two slots that each hold two tags (close pairs collide, far
        # pairs resolve by SDM): still one build for the whole frame.
        for seed in range(100):
            slots = np.random.default_rng(seed).integers(0, 2, size=len(tags))
            if int(slots.sum()) == 2:
                break
        factory, calls = self._counting_factory(scene)
        stats, _, _ = inventory_frame(
            np.random.default_rng(seed), tags, 2, lambda tag: True, factory
        )
        assert calls == [1]
        assert stats.collisions + stats.resolved_by_sdm == 2

    def test_unheard_tag_consumes_its_draw(self):
        scene = tag_scene([-30.0, 0.0, 30.0])
        tags = [p.node_id for p in scene.nodes]
        rng = np.random.default_rng(3)
        stats, resolved, heard = inventory_frame(
            rng, tags, 8, lambda tag: tag != "tag-1", lambda: SdmScheduler(scene)
        )
        assert heard == 2
        assert "tag-1" not in resolved
        assert stats.singles + stats.collisions + stats.resolved_by_sdm <= 2
        # The stream advanced by one draw per pending tag, heard or not.
        reference = np.random.default_rng(3)
        for _ in tags:
            reference.integers(0, 8)
        assert rng.integers(0, 2**32) == reference.integers(0, 2**32)

    def test_next_frame_size_clamps_the_backlog(self):
        assert [next_frame_size(c, 64) for c in (0, 1, 2, 31, 32, 33)] == [
            2, 2, 4, 62, 64, 64,
        ]
        assert next_frame_size(5, 2) == 2
