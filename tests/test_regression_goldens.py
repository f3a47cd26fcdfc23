"""Regression goldens: seeded end-to-end outputs pinned with tolerances.

These catch silent calibration drift: if a refactor moves any headline
number materially, one of these trips. Tolerances are loose enough to
survive innocuous RNG-order changes in the same code path, tight enough
to flag a physics regression.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import faults, obs
from repro.channel.scene import NodePlacement, Scene2D
from repro.errors import ProtocolError
from repro.hardware.power import NodeMode
from repro.netsim import (
    SCENARIOS,
    dump_json,
    get_scenario,
    matrix_document,
    run_scenario,
)
from repro.node.firmware import PayloadDirection
from repro.node.node import BackscatterNode
from repro.protocol.link import MilBackLink
from repro.sim.engine import MilBackSimulator
from repro.utils.geometry import Pose2D
from repro.utils.rng import indexed_rngs

GOLDENS = Path(__file__).parent / "goldens"

#: (distance m, azimuth deg, orientation deg) of the sensing goldens' scenes.
SENSING_SCENES = ((1.5, -20.0, 10.0), (3.0, 0.0, -15.0), (6.0, 25.0, 5.0))
SENSING_SEEDS = 2
SENSING_VELOCITY_MPS = 1.5
#: Probe pointing relative to the node's azimuth: on the node, and off it.
SENSING_PROBE_OFFSETS_DEG = (0.0, 15.0)


def _fields(prefix: str, record) -> dict[str, float]:
    return {
        f"{prefix}/{f.name}": float(getattr(record, f.name))
        for f in dataclasses.fields(record)
    }


def sensing_document() -> dict[str, float]:
    """Every sensing-path return over the scene × seed grid, flattened to
    ``"case/call/field" -> value``.

    Each call gets its own simulator on its own ``indexed_rngs`` stream, so
    one call's draws never shift another's.
    """
    doc: dict[str, float] = {}
    for i, (distance_m, azimuth_deg, orientation_deg) in enumerate(SENSING_SCENES):
        scene = Scene2D.single_node(distance_m, azimuth_deg, orientation_deg)
        for s in range(SENSING_SEEDS):
            case = f"d{distance_m}-az{azimuth_deg}-o{orientation_deg}/s{s}"
            rngs = iter(indexed_rngs(0, i * SENSING_SEEDS + s, 8))

            def sim() -> MilBackSimulator:
                return MilBackSimulator(scene, seed=next(rngs))

            doc.update(_fields(f"{case}/localize", MilBackLink(sim()).localize()))
            doc.update(_fields(
                f"{case}/music8", sim().simulate_localization_array(8, "music")
            ))
            doc.update(_fields(
                f"{case}/bartlett4", sim().simulate_localization_array(4, "bartlett")
            ))
            doc.update(_fields(f"{case}/ap_orientation", sim().simulate_ap_orientation()))
            rng_est, vel_est = sim().simulate_velocity(SENSING_VELOCITY_MPS)
            doc.update({
                f"{case}/velocity/distance_m": rng_est.distance_m,
                f"{case}/velocity/beat_frequency_hz": rng_est.beat_frequency_hz,
                f"{case}/velocity/peak_magnitude": rng_est.peak_magnitude,
            })
            doc.update(_fields(f"{case}/velocity", vel_est))
            for offset in SENSING_PROBE_OFFSETS_DEG:
                probe = sim().probe_direction(azimuth_deg + offset)
                for name, value in zip(("magnitude", "distance_m", "coherence"), probe):
                    doc[f"{case}/probe{offset}/{name}"] = float(value)
            observed = sim().observe_burst()
            for port, power in zip("AB", observed.port_power_dbm):
                doc[f"{case}/observe/port_power_dbm_{port}"] = power
            for m, mean_v in enumerate(observed.envelope_mean_v):
                doc[f"{case}/observe/envelope_mean_v_{m}"] = mean_v
            if observed.localization is not None:
                doc.update(_fields(f"{case}/observe/fix", observed.localization))
    return doc


#: (distance m, azimuth deg, orientation deg) of the comms goldens' scenes;
#: the 0° node sits at normal incidence, where the downlink falls back to OOK.
COMMS_SCENES = ((2.0, -15.0, 10.0), (6.0, 20.0, -12.0), (3.0, 5.0, 0.0))
COMMS_SEEDS = 2
COMMS_PAYLOAD = b"MilBack comms golden"
#: Two-node downlink slot: payloads of unequal length, so each node's
#: foreign-beam gates are cut to the shorter stream.
COMMS_SLOT_BITS = {"n0": 64, "n1": 48}
#: Three-node uplink slot, unequal payloads again.
COMMS_UPLINK_SLOT_BITS = {"n0": 64, "n1": 48, "n2": 80}
#: Detector and ADC faults that strike about every other opportunity. Each
#: hook draws from the plan's RNG when it is called, so the armed returns
#: pin the order in which the node detects and samples its two ports.
COMMS_FAULTS = (
    faults.FaultSpec("detector_gain_drift", rate=0.5, intensity=0.5),
    faults.FaultSpec("adc_saturation", rate=0.5, intensity=0.5),
    faults.FaultSpec("adc_stuck_bits", rate=0.5, intensity=0.5),
)


def comms_document() -> dict[str, float]:
    """Every communication-path return over the scene × seed grid, flattened
    to ``"case/call/field" -> value``: both session directions, the Field-1
    firmware decision, node orientation, OAQFM (or OOK), dense OAQFM and
    uplink bursts with their detector traces reduced to sum and sum of
    squares; Field 1, node orientation and a downlink session under
    :data:`COMMS_FAULTS`; one two-node SDM downlink slot and one
    three-node SDM uplink slot.

    As in :func:`sensing_document`, each call gets its own simulator on its
    own ``indexed_rngs`` stream.
    """
    from repro.phy.dense_oaqfm import DenseOaqfmScheme
    from repro.sim.multinode import MultiNodeDownlink, MultiNodeUplink

    doc: dict[str, float] = {}
    for i, (distance_m, azimuth_deg, orientation_deg) in enumerate(COMMS_SCENES):
        scene = Scene2D.single_node(distance_m, azimuth_deg, orientation_deg)
        for s in range(COMMS_SEEDS):
            case = f"d{distance_m}-az{azimuth_deg}-o{orientation_deg}/s{s}"
            rngs = iter(indexed_rngs(1, i * COMMS_SEEDS + s, 14))
            bits = np.random.default_rng(100 + i * COMMS_SEEDS + s).integers(0, 2, 96)

            def sim() -> MilBackSimulator:
                return MilBackSimulator(scene, seed=next(rngs))

            def faulted():
                return faults.activate(faults.FaultPlan(COMMS_FAULTS, rng=next(rngs)))

            for name, exchange in (
                ("send", MilBackLink.send_to_node),
                ("receive", MilBackLink.receive_from_node),
            ):
                session = exchange(MilBackLink(sim()), COMMS_PAYLOAD)
                for field in ("crc_ok", "delivered", "link_quality_db", "air_time_s"):
                    doc[f"{case}/{name}/{field}"] = float(getattr(session, field))
                doc.update(_fields(f"{case}/{name}/node_orientation", session.node_orientation))
            for announce_uplink in (True, False):
                simulator = sim()
                decision = simulator.node.firmware.classify_field1(
                    *simulator.simulate_field1(announce_uplink)
                )
                key = f"{case}/field1_{'up' if announce_uplink else 'down'}"
                doc[f"{key}/uplink"] = float(decision.direction is PayloadDirection.UPLINK)
                for k, energy in enumerate(decision.slot_energies):
                    doc[f"{key}/slot_energy_{k}"] = energy
            doc.update(_fields(f"{case}/node_orientation", sim().simulate_node_orientation()))
            downlink = sim().simulate_downlink(bits, keep_traces=True)
            doc[f"{case}/downlink/ook"] = float(downlink.used_ook_fallback)
            doc[f"{case}/downlink/ber"] = downlink.ber
            for port, trace in (("a", downlink.detector_a), ("b", downlink.detector_b)):
                if trace is not None:
                    doc[f"{case}/downlink/sinr_{port}_db"] = getattr(
                        downlink, f"sinr_{port}_db"
                    )
                    video_v = trace.samples.real
                    doc[f"{case}/downlink/trace_{port}_sum"] = float(np.sum(video_v))
                    doc[f"{case}/downlink/trace_{port}_sumsq"] = float(np.sum(video_v**2))
            if not downlink.used_ook_fallback:
                dense = sim().simulate_downlink_dense(bits, DenseOaqfmScheme(4))
                doc[f"{case}/downlink_dense/ber"] = dense.ber
            uplink = sim().simulate_uplink(bits)
            doc.update({
                f"{case}/uplink/ber": uplink.ber,
                f"{case}/uplink/snr_a_db": uplink.snr_a_db,
                f"{case}/uplink/snr_b_db": uplink.snr_b_db,
            })
            with faulted():
                simulator = sim()
                decision = simulator.node.firmware.classify_field1(
                    *simulator.simulate_field1(True)
                )
            for k, energy in enumerate(decision.slot_energies):
                doc[f"{case}/faulted/field1_up/slot_energy_{k}"] = energy
            with faulted():
                orientation = sim().simulate_node_orientation()
            doc.update(_fields(f"{case}/faulted/node_orientation", orientation))
            with faulted():
                try:
                    session = MilBackLink(sim()).send_to_node(COMMS_PAYLOAD)
                except ProtocolError:
                    doc[f"{case}/faulted/send/failed"] = 1.0
                else:
                    for field in ("crc_ok", "link_quality_db"):
                        doc[f"{case}/faulted/send/{field}"] = float(getattr(session, field))
                    doc.update(_fields(
                        f"{case}/faulted/send/node_orientation", session.node_orientation
                    ))
    # n0 at -9° facing 18° off the AP, n1 at +9° facing -12° off it.
    n1_pose = Pose2D.at(
        3.0 * math.cos(math.radians(9.0)), 3.0 * math.sin(math.radians(9.0)), 201.0
    )
    slot_scene = Scene2D.single_node(3.0, -9.0, 18.0, node_id="n0").with_node(
        NodePlacement(n1_pose, "n1")
    )
    payload_rng = np.random.default_rng(7)
    payloads = {
        node_id: payload_rng.integers(0, 2, n_bits)
        for node_id, n_bits in COMMS_SLOT_BITS.items()
    }
    slot = MultiNodeDownlink(slot_scene, seed=indexed_rngs(1, 99, 1)[0]).simulate_slot(
        payloads
    )
    for node_id, result in slot.items():
        for field in ("ber", "sinr_db", "interference_over_noise_db"):
            doc[f"multinode_downlink/{node_id}/{field}"] = float(getattr(result, field))
    # n2 at +24° facing 8° off the AP.
    n2_pose = Pose2D.at(
        4.0 * math.cos(math.radians(24.0)), 4.0 * math.sin(math.radians(24.0)), 196.0
    )
    payloads = {
        node_id: payload_rng.integers(0, 2, n_bits)
        for node_id, n_bits in COMMS_UPLINK_SLOT_BITS.items()
    }
    slot = MultiNodeUplink(
        slot_scene.with_node(NodePlacement(n2_pose, "n2")), seed=indexed_rngs(1, 98, 1)[0]
    ).simulate_slot(payloads)
    for node_id, result in slot.items():
        for field in ("ber", "sinr_db", "interference_over_noise_db"):
            doc[f"multinode_uplink/{node_id}/{field}"] = float(getattr(result, field))
    return doc


class TestHeadlineGoldens:
    def test_downlink_sinr_at_2m(self):
        sinrs = []
        for s in range(6):
            sim = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=10.0), seed=s)
            bits = np.random.default_rng(s).integers(0, 2, 128)
            sinrs.append(sim.simulate_downlink(bits, 2e6).sinr_db)
        # Calibrated anchor: ~28 dB (paper ~25).
        assert 24.0 < float(np.mean(sinrs)) < 32.0

    def test_downlink_sinr_at_10m(self):
        sinrs = []
        for s in range(6):
            sim = MilBackSimulator(Scene2D.single_node(10.0, orientation_deg=10.0), seed=s)
            bits = np.random.default_rng(s).integers(0, 2, 128)
            sinrs.append(sim.simulate_downlink(bits, 2e6).sinr_db)
        # Paper: >12 dB at 10 m.
        assert 12.0 < float(np.mean(sinrs)) < 18.0

    def test_uplink_snr_cap_region(self):
        snrs = []
        for s in range(6):
            sim = MilBackSimulator(Scene2D.single_node(1.5, orientation_deg=10.0), seed=s)
            bits = np.random.default_rng(s).integers(0, 2, 128)
            snrs.append(sim.simulate_uplink(bits, 10e6).snr_db)
        # The phase-noise cap: ~24-25 dB measured.
        assert 22.0 < float(np.mean(snrs)) < 28.0

    def test_uplink_snr_at_8m(self):
        snrs = []
        for s in range(6):
            sim = MilBackSimulator(Scene2D.single_node(8.0, orientation_deg=10.0), seed=s)
            bits = np.random.default_rng(s).integers(0, 2, 128)
            snrs.append(sim.simulate_uplink(bits, 10e6).snr_db)
        # The paper's 8 m / 10 Mbps operating point: ~14 dB here.
        assert 11.0 < float(np.mean(snrs)) < 18.0

    def test_ranging_error_at_5m(self):
        errors = []
        for s in range(10):
            sim = MilBackSimulator(Scene2D.single_node(5.0, orientation_deg=10.0), seed=s)
            errors.append(abs(sim.simulate_localization().distance_error_m))
        # Paper: <5 cm mean at 5 m; ours ~3-4 cm.
        assert float(np.mean(errors)) < 0.06

    def test_node_orientation_error_band(self):
        errors = []
        for s in range(8):
            sim = MilBackSimulator(Scene2D.single_node(2.0, orientation_deg=12.0), seed=s)
            errors.append(abs(sim.simulate_node_orientation().error_deg))
        # Paper: <3 deg mean; ours well under.
        assert float(np.mean(errors)) < 1.5

    def test_power_budget_exact(self):
        node = BackscatterNode()
        assert node.power_w(NodeMode.DOWNLINK) == pytest.approx(18e-3, rel=1e-9)
        assert node.power_w(NodeMode.UPLINK) == pytest.approx(32e-3, rel=1e-9)

    def test_rate_ceilings_exact(self):
        node = BackscatterNode()
        assert node.max_downlink_rate_bps() == pytest.approx(36e6, rel=1e-9)
        assert node.max_uplink_rate_bps() == pytest.approx(160e6, rel=1e-9)

    def test_fsa_scan_exact(self):
        node = BackscatterNode()
        assert node.fsa.scan_coverage_deg() == pytest.approx(60.0, abs=2.0)
        pair = node.fsa.alignment_pair(10.5)
        # The Fig. 11 anchor: tones near 28.44 / 27.35 GHz at 10.5 deg.
        assert pair.freq_a_hz == pytest.approx(28.46e9, rel=3e-3)
        assert pair.freq_b_hz == pytest.approx(27.35e9, rel=3e-3)


class TestNetsimGoldens:
    """Netsim's canonical JSON, byte for byte, against files recorded
    before the link model evaluated fleets in array form. The
    ``single-ap-1000`` entries (a 1,000-row stream block, a 2048-slot
    frame cap, a 4096-event trace ring) were recorded before a fleet's
    streams were derived in one array pass. A mismatch shows as a diff
    of the two documents."""

    #: The e2e benchmark's ``fleet-roaming`` cut of ``three-ap-roaming``;
    #: seed 0 hands off five times.
    ROAMING_CUT = {
        "name": "three-ap-roaming-40-mobile-2s",
        "n_nodes": 40,
        "mobile_fraction": 1.0,
        "horizon_s": 2.0,
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matrix_json_matches_golden(self, seed, monkeypatch):
        cut = dataclasses.replace(get_scenario("three-ap-roaming"), **self.ROAMING_CUT)
        monkeypatch.setitem(SCENARIOS, cut.name, cut)
        names = ("five-node-crosscheck", "single-ap-100", "single-ap-1000", cut.name)
        results = [run_scenario(name, seed=seed) for name in names]
        expected = (GOLDENS / f"netsim-seed{seed}.json").read_text()
        assert dump_json(matrix_document(results, seed)) == expected


class TestNetsimCacheTraffic:
    """Link-cache hits and misses of whole scenario runs. A link-model
    change that claims to keep every output must keep these totals too.

    The totals count one lookup per ``FleetLink`` per simulated instant.
    Before a ``FleetLink`` kept its observation for the instant, each data
    frame, ACK and retry of a transfer looked its link up again, and every
    repeat was a hit on the key the first lookup stored. Those totals
    were (hits, misses): roaming cut (168, 5276) and (67, 5500),
    ``five-node-crosscheck`` (15, 5) and (12, 5), ``single-ap-100``
    (267, 100) and (236, 100) at seeds 0 and 1. Counting every
    ``FleetLink`` observation after its link's first gave 44, 27, 5, 5,
    102 and 100 repeats; each pin below is the old hits minus those
    repeats, with the misses unchanged.
    """

    #: (scenario, seed) -> (cache.hits, cache.misses) of cache=netsim_link.
    TOTALS = {
        (TestNetsimGoldens.ROAMING_CUT["name"], 0): (124, 5276),
        (TestNetsimGoldens.ROAMING_CUT["name"], 1): (40, 5500),
        ("five-node-crosscheck", 0): (10, 5),
        ("five-node-crosscheck", 1): (7, 5),
        ("single-ap-100", 0): (165, 100),
        ("single-ap-100", 1): (136, 100),
    }

    @pytest.mark.parametrize(("name", "seed"), list(TOTALS))
    def test_link_cache_traffic_matches_golden(self, name, seed, monkeypatch):
        cut = dataclasses.replace(
            get_scenario("three-ap-roaming"), **TestNetsimGoldens.ROAMING_CUT
        )
        monkeypatch.setitem(SCENARIOS, cut.name, cut)
        obs.reset()
        run_scenario(name, seed=seed)
        traffic = (
            obs.counter("cache.hits", cache="netsim_link").value,
            obs.counter("cache.misses", cache="netsim_link").value,
        )
        assert traffic == self.TOTALS[name, seed]


class TestSensingGoldens:
    """The sensing path's returns (ranging, two-horn and array AoA, AP
    orientation, velocity, discovery probes, dataset observables) against
    values recorded before the beat burst became one array end to end.

    ``rel=1e-9`` is tight enough to catch a changed formula or draw
    order, and loose enough for last-bit differences between CPUs.
    """

    def test_sensing_returns_match_golden(self):
        expected = json.loads((GOLDENS / "sensing-seed0.json").read_text())
        assert sensing_document() == pytest.approx(expected, rel=1e-9)


class TestCommsGoldens:
    """The communication path's returns (sessions in both directions,
    Field-1 decisions with their slot energies, node orientation, OAQFM,
    OOK, dense and uplink bursts, detector traces, fault-armed Field 1,
    node orientation and downlink session, SDM downlink and uplink slots)
    against values recorded before the engine's receive steps were shared
    with the SDM slots.

    The headline goldens bound these paths only within dB-wide bands;
    ``rel=1e-9`` catches a changed formula or draw order here too.
    """

    def test_comms_returns_match_golden(self):
        expected = json.loads((GOLDENS / "comms-seed0.json").read_text())
        assert comms_document() == pytest.approx(expected, rel=1e-9)
