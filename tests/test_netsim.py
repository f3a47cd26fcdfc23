"""Tests for repro.netsim: kernel, link model, fleet actors, determinism."""

import math

import numpy as np
import pytest

from repro import obs
from repro.antennas.fsa import FrequencyScanningAntenna
from repro.channel.mobility import Waypoint, WaypointTrajectory
from repro.channel.scene import NodePlacement, Scene2D
from repro.constants import AP_TX_POWER_DBM, BAND_START_HZ, BAND_STOP_HZ
from repro.errors import NetworkSimError, ProtocolError
from repro.netsim import (
    FleetAp,
    FleetLink,
    FleetLinkModel,
    FleetNode,
    InventoryProcess,
    NetworkSimulation,
    RoamingController,
    SCENARIOS,
    build_fleet,
    dump_json,
    get_scenario,
    matrix_document,
    run_matrix,
    run_scenario,
    scenario_seed,
)
from repro.netsim.core import EventQueue
from repro.netsim.linkmodel import NODE_NOISE_FLOOR_DBM
from repro.protocol.arq import ReliableChannel
from repro.protocol.inventory import SlottedInventory
from repro.sim import linkbudget
from repro.sim.linkbudget import LinkBudget
from repro.utils.geometry import Pose2D
from repro.utils.rng import indexed_rngs


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        order = []
        q.push(2.0, lambda: order.append("b"))
        q.push(1.0, lambda: order.append("a"))
        q.push(3.0, lambda: order.append("c"))
        while q:
            _, action = q.pop()
            action()
        assert order == ["a", "b", "c"]

    def test_fifo_on_equal_timestamps(self):
        q = EventQueue()
        order = []
        for tag in range(20):
            q.push(1.0, lambda tag=tag: order.append(tag))
        while q:
            q.pop()[1]()
        assert order == list(range(20))

    def test_empty_pop_raises(self):
        q = EventQueue()
        with pytest.raises(NetworkSimError):
            q.pop()
        with pytest.raises(NetworkSimError):
            q.peek_time_s()


class TestNetworkSimulation:
    def test_clock_advances_to_dispatch_time(self):
        sim = NetworkSimulation()
        seen = []
        sim.schedule(0.5, lambda: seen.append(sim.now_s))
        sim.schedule(0.25, lambda: seen.append(sim.now_s))
        assert sim.run() == 2
        assert seen == [0.25, 0.5]
        assert sim.now_s == 0.5

    def test_until_advances_clock_past_drain(self):
        sim = NetworkSimulation()
        sim.schedule(0.1, lambda: None)
        sim.run(until_s=2.0)
        assert sim.now_s == 2.0

    def test_until_defers_later_events(self):
        sim = NetworkSimulation()
        sim.schedule(5.0, lambda: None)
        assert sim.run(until_s=1.0) == 0
        assert sim.pending == 1
        assert sim.now_s == 1.0

    def test_cannot_schedule_into_past(self):
        sim = NetworkSimulation()
        with pytest.raises(NetworkSimError):
            sim.schedule(-0.1, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(NetworkSimError):
            sim.schedule_at(0.5, lambda: None)

    def test_trace_records_on_simulated_clock(self):
        sim = NetworkSimulation()
        sim.schedule(0.125, lambda: sim.log("tick", n=1))
        sim.run()
        (event,) = sim.trace.events("tick")
        assert event.time_s == 0.125

    def test_max_events_stops_early(self):
        sim = NetworkSimulation()
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        assert sim.run(max_events=2) == 2
        assert sim.pending == 3


class TestFleetLinkModel:
    def test_monotone_rss_decay_with_distance(self):
        model = FleetLinkModel()
        ap = Pose2D.at(0.0, 0.0, 0.0)
        rss = [
            model.observe(ap, Pose2D.at(d, 0.0, 180.0)).rss_dbm
            for d in (2.0, 5.0, 10.0, 20.0)
        ]
        assert rss == sorted(rss, reverse=True)

    def test_frequency_steering_covers_wide_orientations(self):
        # Without tone steering a 25 deg orientation offset would be
        # tens of dB down; the aligned tone keeps the link alive.
        model = FleetLinkModel()
        ap = Pose2D.at(0.0, 0.0, 0.0)
        on_axis = model.observe(ap, Pose2D.at(5.0, 0.0, 180.0))
        steered = model.observe(ap, Pose2D.at(5.0, 0.0, 205.0))
        assert steered.uplink_snr_db > on_axis.uplink_snr_db - 3.0

    def test_cache_counts_and_returns_identical_values(self):
        obs.reset()
        model = FleetLinkModel()
        ap = Pose2D.at(0.0, 0.0, 0.0)
        node = Pose2D.at(4.0, 1.0, 190.0)
        first = model.observe(ap, node)
        second = model.observe(ap, node)
        assert first == second
        assert obs.counter("cache.misses", cache="netsim_link").value == 1
        assert obs.counter("cache.hits", cache="netsim_link").value == 1

    def test_miss_evaluates_pattern_and_path_loss_once(self, monkeypatch):
        calls = {"pattern": 0, "path_loss": 0}
        pattern = FrequencyScanningAntenna.gain_dbi
        path_loss = linkbudget.free_space_path_loss_db

        def counted_pattern(antenna, *args):
            calls["pattern"] += 1
            return pattern(antenna, *args)

        def counted_path_loss(*args):
            calls["path_loss"] += 1
            return path_loss(*args)

        monkeypatch.setattr(FrequencyScanningAntenna, "gain_dbi", counted_pattern)
        monkeypatch.setattr(linkbudget, "free_space_path_loss_db", counted_path_loss)
        model = FleetLinkModel()
        ap = Pose2D.at(0.0, 0.0, 0.0)
        node = Pose2D.at(4.0, 1.0, 190.0)
        model.observe(ap, node)
        assert calls == {"pattern": 1, "path_loss": 1}
        model.observe(ap, node)  # a hit evaluates nothing
        assert calls == {"pattern": 1, "path_loss": 1}

    def test_observe_matches_single_direction_budgets(self):
        # Reference: the LinkBudget methods for each direction on their
        # own. Orientations past +/-31 deg clamp the tone to a band edge.
        model = FleetLinkModel()
        ap = Pose2D.at(0.5, -0.25, 20.0)
        for x, y, heading in (
            (3.0, 1.0, 200.0),
            (12.0, -4.0, 170.0),
            (2.0, 2.0, 250.0),
            (6.0, 0.0, 140.0),
            (0.8, -0.3, 215.0),
        ):
            node = Pose2D.at(x, y, heading)
            budget = LinkBudget(
                Scene2D(ap, (NodePlacement(node, "node"),), ()), node_id="node"
            )
            aligned_hz = float(
                budget.fsa.port_a.alignment_frequency_hz(budget.node_orientation_deg())
            )
            tone_hz = min(max(aligned_hz, BAND_START_HZ), BAND_STOP_HZ)
            for blockage_db in (0.0, 6.5):
                got = model.observe(ap, node, blockage_db)
                rss_dbm = (
                    AP_TX_POWER_DBM
                    + budget.backscatter_gain_db("A", tone_hz)
                    - 2.0 * blockage_db
                )
                assert got.rss_dbm == rss_dbm
                assert got.uplink_snr_db == min(
                    rss_dbm - model.ap_noise_floor_dbm,
                    model.calibration.uplink_sinr_cap_db,
                )
                assert got.downlink_snr_db == (
                    AP_TX_POWER_DBM
                    + budget.downlink_port_gain_db("A", tone_hz)
                    - blockage_db
                    - NODE_NOISE_FLOOR_DBM
                )

    def test_cache_is_bounded(self):
        model = FleetLinkModel(cache_size=2)
        ap = Pose2D.at(0.0, 0.0, 0.0)
        for d in (2.0, 3.0, 4.0, 5.0):
            model.observe(ap, Pose2D.at(d, 0.0, 180.0))
        assert len(model._cache) == 2

    def test_blockage_hits_uplink_twice(self):
        model = FleetLinkModel()
        ap = Pose2D.at(0.0, 0.0, 0.0)
        node = Pose2D.at(5.0, 0.0, 180.0)
        clear = model.observe(ap, node)
        blocked = model.observe(ap, node, blockage_db=10.0)
        assert blocked.rss_dbm == pytest.approx(clear.rss_dbm - 20.0)
        assert blocked.downlink_snr_db == pytest.approx(
            clear.downlink_snr_db - 10.0
        )

    def test_interference_lowers_sinr(self):
        model = FleetLinkModel()
        ap = Pose2D.at(0.0, 0.0, 90.0)
        observation = model.observe(ap, Pose2D.at(0.0, 5.0, 270.0))
        clean = model.uplink_sinr_db(observation)
        other = Pose2D.at(24.0, 0.0, 90.0)
        interference = model.ap_interference_dbm(
            ap, Pose2D.at(0.0, 5.0), other, Pose2D.at(24.0, 10.0)
        )
        assert model.uplink_sinr_db(observation, (interference,)) <= clean

    def test_invalid_construction(self):
        with pytest.raises(NetworkSimError):
            FleetLinkModel(symbol_bandwidth_hz=0.0)
        with pytest.raises(NetworkSimError):
            FleetLinkModel(cache_size=0)


def _single_ap_fixture(n_nodes=5, seed=0, name="five-node-crosscheck"):
    spec = get_scenario(name)
    aps, nodes = build_fleet(spec, seed)
    aps[0].members = sorted(nodes)
    for node_id in aps[0].members:
        nodes[node_id].serving_ap = aps[0].ap_id
    return spec, aps[0], nodes


class TestFleetLink:
    def test_arq_over_fleet_link_delivers_in_range(self):
        _, ap, nodes = _single_ap_fixture()
        sim = NetworkSimulation()
        model = FleetLinkModel()
        node = nodes[sorted(nodes)[0]]
        channel = ReliableChannel(FleetLink(sim, model, ap, node))
        result = channel.send_reliable(b"hello-fleet")
        assert result.delivered
        assert result.air_time_s > 0.0

    def test_out_of_range_node_raises_no_response(self):
        _, ap, nodes = _single_ap_fixture()
        sim = NetworkSimulation()
        model = FleetLinkModel()
        node = nodes[sorted(nodes)[0]]
        far = FleetNode("far", 99, Pose2D.at(80.0, 80.0, 225.0), node.rng)
        link = FleetLink(sim, model, ap, far)
        with pytest.raises(ProtocolError):
            link.send_to_node(b"ping")
        with pytest.raises(ProtocolError):
            link.receive_from_node(b"pong")


class TestInventoryParity:
    """Netsim inventory must reproduce SlottedInventory draw for draw."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_five_node_round_matches_slotted_inventory(self, seed):
        spec, ap, nodes = _single_ap_fixture(seed=seed)
        derived = scenario_seed(seed, spec.name)

        placements = tuple(
            NodePlacement(nodes[node_id].pose, node_id) for node_id in ap.members
        )
        scene = Scene2D(ap.pose, placements, ())
        reference = SlottedInventory(
            scene, seed=indexed_rngs(derived, spec.n_nodes, 1)[0]
        ).run()

        sim = NetworkSimulation()
        done = {}
        InventoryProcess(
            sim,
            FleetLinkModel(),
            ap,
            nodes,
            indexed_rngs(derived, spec.n_nodes, 1)[0],
            on_complete=lambda result: done.setdefault("result", result),
        ).start()
        sim.run()
        assert done["result"] == reference

    def test_unreachable_tag_draws_slot_but_stays_pending(self):
        spec, ap, nodes = _single_ap_fixture()
        far_id = sorted(nodes)[0]
        nodes[far_id].pose = Pose2D.at(90.0, 90.0, 225.0)
        derived = scenario_seed(0, spec.name)
        sim = NetworkSimulation()
        done = {}
        InventoryProcess(
            sim,
            FleetLinkModel(),
            ap,
            nodes,
            indexed_rngs(derived, spec.n_nodes, 1)[0],
            on_complete=lambda result: done.setdefault("result", result),
        ).start()
        sim.run()
        result = done["result"]
        assert far_id not in result.inventoried
        assert len(result.inventoried) == spec.n_nodes - 1
        # The stranded tag keeps every frame alive to max_rounds.
        assert result.n_rounds == 32


class TestRoaming:
    def _mobile_fixture(self):
        model = FleetLinkModel()
        sim = NetworkSimulation()
        aps = [
            FleetAp("ap-0", Pose2D.at(0.0, 0.0, 90.0)),
            FleetAp("ap-1", Pose2D.at(24.0, 0.0, 90.0)),
        ]
        rng = np.random.default_rng(0)
        walk = WaypointTrajectory(
            [
                Waypoint(0.0, Pose2D.at(2.0, 4.0, -60.0)),
                Waypoint(10.0, Pose2D.at(22.0, 4.0, -120.0)),
            ]
        )
        nodes = {
            "walker": FleetNode("walker", 0, walk.pose_at(0.0), rng, trajectory=walk)
        }
        controller = RoamingController(
            sim, model, aps, nodes, interval_s=0.5, horizon_s=10.0
        )
        return sim, controller, nodes

    def test_walker_roams_to_far_ap(self):
        sim, controller, nodes = self._mobile_fixture()
        controller.attach_all()
        assert nodes["walker"].serving_ap == "ap-0"
        controller.start()
        sim.run(until_s=10.0)
        # The walk ends beside ap-1; an odd number of handoffs (>= 1)
        # lands the walker there, whatever cell-edge ping-pong occurred.
        assert nodes["walker"].serving_ap == "ap-1"
        assert controller.handoffs >= 1
        assert controller.handoffs % 2 == 1
        events = sim.trace.events("netsim.handoff")
        assert len(events) == controller.handoffs
        assert events[0].detail["from_ap"] == "ap-0"
        assert events[0].detail["to_ap"] == "ap-1"
        assert controller.handoffs_by_node == {"walker": controller.handoffs}

    def test_interference_field_lists_other_aps(self):
        sim, controller, _ = self._mobile_fixture()
        field = controller.interference_for("ap-0")
        values = field(0.0, Pose2D.at(2.0, 4.0))
        assert len(values) == 1
        assert values[0] < 0.0  # dBm, attenuated below TX power

    def test_needs_two_aps(self):
        model = FleetLinkModel()
        sim = NetworkSimulation()
        with pytest.raises(NetworkSimError):
            RoamingController(
                sim, model, [FleetAp("ap-0", Pose2D.at(0, 0))], {}
            )


class TestScenarios:
    def test_registry_versions_and_lookup(self):
        assert "single-ap-1000" in SCENARIOS
        for name, spec in SCENARIOS.items():
            assert spec.name == name
            assert spec.version >= 1
        with pytest.raises(NetworkSimError):
            get_scenario("no-such-scenario")

    def test_scenario_seed_is_stable_and_name_dependent(self):
        assert scenario_seed(0, "a") == scenario_seed(0, "a")
        assert scenario_seed(0, "a") != scenario_seed(0, "b")
        assert scenario_seed(0, "a") != scenario_seed(1, "a")

    def test_build_fleet_is_deterministic(self):
        spec = get_scenario("three-ap-roaming")
        aps_a, nodes_a = build_fleet(spec, 3)
        aps_b, nodes_b = build_fleet(spec, 3)
        assert [ap.pose for ap in aps_a] == [ap.pose for ap in aps_b]
        assert {k: v.pose for k, v in nodes_a.items()} == {
            k: v.pose for k, v in nodes_b.items()
        }
        mobile = [n for n in nodes_a.values() if n.trajectory is not None]
        assert 0 < len(mobile) < spec.n_nodes


class TestScenarioDeterminism:
    def test_run_is_bit_identical_across_repeats(self):
        a = run_scenario("single-ap-100", seed=0)
        b = run_scenario("single-ap-100", seed=0)
        assert a == b
        assert a.trace_digest == b.trace_digest

    def test_trace_and_tables_identical_serial_vs_workers(self):
        names = ["five-node-crosscheck", "single-ap-100"]
        obs.reset()
        serial = run_matrix(names, seed=0, max_workers=1)
        serial_counters = {
            "rounds": obs.counter("netsim.rounds").value,
            "inventoried": obs.counter("netsim.inventoried").value,
        }
        obs.reset()
        fanned = run_matrix(names, seed=0, max_workers=4)
        fanned_counters = {
            "rounds": obs.counter("netsim.rounds").value,
            "inventoried": obs.counter("netsim.inventoried").value,
        }
        assert serial == fanned
        assert serial_counters == fanned_counters
        assert dump_json(matrix_document(serial, 0)) == dump_json(
            matrix_document(fanned, 0)
        )

    def test_makes_no_kernel_calls(self):
        """Netsim runs at link-budget fidelity: no array kernel runs, so
        its tables cannot depend on the kernel implementation."""
        obs.reset()
        result = run_scenario("five-node-crosscheck", seed=0)
        assert result.inventoried == result.n_nodes
        snapshot = obs.get_registry().snapshot()
        assert not any(key.startswith("kernels.dispatch.") for key in snapshot)

    def test_different_seeds_differ(self):
        a = run_scenario("single-ap-100", seed=0)
        b = run_scenario("single-ap-100", seed=1)
        assert a.trace_digest != b.trace_digest


class TestScenarioOutcomes:
    def test_single_ap_100_inventories_everyone(self):
        result = run_scenario("single-ap-100", seed=0)
        assert result.inventoried == result.n_nodes
        assert result.transfers_total == result.n_nodes
        assert result.delivery_ratio > 0.95
        assert result.slots_per_tag < 4.0
        assert result.tags_per_s > 1000.0

    def test_roaming_scenario_hands_off_and_interferes(self):
        result = run_scenario("three-ap-roaming", seed=0)
        assert result.n_aps == 3
        assert result.handoffs > 0
        assert 0 < result.inventoried <= result.n_nodes
        assert result.sim_time_s == pytest.approx(30.0)

    def test_trace_capacity_bounds_long_runs(self):
        spec = get_scenario("three-ap-roaming")
        assert spec.trace_capacity is not None
        result = run_scenario("three-ap-roaming", seed=0)
        assert result.trace_events <= spec.trace_capacity
