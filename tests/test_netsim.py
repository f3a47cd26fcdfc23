"""Tests for repro.netsim: kernel, link model, fleet actors, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from repro import obs
from repro.antennas.fsa import FrequencyScanningAntenna
from repro.channel.mobility import Waypoint, WaypointTrajectory
from repro.channel.propagation import free_space_path_loss_db
from repro.channel.scene import NodePlacement, Scene2D
from repro.constants import AP_TX_POWER_DBM, BAND_CENTER_HZ, BAND_START_HZ, BAND_STOP_HZ
from repro.errors import ChannelError, NetworkSimError, ProtocolError
from repro.netsim import (
    FleetAp,
    FleetLink,
    FleetLinkModel,
    FleetNode,
    InventoryProcess,
    NetworkSimulation,
    RoamingController,
    SCENARIOS,
    TransferProcess,
    build_fleet,
    dump_json,
    get_scenario,
    matrix_document,
    run_matrix,
    run_scenario,
    scenario_seed,
    scenarios,
)
from repro.netsim.core import EventQueue
from repro.netsim.linkmodel import NODE_NOISE_FLOOR_DBM
from repro.netsim.roaming import _boresight_target
from repro.protocol.arq import ReliableChannel
from repro.protocol.inventory import SlottedInventory
from repro.sim import linkbudget
from repro.sim.linkbudget import LinkBudget
from repro.utils.geometry import Pose2D, angle_between_deg
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

    def test_max_events_stop_keeps_clock_before_due_events(self):
        sim = NetworkSimulation()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: sim.log("due", at_s=t))
        assert sim.run(until_s=10.0, max_events=1) == 1
        assert sim.now_s == 1.0
        assert sim.pending == 2
        sim.schedule(0.5, lambda: sim.log("late", at_s=1.5))
        assert sim.run(until_s=10.0) == 3
        assert sim.now_s == 10.0
        assert [(e.kind, e.time_s) for e in sim.trace.events()] == [
            ("due", 1.0), ("late", 1.5), ("due", 2.0), ("due", 3.0)
        ]
        assert all(e.time_s == e.detail["at_s"] for e in sim.trace.events())

    def test_max_events_stop_past_until_advances_clock(self):
        sim = NetworkSimulation()
        sim.schedule(1.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        assert sim.run(until_s=10.0, max_events=1) == 1
        assert sim.now_s == 10.0
        assert sim.pending == 1


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
            got = model.observe(ap, node)
            rss_dbm = AP_TX_POWER_DBM + budget.backscatter_gain_db("A", tone_hz)
            assert got.rss_dbm == rss_dbm
            assert got.uplink_snr_db == min(
                rss_dbm - model.ap_noise_floor_dbm,
                model.calibration.uplink_sinr_cap_db,
            )
            assert got.downlink_snr_db == (
                AP_TX_POWER_DBM
                + budget.downlink_port_gain_db("A", tone_hz)
                - NODE_NOISE_FLOOR_DBM
            )

    def test_cache_is_bounded(self):
        model = FleetLinkModel(cache_size=2)
        ap = Pose2D.at(0.0, 0.0, 0.0)
        for d in (2.0, 3.0, 4.0, 5.0):
            model.observe(ap, Pose2D.at(d, 0.0, 180.0))
        assert len(model._cache) == 2

    @staticmethod
    def _random_poses(n, seed=0):
        rng = np.random.default_rng(seed)
        return [
            Pose2D.at(x, y, heading)
            for x, y, heading in zip(
                rng.uniform(0.5, 16.0, n),
                rng.uniform(-8.0, 8.0, n),
                rng.uniform(-180.0, 180.0, n),
            )
        ]

    def test_grid_rows_match_observe(self):
        # Headings round the full circle: many tones clamp to a band edge.
        ap = Pose2D.at(0.5, -0.25, 20.0)
        poses = self._random_poses(200)
        (rows,) = FleetLinkModel().observe_grid([ap], poses)
        single = FleetLinkModel()
        for row, pose in zip(rows, poses):
            got = single.observe(ap, pose)
            expected = (got.rss_dbm, got.uplink_snr_db, got.downlink_snr_db)
            for value, want in zip(row, expected):
                assert abs(value - want) <= 1e-9

    def test_grid_counts_cache_traffic(self):
        obs.reset()
        model = FleetLinkModel()
        ap = Pose2D.at(0.0, 0.0, 0.0)
        poses = self._random_poses(7, seed=1)

        def traffic():
            return (
                obs.counter("cache.hits", cache="netsim_link").value,
                obs.counter("cache.misses", cache="netsim_link").value,
            )

        (rows,) = model.observe_grid([ap], poses)
        assert len(rows) == 7 and all(len(row) == 3 for row in rows)
        assert traffic() == (0, 7)
        assert model.observe_grid([ap], poses) == [rows]
        assert traffic() == (7, 7)
        # Inside one call a repeated new key is a hit after its first row.
        fresh = self._random_poses(2, seed=2)
        (repeated,) = model.observe_grid([ap], [fresh[0], fresh[1], fresh[0]])
        assert traffic() == (8, 9)
        assert repeated[0] == repeated[2]
        assert model.observe_grid([ap], []) == [[]]
        assert model.observe_grid([ap, ap], []) == [[], []]
        assert model.observe_grid([], poses) == []
        assert traffic() == (8, 9)
        # The cache is shared: observe hits a grid's entry, bit for bit.
        hit = model.observe(ap, poses[3])
        assert traffic() == (9, 9)
        assert (hit.rss_dbm, hit.uplink_snr_db, hit.downlink_snr_db) == rows[3]

    def test_interference_lowers_sinr(self):
        model = FleetLinkModel()
        ap = Pose2D.at(0.0, 0.0, 90.0)
        observation = model.observe(ap, Pose2D.at(0.0, 5.0, 270.0))
        clean = model.uplink_sinr_db(observation.rss_dbm)
        other = Pose2D.at(24.0, 0.0, 90.0)
        terms = model.interference_terms(ap, other, Pose2D.at(24.0, 10.0))
        (interference,) = model.interference_dbm(ap, [Pose2D.at(0.0, 5.0)], terms)
        assert model.uplink_sinr_db(observation.rss_dbm, (interference,)) <= clean

    def test_ap_interference_dbm_is_the_composition(self):
        model = FleetLinkModel()
        rx, tx = Pose2D.at(0.0, 0.0, 90.0), Pose2D.at(24.0, 0.0, 90.0)
        poses = self._random_poses(20, seed=9)
        terms = model.interference_terms(rx, tx, _boresight_target(tx))
        composed = model.ap_interference_dbm(rx, poses, tx, _boresight_target(tx))
        assert np.array_equal(composed, model.interference_dbm(rx, poses, terms))

    def test_invalid_construction(self):
        with pytest.raises(NetworkSimError):
            FleetLinkModel(cache_size=0)


def _one_pass_oracle(model, ap_poses, node_poses):
    """`observe_grid`'s rule written out: every key is looked up in the
    cache as the call found it; the call's distinct misses, in first-seen
    order, are evaluated in one `_evaluate` pass and stored after it, the
    oldest entry going once the cache is full; one miss counts per
    distinct key and a hit for every other query."""
    found = dict(model._cache)
    keys = [
        [(ap.distance_to(pose), pose.relative_bearing_to(ap)) for pose in node_poses]
        for ap in ap_poses
    ]
    queries = [key for row in keys for key in row]
    misses = list(dict.fromkeys(key for key in queries if key not in found))
    if misses:
        distance_m, orientation_deg = zip(*misses)
        columns = model._evaluate(np.array(distance_m), np.array(orientation_deg))
        for key, row in zip(misses, zip(*(c.tolist() for c in columns))):
            found[key] = row
            if len(model._cache) == model._cache_size:
                del model._cache[next(iter(model._cache))]
            model._cache[key] = row
        obs.counter("cache.misses", cache="netsim_link").inc(len(misses))
    if len(queries) > len(misses):
        obs.counter("cache.hits", cache="netsim_link").inc(len(queries) - len(misses))
    return [[found[key] for key in row] for row in keys]


class TestLinkGrid:
    """`observe_grid` against its rule (`_one_pass_oracle`): the same rows
    bit for bit, one `_evaluate` pass per call with misses, the same
    cache traffic and the same cache, key order included."""

    @staticmethod
    def _traffic():
        return (
            obs.counter("cache.hits", cache="netsim_link").value,
            obs.counter("cache.misses", cache="netsim_link").value,
        )

    def _assert_matches_oracle(self, monkeypatch, cache_size, calls):
        grid = FleetLinkModel(cache_size=cache_size)
        oracle = FleetLinkModel(cache_size=cache_size)
        passes = []
        evaluate = grid._evaluate

        def counted(distance_m, orientation_deg):
            passes.append(len(distance_m))
            return evaluate(distance_m, orientation_deg)

        monkeypatch.setattr(grid, "_evaluate", counted)
        for ap_poses, node_poses in calls:
            passes.clear()
            obs.reset()
            got = grid.observe_grid(ap_poses, node_poses)
            got_traffic = self._traffic()
            obs.reset()
            expected = _one_pass_oracle(oracle, ap_poses, node_poses)
            assert got == expected
            assert all(type(v) is float for rows in got for row in rows for v in row)
            assert got_traffic == self._traffic()
            assert passes == ([got_traffic[1]] if got_traffic[1] else [])
            assert list(grid._cache.items()) == list(oracle._cache.items())

    @staticmethod
    def _random_calls(seed):
        """Grid calls over three random APs and a pool of 16 node poses:
        later calls hit earlier entries, nodes repeat inside a call, and
        the second call adds one new node to the first call's nodes, so
        with a cache that keeps them every AP has exactly one miss, and
        the three misses join one pass."""
        rng = np.random.default_rng(seed)
        aps = [
            Pose2D.at(x, y, heading)
            for x, y, heading in zip(
                rng.uniform(-12.0, 12.0, 3),
                rng.uniform(-12.0, 12.0, 3),
                rng.uniform(-180.0, 180.0, 3),
            )
        ]
        pool = TestFleetLinkModel._random_poses(16, seed=seed + 1000)
        calls = [(aps, pool[:6]), (aps, pool[:6] + pool[6:7])]
        for _ in range(4):
            rows = rng.integers(0, len(pool), size=int(rng.integers(0, 12)))
            calls.append((aps[: int(rng.integers(1, 4))], [pool[i] for i in rows]))
        return calls

    @pytest.mark.parametrize("cache_size", [1, 2, 3, 5, 65536])
    def test_random_grids_match_one_pass_rule(self, monkeypatch, cache_size):
        for seed in range(12):
            self._assert_matches_oracle(monkeypatch, cache_size, self._random_calls(seed))

    @staticmethod
    def _shared_key_call():
        # The two nodes sit alike relative to the two APs: one key.
        aps = [Pose2D.at(0.0, 0.0, 0.0), Pose2D.at(10.0, 0.0, 0.0)]
        nodes = [Pose2D.at(3.0, 1.0, 160.0), Pose2D.at(13.0, 1.0, 160.0)]
        return aps, nodes

    @pytest.mark.parametrize("cache_size", [1, 2, 3, 5, 65536])
    def test_key_shared_across_aps(self, monkeypatch, cache_size):
        aps, nodes = self._shared_key_call()
        assert aps[0].distance_to(nodes[0]) == aps[1].distance_to(nodes[1])
        assert nodes[0].relative_bearing_to(aps[0]) == nodes[1].relative_bearing_to(
            aps[1]
        )
        repeated = nodes + [nodes[1], nodes[0]]
        self._assert_matches_oracle(
            monkeypatch, cache_size, [(aps, nodes), (aps, repeated), (aps[::-1], nodes)]
        )

    def test_later_ap_hits_an_earlier_aps_miss(self):
        obs.reset()
        aps, nodes = self._shared_key_call()
        grid = FleetLinkModel().observe_grid(aps, nodes)
        # One miss per distinct key: the second AP's query of the first
        # AP's miss is a hit.
        assert self._traffic() == (1, 3)
        assert grid[1][1] == grid[0][0]

    def test_observe_is_the_one_pose_grid(self):
        """A single `observe` and a one-pose grid give the same bits, on
        fresh models, with headings round the full circle."""
        rng = np.random.default_rng(17)
        aps = [
            Pose2D.at(x, y, heading)
            for x, y, heading in zip(
                rng.uniform(-12.0, 12.0, 500),
                rng.uniform(-12.0, 12.0, 500),
                rng.uniform(-180.0, 180.0, 500),
            )
        ]
        for ap, node in zip(aps, TestFleetLinkModel._random_poses(500, seed=18)):
            got = FleetLinkModel().observe(ap, node)
            (row,) = FleetLinkModel().observe_grid([ap], [node])[0]
            assert (got.rss_dbm, got.uplink_snr_db, got.downlink_snr_db) == row

    def test_failed_pass_leaves_no_reservation(self):
        model = FleetLinkModel()
        ap = Pose2D.at(0.0, 0.0, 0.0)
        model.observe_grid([ap], [Pose2D.at(5.0, 1.0, 190.0)])
        cached = list(model._cache.items())
        on_the_ap = [Pose2D.at(4.0, 0.0, 180.0), Pose2D.at(0.0, 0.0, 0.0)]
        with pytest.raises(ChannelError):
            model.observe_grid([ap], on_the_ap)
        assert list(model._cache.items()) == cached

    class _Interrupted(BaseException):
        """Not a `MilBackError`, nor even an `Exception`."""

    @staticmethod
    def _interrupt(*args):
        raise TestLinkGrid._Interrupted

    @pytest.mark.parametrize("cache_size", [2, 65536])
    @pytest.mark.parametrize("failure", ["node on an AP", "interrupt"])
    def test_failed_two_ap_pass_leaves_no_reservation(
        self, monkeypatch, cache_size, failure
    ):
        """Two APs miss five keys, more than `cache_size` 2 holds, and the
        pass raises: the cache, key order included, and every counter are
        as the call found them, and a later call reads only cached rows."""
        aps = [Pose2D.at(0.0, 0.0, 0.0), Pose2D.at(10.0, 0.0, 0.0)]
        before = [Pose2D.at(5.0, 1.0, 190.0)]
        model = FleetLinkModel(cache_size=cache_size)
        obs.reset()
        model.observe_grid(aps, before)
        cached = list(model._cache.items())
        counters = obs.get_registry().snapshot()
        nodes = [Pose2D.at(4.0, 0.0, 180.0), Pose2D.at(3.0, 2.0, 200.0)]
        if failure == "node on an AP":
            nodes.append(aps[1])
            raised = ChannelError
        else:
            monkeypatch.setattr(model, "_evaluate", self._interrupt)
            raised = self._Interrupted
        with pytest.raises(raised):
            model.observe_grid(aps, nodes)
        monkeypatch.undo()
        assert list(model._cache.items()) == cached
        assert obs.get_registry().snapshot() == counters
        assert model.observe_grid(aps, before) == FleetLinkModel().observe_grid(
            aps, before
        )

    def test_gain_rows_do_not_depend_on_their_batch(self):
        """`observe_grid` evaluates every AP's misses in one array pass,
        and a point's rows keep their bits only by this property: a point
        gets the same FSA gain bits in any batch of two or more points.
        (BLAS sums a one-point batch with `dot`, in other bits: a call
        whose only miss is one row.)"""
        antenna = FleetLinkModel()._budget.fsa.port_a
        rng = np.random.default_rng(21)
        angles_deg = rng.uniform(-90.0, 90.0, 400)
        tones_hz = rng.uniform(BAND_START_HZ, BAND_STOP_HZ, 400)
        whole = antenna.gain_dbi(angles_deg, tones_hz)
        for size in (2, 3, 4, 5, 7, 8, 13, 40, 41, 120):
            cuts = list(range(0, len(angles_deg) - size - 1, size)) + [len(angles_deg)]
            parts = [
                antenna.gain_dbi(angles_deg[lo:hi], tones_hz[lo:hi])
                for lo, hi in zip(cuts, cuts[1:])
            ]
            assert min(len(part) for part in parts) >= 2
            assert np.array_equal(np.concatenate(parts), whole)


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

    @pytest.mark.parametrize("bit_rate_bps", [0.0, -1e6])
    def test_rate_must_be_positive(self, bit_rate_bps):
        _, ap, nodes = _single_ap_fixture()
        node = nodes["node-0000"]
        state = node.rng.bit_generator.state
        link = FleetLink(NetworkSimulation(), FleetLinkModel(), ap, node)
        for send in (link.send_to_node, link.receive_from_node):
            with pytest.raises(NetworkSimError, match="positive"):
                send(b"hi", bit_rate_bps)
        with pytest.raises(NetworkSimError, match="positive"):
            ReliableChannel(link).send_reliable(b"hi", bit_rate_bps=bit_rate_bps)
        assert node.rng.bit_generator.state == state

    @staticmethod
    def _count_observations(monkeypatch):
        calls = []
        observe = FleetLinkModel.observe

        def counted(self, ap_pose, node_pose):
            calls.append(node_pose)
            return observe(self, ap_pose, node_pose)

        monkeypatch.setattr(FleetLinkModel, "observe", counted)
        return calls

    def test_transfer_observes_its_link_once(self, monkeypatch):
        _, ap, nodes = _single_ap_fixture()
        calls = self._count_observations(monkeypatch)
        link = FleetLink(NetworkSimulation(), FleetLinkModel(), ap, nodes["node-0000"])
        result = ReliableChannel(link).send_reliable(b"hello-fleet")
        # A data frame and its ACK, both at the same instant.
        assert (result.delivered, result.attempts) == (True, 1)
        assert len(calls) == 1

    def test_out_of_range_transfer_observes_once(self, monkeypatch):
        _, ap, nodes = _single_ap_fixture()
        node = nodes["node-0000"]
        far = FleetNode("far", 99, Pose2D.at(80.0, 80.0, 225.0), node.rng)
        calls = self._count_observations(monkeypatch)
        link = FleetLink(NetworkSimulation(), FleetLinkModel(), ap, far)
        result = ReliableChannel(link, max_attempts=4).send_reliable(b"pong")
        assert (result.delivered, result.attempts) == (False, 4)
        assert len(calls) == 1
        # Every attempt still raises, with the same message.
        messages = set()
        for _ in range(2):
            with pytest.raises(ProtocolError) as raised:
                link.receive_from_node(b"pong")
            messages.add(str(raised.value))
        assert len(messages) == 1 and "never heard the query" in messages.pop()
        assert len(calls) == 1

    def test_observes_again_once_the_clock_moves(self, monkeypatch):
        # A walker in ap-0's cell, heard through ap-1's interference.
        sim, controller, _ = TestRoaming._mobile_fixture()
        model, ap = controller.model, controller.aps["ap-0"]
        field = controller.interference_for("ap-0")
        walk = WaypointTrajectory(
            [
                Waypoint(0.0, Pose2D.at(3.0, 4.0, 235.0)),
                Waypoint(10.0, Pose2D.at(13.0, 4.0, 200.0)),
            ]
        )
        walker = FleetNode(
            "walker", 0, walk.pose_at(0.0), np.random.default_rng(0), trajectory=walk
        )
        calls = self._count_observations(monkeypatch)
        link = FleetLink(sim, model, ap, walker, interference_dbm=field)

        def link_at_now(link):
            observation = link._observe()
            return observation, link._uplink_sinr_db(observation)

        link.receive_from_node(b"data")
        link.send_to_node(b"ack")
        link.receive_from_node(b"data")
        assert len(calls) == 1
        before = link_at_now(link)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now_s == 1.0
        link.receive_from_node(b"data")
        assert len(calls) == 2 and calls[1] == walker.pose_at(1.0)
        after = link_at_now(link)
        fresh = link_at_now(FleetLink(sim, model, ap, walker, interference_dbm=field))
        assert after == fresh
        # Both the observation and the SINR moved with the walker.
        assert after[0] != before[0] and after[1] != before[1]

    def test_transfer_sends_exactly_payload_bytes(self, monkeypatch):
        spec, ap, nodes = _single_ap_fixture()
        frames = []
        receive_from_node = FleetLink.receive_from_node

        def recorded(self, payload, bit_rate_bps=10e6):
            report = receive_from_node(self, payload, bit_rate_bps)
            frames.append((payload, report.air_time_s, bit_rate_bps))
            return report

        monkeypatch.setattr(FleetLink, "receive_from_node", recorded)
        for payload_bytes in (4, 12):
            frames.clear()
            sim = NetworkSimulation()
            process = TransferProcess(
                sim, FleetLinkModel(), ap, nodes, ap.members, payload_bytes=payload_bytes
            )
            process.start()
            sim.run()
            assert frames and len(process.results) == spec.n_nodes
            for node_id, result in process.results.items():
                expected = node_id.encode("ascii")[:payload_bytes]
                assert result.payload == expected.ljust(payload_bytes, b"\x00")
            for payload, air_time_s, bit_rate_bps in frames:
                assert len(payload) == payload_bytes
                assert air_time_s == (payload_bytes * 8 + 64) / bit_rate_bps

    @staticmethod
    def _roaming_cut():
        return dataclasses.replace(
            get_scenario("three-ap-roaming"),
            name="three-ap-roaming-40-mobile-2s",
            n_nodes=40,
            mobile_fraction=1.0,
            horizon_s=2.0,
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "name", ["five-node-crosscheck", "single-ap-100", "three-ap-roaming-40-mobile-2s"]
    )
    def test_memo_matches_per_frame_evaluation(self, monkeypatch, name, seed):
        # Oracle: with the memo cleared before every frame, each data
        # frame, ACK and retry evaluates the link afresh.
        cut = self._roaming_cut()
        monkeypatch.setitem(SCENARIOS, cut.name, cut)
        memo = run_scenario(name, seed=seed)
        observe = FleetLink._observe

        def per_frame(self):
            self._memo_s = None
            return observe(self)

        monkeypatch.setattr(FleetLink, "_observe", per_frame)
        oracle = run_scenario(name, seed=seed)
        assert memo.transfers_total > 0
        assert memo == oracle
        assert memo.trace_digest == oracle.trace_digest


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
    @staticmethod
    def _mobile_fixture():
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
        values = field([Pose2D.at(2.0, 4.0)])
        assert values.shape == (1, 1)
        assert values[0, 0] < 0.0  # dBm, attenuated below TX power

    def test_interference_field_rows_match_scalar(self):
        """Each row of a batch is the field at that one pose (the
        one-row array a `FleetLink` asks for), bit for bit."""
        sim, controller, _ = self._mobile_fixture()
        controller.aps["ap-2"] = FleetAp("ap-2", Pose2D.at(12.0, 20.0, 270.0))
        poses = TestFleetLinkModel._random_poses(50, seed=3)
        for ap_id in controller.aps:
            field = controller.interference_for(ap_id)
            rows = field(poses)
            assert rows.shape == (len(poses), len(controller.aps) - 1)
            for row, pose in zip(rows, poses):
                assert np.array_equal(field([pose]), row[np.newaxis])
            assert field([]).shape == (0, len(controller.aps) - 1)

    @staticmethod
    def _interference_oracle(model, rx_ap_pose, rx_target_poses, tx_ap_pose, tx_target_pose):
        """The interference as one formula, before its AP-pair terms were
        computed apart from the per-pose receive-horn term."""
        distance_m = tx_ap_pose.distance_to(rx_ap_pose)
        tx_offset_deg = angle_between_deg(
            tx_ap_pose.bearing_to(rx_ap_pose), tx_ap_pose.bearing_to(tx_target_pose)
        )
        rx_bearing_deg = rx_ap_pose.bearing_to(tx_ap_pose)
        offsets_deg = np.array(
            [
                angle_between_deg(rx_bearing_deg, rx_ap_pose.bearing_to(pose))
                for pose in rx_target_poses
            ]
        )
        return (
            AP_TX_POWER_DBM
            + float(model._budget.tx_horn.gain_dbi(tx_offset_deg, BAND_CENTER_HZ))
            + model._budget.rx_horn.gain_dbi(offsets_deg, BAND_CENTER_HZ)
            - float(free_space_path_loss_db(distance_m, BAND_CENTER_HZ))
        )

    def test_interference_field_matches_one_formula(self):
        sim, controller, _ = self._mobile_fixture()
        controller.aps["ap-2"] = FleetAp("ap-2", Pose2D.at(12.0, 20.0, 270.0))
        model = controller.model
        poses = TestFleetLinkModel._random_poses(50, seed=8)
        for ap_id, rx_ap in controller.aps.items():
            others = [
                (ap.pose, _boresight_target(ap.pose))
                for other_id, ap in sorted(controller.aps.items())
                if other_id != ap_id
            ]
            columns = [
                self._interference_oracle(model, rx_ap.pose, poses, *other)
                for other in others
            ]
            for other, column in zip(others, columns):
                terms = model.interference_terms(rx_ap.pose, *other)
                assert np.array_equal(model.interference_dbm(rx_ap.pose, poses, terms), column)
            field = controller.interference_for(ap_id)
            assert np.array_equal(field(poses), np.column_stack(columns))

    def test_co_located_aps_raise_when_the_field_is_built(self):
        sim, controller, _ = self._mobile_fixture()
        controller.aps["ap-2"] = FleetAp("ap-2", Pose2D.at(0.0, 0.0, 270.0))
        controller.interference_for("ap-1")
        for ap_id in ("ap-0", "ap-2"):
            with pytest.raises(NetworkSimError, match="co-located"):
                controller.interference_for(ap_id)

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

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("n_nodes", 0),
            ("n_aps", 0),
            ("min_radius_m", 0.0),
            ("min_radius_m", 16.0),
            ("mobile_fraction", 1.5),
            ("horizon_s", None),
            ("horizon_s", -1.0),
            ("horizon_s", 0.0),
            ("speed_mps", 0.0),
            ("speed_mps", -1.0),
            ("max_attempts", 0),
        ],
    )
    def test_spec_rejects_invalid_fields(self, field, value):
        with pytest.raises(NetworkSimError):
            dataclasses.replace(get_scenario("three-ap-roaming"), **{field: value})

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

    @pytest.mark.parametrize(
        ("name", "seed"), [("single-ap-1000", 0), ("three-ap-roaming", 0), ("three-ap-roaming", 5)]
    )
    def test_build_fleet_matches_per_call_draws(self, monkeypatch, name, seed):
        # Oracle: each node's geometry from three Generator.uniform calls
        # and one random() on its own indexed_rngs streams, heading via a
        # Pose2D bearing. build_fleet draws the four doubles at once.
        spec = get_scenario(name)
        derived = scenario_seed(seed, spec.name)
        ap_poses = [ap.pose for ap in build_fleet(spec, seed)[0]]
        blocks = []
        indexed_rng_rows = scenarios.indexed_rng_rows

        def keep_streams(*args):
            blocks.append(indexed_rng_rows(*args))
            return blocks[-1]

        monkeypatch.setattr(scenarios, "indexed_rng_rows", keep_streams)
        _, nodes = build_fleet(spec, seed)
        monkeypatch.undo()
        (streams,) = blocks
        assert len(nodes) == spec.n_nodes
        for i, node in enumerate(nodes.values()):
            geom_rng, link_rng = indexed_rngs(derived, i, spec.streams_per_node)
            anchor = ap_poses[i % spec.n_aps]
            angle_deg = float(geom_rng.uniform(0.0, 180.0))
            radius_m = float(geom_rng.uniform(spec.min_radius_m, spec.max_radius_m))
            x = anchor.position.x + radius_m * math.cos(math.radians(angle_deg))
            y = anchor.position.y + radius_m * math.sin(math.radians(angle_deg))
            jitter = float(
                geom_rng.uniform(-spec.heading_jitter_deg, spec.heading_jitter_deg)
            )
            pose = Pose2D.at(x, y, Pose2D.at(x, y).bearing_to(anchor) + jitter)
            trajectory = None
            if float(geom_rng.random()) < spec.mobile_fraction:
                trajectory = scenarios._corridor_walk(spec, geom_rng, pose, ap_poses)
            assert node.node_id == f"node-{i:04d}"
            assert node.pose == pose
            if trajectory is None:
                assert node.trajectory is None
            else:
                assert node.trajectory.waypoints == trajectory.waypoints
            assert streams[i][0].bit_generator.state == geom_rng.bit_generator.state
            assert node.rng.bit_generator.state == link_rng.bit_generator.state
        if spec.mobile_fraction:
            assert any(node.trajectory is not None for node in nodes.values())


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

    def test_scenario_span_splits_build_and_run(self):
        obs.reset()
        run_scenario("five-node-crosscheck", seed=0)
        spans = {s.name: s for s in obs.get_tracer().finished_spans()}
        scenario = spans["netsim.scenario"]
        for child in ("netsim.build_fleet", "netsim.run"):
            assert spans[child].parent_id == scenario.span_id
        assert spans["netsim.build_fleet"].end_s <= spans["netsim.run"].start_s


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


class TestBatchedLinkQueries:
    def test_one_batch_per_ap_per_tick_and_per_frame(self, monkeypatch):
        # Without transfers every link query comes from roaming and
        # inventory; a slide back to per-node queries trips `observe`,
        # and one back to a pass per AP per tick trips `observe_grid`.
        spec = dataclasses.replace(
            get_scenario("three-ap-roaming"),
            name="three-ap-roaming-12-mobile-0.5s",
            n_nodes=12,
            mobile_fraction=1.0,
            horizon_s=0.5,
            transfers=False,
        )
        monkeypatch.setitem(SCENARIOS, spec.name, spec)
        calls = {"observe": 0, "observe_grid": 0, "_tick": 0}

        def counted(cls, name):
            method = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(FleetLinkModel, "observe")
        counted(FleetLinkModel, "observe_grid")
        counted(RoamingController, "_tick")
        obs.reset()
        run_scenario(spec.name, seed=0)
        frames = obs.counter("netsim.rounds").value
        assert frames > 0 and calls["_tick"] > 0
        assert calls["observe"] == 0
        # One link pass over every AP at attachment and at every tick,
        # and one one-AP pass per frame.
        assert calls["observe_grid"] == 1 + calls["_tick"] + frames
