"""Link-budget and calibration tests (repro.sim)."""

import math

import pytest

from repro.antennas.fsa import FsaPort
from repro.channel.atmosphere import AtmosphereModel
from repro.channel.propagation import free_space_path_loss_db
from repro.channel.scene import Scene2D
from repro.hardware.switch import SwitchState
from repro.sim.calibration import Calibration, default_calibration
from repro.sim.linkbudget import LinkBudget


@pytest.fixture
def budget():
    return LinkBudget(Scene2D.single_node(2.0, orientation_deg=10.0))


def _reference_port_gains(budget, port, frequency_hz):
    """(downlink, backscatter) written out term by term, each direction
    evaluating the FSA pattern and the path loss on its own."""
    cal = budget.calibration
    d = budget.node_distance_m()
    orientation = budget.node_orientation_deg()
    one_way_atmo_db = (
        budget.atmosphere.one_way_loss_db(d, frequency_hz)
        if budget.atmosphere is not None
        else 0.0
    )
    downlink_fsa = float(budget.fsa.gain_dbi(port, orientation, frequency_hz))
    downlink_fspl = float(free_space_path_loss_db(d, frequency_hz))
    switch_db = -20.0 * math.log10(budget.switch.through_amplitude())
    downlink = (
        budget.tx_horn.peak_gain_dbi
        + downlink_fsa
        - downlink_fspl
        - switch_db
        - one_way_atmo_db
        - cal.downlink_implementation_loss_db
    )
    uplink_fsa = float(budget.fsa.gain_dbi(port, orientation, frequency_hz))
    uplink_fspl = float(free_space_path_loss_db(d, frequency_hz))
    backscatter = (
        budget.tx_horn.peak_gain_dbi
        + 2.0 * uplink_fsa
        + budget.rx_horn.peak_gain_dbi
        - 2.0 * uplink_fspl
        - 2.0 * budget.switch.insertion_loss_db
        - cal.backscatter_modulation_loss_db
        - 2.0 * one_way_atmo_db
        - cal.uplink_implementation_loss_db
    )
    return downlink, backscatter


class TestPortGains:
    @pytest.mark.parametrize("atmosphere", [None, AtmosphereModel.heavy_rain()])
    @pytest.mark.parametrize("switch_state", [SwitchState.ABSORB, SwitchState.REFLECT])
    def test_both_directions_bit_identical_to_term_by_term_budget(
        self, atmosphere, switch_state
    ):
        for distance_m, orientation_deg in ((1.5, -20.0), (4.0, 10.0), (9.0, 28.0)):
            budget = LinkBudget(
                Scene2D.single_node(distance_m, orientation_deg=orientation_deg),
                atmosphere=atmosphere,
            )
            budget.switch.set_state(switch_state)
            for port in (FsaPort.A, FsaPort.B):
                for frequency_hz in (26.7e9, 28.0e9, 29.3e9):
                    downlink, backscatter = _reference_port_gains(
                        budget, port, frequency_hz
                    )
                    assert budget.port_gains_db(port, frequency_hz) == (
                        downlink,
                        backscatter,
                    )
                    assert budget.downlink_port_gain_db(port, frequency_hz) == downlink
                    assert budget.backscatter_gain_db(port, frequency_hz) == backscatter


class TestGeometryShortcuts:
    def test_distance(self, budget):
        assert budget.node_distance_m() == pytest.approx(2.0)

    def test_orientation(self, budget):
        assert budget.node_orientation_deg() == pytest.approx(10.0)

    def test_tx_power(self, budget):
        assert budget.tx_power_w() == pytest.approx(0.501, rel=0.01)


class TestDownlinkBudget:
    def test_aligned_tone_level(self, budget):
        pair = budget.fsa.alignment_pair(10.0)
        gain = budget.downlink_port_gain_db(FsaPort.A, pair.freq_a_hz)
        # 20 (horn) + 13 (FSA) - 67.4 (FSPL 2 m) - 1 (switch) - 1 (impl)
        assert gain == pytest.approx(-36.6, abs=0.8)

    def test_misaligned_tone_suppressed(self, budget):
        pair = budget.fsa.alignment_pair(10.0)
        aligned = budget.downlink_port_gain_db(FsaPort.A, pair.freq_a_hz)
        leaked = budget.downlink_port_gain_db(FsaPort.A, pair.freq_b_hz)
        assert aligned - leaked > 20.0

    def test_path_delay(self, budget):
        pair = budget.fsa.alignment_pair(10.0)
        path = budget.downlink_path(FsaPort.A, pair.freq_a_hz)
        assert path.delay_s == pytest.approx(2.0 / 299792458.0)

    def test_slope_vs_distance_is_20log(self):
        near = LinkBudget(Scene2D.single_node(2.0, orientation_deg=10.0))
        far = LinkBudget(Scene2D.single_node(8.0, orientation_deg=10.0))
        pair = near.fsa.alignment_pair(10.0)
        diff = near.downlink_port_gain_db(
            FsaPort.A, pair.freq_a_hz
        ) - far.downlink_port_gain_db(FsaPort.A, pair.freq_a_hz)
        assert diff == pytest.approx(20.0 * math.log10(4.0), abs=0.01)


class TestBackscatterBudget:
    def test_slope_vs_distance_is_40log(self):
        near = LinkBudget(Scene2D.single_node(2.0, orientation_deg=10.0))
        far = LinkBudget(Scene2D.single_node(8.0, orientation_deg=10.0))
        pair = near.fsa.alignment_pair(10.0)
        diff = near.backscatter_gain_db(
            FsaPort.A, pair.freq_a_hz
        ) - far.backscatter_gain_db(FsaPort.A, pair.freq_a_hz)
        assert diff == pytest.approx(40.0 * math.log10(4.0), abs=0.01)

    def test_round_trip_delay(self, budget):
        pair = budget.fsa.alignment_pair(10.0)
        path = budget.backscatter_path(FsaPort.A, pair.freq_a_hz)
        assert path.delay_s == pytest.approx(4.0 / 299792458.0)

    def test_modulation_loss_toggle(self, budget):
        pair = budget.fsa.alignment_pair(10.0)
        with_loss = budget.backscatter_gain_db(FsaPort.A, pair.freq_a_hz)
        without = budget.backscatter_gain_db(
            FsaPort.A, pair.freq_a_hz, include_modulation_loss=False
        )
        assert without - with_loss == pytest.approx(
            budget.calibration.backscatter_modulation_loss_db
        )


class TestClutterAndSi:
    def test_clutter_paths_cover_scene(self, budget):
        paths = budget.clutter_paths(28e9)
        assert len(paths) == 4
        labels = {p.label for p in paths}
        assert "clutter-back-wall" in labels

    def test_clutter_dominates_node_raw_return(self, budget):
        # The premise of §5.1: the node's reflection is much weaker than
        # the strongest environmental reflection.
        pair = budget.fsa.alignment_pair(10.0)
        node_gain = budget.backscatter_gain_db(FsaPort.A, pair.freq_a_hz)
        strongest = max(p.gain_db for p in budget.clutter_paths(28e9))
        assert strongest > node_gain

    def test_self_interference_stronger_than_clutter(self, budget):
        si = budget.self_interference_path()
        strongest = max(p.gain_db for p in budget.clutter_paths(28e9))
        assert si.gain_db > strongest

    def test_empty_scene_clutter(self):
        budget = LinkBudget(Scene2D.single_node(2.0, with_clutter=False))
        assert budget.clutter_paths(28e9) == []


class TestMirrorReflection:
    def test_strong_in_specular_window(self):
        cal = default_calibration()
        specular = LinkBudget(
            Scene2D.single_node(2.0, orientation_deg=cal.mirror_specular_center_deg)
        )
        away = LinkBudget(Scene2D.single_node(2.0, orientation_deg=15.0))
        assert specular.mirror_reflection_gain_db(28e9) > away.mirror_reflection_gain_db(
            28e9
        ) + 20.0


class TestCalibration:
    def test_frozen(self):
        cal = default_calibration()
        with pytest.raises(AttributeError):
            cal.ap_noise_figure_db = 3.0

    def test_override(self):
        cal = Calibration(uplink_implementation_loss_db=10.0)
        assert cal.uplink_implementation_loss_db == 10.0

    def test_defaults_sane(self):
        cal = default_calibration()
        assert 0 <= cal.backscatter_modulation_loss_db < 10
        assert cal.clutter_cancellation_db > 20
        assert cal.slope_error_sigma < 0.05
