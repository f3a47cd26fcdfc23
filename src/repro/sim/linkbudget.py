"""Link-budget engine: per-path, per-tone gains from scene geometry.

Every simulated waveform amplitude in the end-to-end engine comes from
here. The convention throughout the package: a signal sample's squared
magnitude is power in watts, so a path is applied by multiplying the
waveform with the *amplitude* gain returned by these methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.antennas.dual_port_fsa import DualPortFsa
from repro.antennas.fixed import HornAntenna
from repro.channel.atmosphere import AtmosphereModel
from repro.channel.propagation import (
    clutter_received_power_dbm,
    free_space_path_loss_db,
    propagation_delay_s,
)
from repro.channel.scene import Scene2D
from repro.constants import AP_HORN_GAIN_DBI, AP_TX_POWER_DBM
from repro.hardware.switch import SpdtSwitch
from repro.sim.calibration import Calibration, default_calibration
from repro.utils.units import dbm_to_watts

__all__ = ["PathGain", "PortBudget", "LinkBudget"]


@dataclass(frozen=True)
class PathGain:
    """One resolved path: power gain [dB] relative to TX power, delay, and
    the one-way distance that produced it."""

    gain_db: float
    delay_s: float
    distance_m: float
    label: str = "path"

    @property
    def amplitude(self) -> float:
        """Field (amplitude) gain."""
        return 10.0 ** (self.gain_db / 20.0)


@dataclass(kw_only=True)
class PortBudget:
    """One FSA port's downlink and backscatter gains from link geometry.

    The scene-free core of :class:`LinkBudget`. With the AP's horns
    steered at the node, a port's gains depend on the geometry only
    through the node's range and orientation, which these methods take
    as scalars (floats come back) or as arrays (one entry per link).
    """

    fsa: DualPortFsa = field(default_factory=DualPortFsa)
    tx_horn: HornAntenna = field(default_factory=lambda: HornAntenna(AP_HORN_GAIN_DBI))
    rx_horn: HornAntenna = field(default_factory=lambda: HornAntenna(AP_HORN_GAIN_DBI))
    switch: SpdtSwitch = field(default_factory=SpdtSwitch)
    calibration: Calibration = field(default_factory=default_calibration)
    #: Weather condition; None means indoor (no atmospheric loss).
    atmosphere: AtmosphereModel | None = None

    def _port_terms_at(self, port: str, distance_m, orientation_deg, frequency_hz):
        """The geometry-dependent terms every port budget shares:
        (FSA gain [dBi] toward the AP, one-way FSPL [dB], one-way
        atmospheric loss [dB]).

        The FSA pattern is the costly one — a full array-factor sum —
        so callers needing both directions take :meth:`gains_at_db`
        rather than evaluating it twice.
        """
        fspl = free_space_path_loss_db(distance_m, frequency_hz)
        fsa_gain = self.fsa.gain_dbi(port, orientation_deg, frequency_hz)
        atmo_db = (
            self.atmosphere.one_way_loss_db(distance_m, frequency_hz)
            if self.atmosphere is not None
            else 0.0
        )
        return fsa_gain, fspl, atmo_db

    def gains_at_db(self, port: str, distance_m, orientation_deg, frequency_hz):
        """(downlink, backscatter) power gains [dB] of one port at one
        tone, for a node ``distance_m`` away at ``orientation_deg``.

        One FSA-pattern and one path-loss evaluation serve both
        directions.
        """
        fsa_gain, fspl, atmo_db = self._port_terms_at(
            port, distance_m, orientation_deg, frequency_hz
        )
        return (
            self._downlink_gain_db(fsa_gain, fspl, atmo_db),
            self._backscatter_gain_db(
                fsa_gain, fspl, atmo_db, include_modulation_loss=True
            ),
        )

    def _downlink_gain_db(self, fsa_gain, fspl, atmo_db):
        switch_db = -20.0 * math.log10(self.switch.through_amplitude())
        return (
            self.tx_horn.peak_gain_dbi
            + fsa_gain
            - fspl
            - switch_db
            - atmo_db
            - self.calibration.downlink_implementation_loss_db
        )

    def _backscatter_gain_db(self, fsa_gain, fspl, atmo_db, include_modulation_loss):
        # Reflect-state loss: the shorted port reflects fully minus two
        # passes through the switch.
        reflect_db = 2.0 * self.switch.insertion_loss_db
        modulation_db = (
            self.calibration.backscatter_modulation_loss_db
            if include_modulation_loss
            else 0.0
        )
        return (
            self.tx_horn.peak_gain_dbi
            + 2.0 * fsa_gain
            + self.rx_horn.peak_gain_dbi
            - 2.0 * fspl
            - reflect_db
            - modulation_db
            - 2.0 * atmo_db
            - self.calibration.uplink_implementation_loss_db
        )


@dataclass
class LinkBudget(PortBudget):
    """Computes every path gain the simulator needs for one scene.

    The AP's horns are assumed steered at the node (the paper steers
    mechanically until the beams face the node); clutter is illuminated
    and received through the horn pattern at its own azimuth offset.
    """

    scene: Scene2D
    tx_power_dbm: float = AP_TX_POWER_DBM
    node_id: str | None = None

    # --- geometry shortcuts ---------------------------------------------------

    def node_distance_m(self) -> float:
        """AP↔node range."""
        return self.scene.node_distance_m(self.node_id)

    def node_orientation_deg(self) -> float:
        """Node FSA broadside angle away from facing the AP."""
        return self.scene.node_orientation_deg(self.node_id)

    def node_azimuth_deg(self) -> float:
        """Node azimuth off the AP boresight (0 once the AP steers)."""
        return self.scene.node_azimuth_deg(self.node_id)

    def tx_power_w(self) -> float:
        """AP transmit power [W]."""
        return float(dbm_to_watts(self.tx_power_dbm))

    # --- per-port budgets --------------------------------------------------------

    def _port_terms(self, port: str, frequency_hz: float) -> tuple[float, float, float]:
        """:meth:`_port_terms_at` this scene's node geometry."""
        return self._port_terms_at(
            port, self.node_distance_m(), self.node_orientation_deg(), frequency_hz
        )

    def port_gains_db(self, port: str, frequency_hz: float) -> tuple[float, float]:
        """(downlink, backscatter) power gains [dB] of one port at one tone.

        One FSA-pattern and one path-loss evaluation serve both
        directions; each value is bitwise equal to
        :meth:`downlink_port_gain_db` / :meth:`backscatter_gain_db`.
        """
        return self.gains_at_db(
            port, self.node_distance_m(), self.node_orientation_deg(), frequency_hz
        )

    # --- downlink (AP → node port) ---------------------------------------------

    def downlink_port_gain_db(self, port: str, frequency_hz: float) -> float:
        """One-way power gain from the AP TX output into one FSA port's
        detector branch, at ``frequency_hz``.

        horn(steered at node) + FSA port gain at the node's orientation
        − FSPL − switch insertion − implementation loss.
        """
        return self._downlink_gain_db(*self._port_terms(port, frequency_hz))

    def downlink_path(self, port: str, frequency_hz: float) -> PathGain:
        """Downlink gain packaged with the propagation delay."""
        d = self.node_distance_m()
        return PathGain(
            gain_db=self.downlink_port_gain_db(port, frequency_hz),
            delay_s=propagation_delay_s(d),
            distance_m=d,
            label=f"downlink-port-{port}",
        )

    # --- uplink / backscatter (AP → node → AP) -----------------------------------

    def backscatter_gain_db(
        self,
        port: str,
        frequency_hz: float,
        include_modulation_loss: bool = True,
    ) -> float:
        """Two-way power gain of the node's reflected tone, from AP TX
        output to AP RX antenna output (before the LNA).

        The FSA gain enters twice (capture + re-radiation); the switch's
        reflective insertion loss is inside
        :meth:`SpdtSwitch.reflection_amplitude`.
        """
        return self._backscatter_gain_db(
            *self._port_terms(port, frequency_hz), include_modulation_loss
        )

    def backscatter_path(self, port: str, frequency_hz: float) -> PathGain:
        """Backscatter gain packaged with the round-trip delay."""
        d = self.node_distance_m()
        return PathGain(
            gain_db=self.backscatter_gain_db(port, frequency_hz),
            delay_s=2.0 * propagation_delay_s(d),
            distance_m=d,
            label=f"backscatter-port-{port}",
        )

    # --- clutter and self-interference -------------------------------------------

    def clutter_paths(
        self,
        frequency_hz: float,
        pointing_azimuth_deg: float | None = None,
    ) -> list[PathGain]:
        """Radar-equation returns from every scene reflector, through the
        horn pattern at each reflector's azimuth offset from where the
        horns point (the node by default, or an explicit scan direction
        during discovery)."""
        if pointing_azimuth_deg is None:
            pointing_azimuth_deg = self.node_azimuth_deg() if self.scene.nodes else 0.0
        paths = []
        for reflector, distance, azimuth in self.scene.clutter_geometry():
            offset = azimuth - pointing_azimuth_deg
            tx_gain = float(self.tx_horn.gain_dbi(offset, frequency_hz))
            rx_gain = float(self.rx_horn.gain_dbi(offset, frequency_hz))
            power_dbm = clutter_received_power_dbm(
                self.tx_power_dbm,
                tx_gain,
                rx_gain,
                distance,
                frequency_hz,
                reflector.rcs_dbsm,
            )
            paths.append(
                PathGain(
                    gain_db=power_dbm - self.tx_power_dbm,
                    delay_s=2.0 * propagation_delay_s(distance),
                    distance_m=distance,
                    label=f"clutter-{reflector.name}",
                )
            )
        return paths

    def self_interference_path(self, isolation_db: float = 70.0) -> PathGain:
        """Direct TX→RX leakage at the AP (constant, near-zero delay).

        Separate, highly directional TX/RX horns with absorber between
        them give ~70 dB of isolation at mmWave.
        """
        return PathGain(
            gain_db=-isolation_db,
            delay_s=1.0e-9,
            distance_m=0.3,
            label="self-interference",
        )

    # --- mirror reflection (Fig. 13b artifact) ------------------------------------

    def mirror_reflection_gain_db(self, frequency_hz: float) -> float:
        """Two-way gain of the FSA ground plane's specular mirror image.

        Strong only when the node's orientation sits in the specular
        window around ``mirror_specular_center_deg``; modeled relative to
        the node's own backscatter strength.
        """
        cal = self.calibration
        orientation = self.node_orientation_deg()
        offset = orientation - cal.mirror_specular_center_deg
        window = math.exp(-0.5 * (offset / cal.mirror_specular_width_deg) ** 2)
        base = self.backscatter_gain_db("A", frequency_hz, include_modulation_loss=False)
        return base + cal.mirror_reflection_gain_db + 10.0 * math.log10(max(window, 1e-12))
