"""Fleet-scale link fidelity: per-(AP, node) budgets, not waveforms.

A thousand-node simulation cannot afford per-node waveform synthesis;
what it needs from the physics is the *link budget* — and that is
already exact in :class:`repro.sim.linkbudget.LinkBudget`, which every
figure-reproduction waveform is scaled by. This module evaluates that
same budget per (AP pose, node pose) pair and reduces it to the three
quantities the network layer consumes:

* **RSS** [dBm] — the node's backscattered power at the AP's receiver,
  the quantity roaming hysteresis compares across APs;
* **uplink SNR/SINR** [dB] — RSS over kTB+NF in the symbol bandwidth
  (plus any inter-AP interference), which gates slot delivery through
  the same OOK BER bound the physical layer uses;
* **downlink SNR** [dB] — the node-side detector margin, calibrated to
  the paper's Fig. 14 operating point.

Evaluations are cached per model instance keyed by exact geometry, so
static fleets pay for each distinct pose once; the cache is bounded and
its traffic lands in ``cache.{hits,misses}{cache=netsim_link}``. Mobile
fleets, whose poses rarely repeat, pay an evaluation per observation,
so a miss evaluates the FSA pattern and the free-space path loss once
and derives both directions from them
(:meth:`~repro.sim.linkbudget.LinkBudget.port_gains_db`). All
outputs are pure functions of the inputs — no RNG, no wall clock — so
a scenario's link behaviour replays identically anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.antennas.dual_port_fsa import DualPortFsa
from repro.antennas.fixed import HornAntenna
from repro.channel.propagation import free_space_path_loss_db
from repro.channel.scene import NodePlacement, Scene2D
from repro.constants import (
    AP_HORN_GAIN_DBI,
    AP_TX_POWER_DBM,
    BAND_CENTER_HZ,
    BAND_START_HZ,
    BAND_STOP_HZ,
)
from repro.dsp.noise import thermal_noise_power_dbm
from repro.errors import NetworkSimError
from repro.hardware.switch import SpdtSwitch
from repro.sim.calibration import Calibration, default_calibration
from repro.sim.linkbudget import LinkBudget
from repro.utils.geometry import Pose2D, angle_between_deg

__all__ = ["LinkObservation", "FleetLinkModel"]

#: Node-side noise floor [dBm] referred to the detector input. Set so a
#: 2 m downlink runs ≈25 dB of SNR — the Fig. 14 operating point the
#: engine's full detector chain is calibrated against.
NODE_NOISE_FLOOR_DBM = -35.0

#: Uplink symbol bandwidth [Hz]: the AP's kTB+NF floor is taken over it.
SYMBOL_BANDWIDTH_HZ = 10e6


@dataclass(frozen=True)
class LinkObservation:
    """One (AP, node) link-budget evaluation."""

    distance_m: float
    azimuth_deg: float
    orientation_deg: float
    rss_dbm: float
    uplink_snr_db: float
    downlink_snr_db: float


class FleetLinkModel:
    """Cached link-budget evaluator shared by every actor in a scenario.

    One instance per scenario run: the cache (and its counters) is then
    a pure function of the scenario, so metric totals merge identically
    at any worker count.
    """

    def __init__(
        self,
        calibration: Calibration | None = None,
        cache_size: int = 65536,
    ) -> None:
        if cache_size < 1:
            raise NetworkSimError("cache size must be at least 1")
        self.calibration = calibration or default_calibration()
        self._fsa = DualPortFsa()
        self._tx_horn = HornAntenna(AP_HORN_GAIN_DBI)
        self._rx_horn = HornAntenna(AP_HORN_GAIN_DBI)
        self._switch = SpdtSwitch()
        self._noise_floor_dbm = thermal_noise_power_dbm(
            SYMBOL_BANDWIDTH_HZ, self.calibration.ap_noise_figure_db
        )
        self._cache: dict[tuple[float, float, float], LinkObservation] = {}
        self._cache_size = cache_size

    @property
    def ap_noise_floor_dbm(self) -> float:
        """kTB+NF in the symbol bandwidth at the AP receiver."""
        return self._noise_floor_dbm

    def observe(
        self,
        ap_pose: Pose2D,
        node_pose: Pose2D,
        blockage_db: float = 0.0,
    ) -> LinkObservation:
        """Evaluate the (AP, node) link budget at the given poses.

        ``blockage_db`` is a *one-way* LoS obstruction loss: it enters
        the downlink once and the backscatter round trip twice.

        The operating tone is *steered*: the FSA's beam direction is a
        function of frequency, so the AP queries each node at the
        port-A alignment frequency for that node's orientation (the
        paper's frequency-selective addressing). Orientations whose
        aligned tone falls outside the band get the nearest in-band
        tone and degrade through beam squint, exactly as the hardware
        would.
        """
        distance_m = ap_pose.distance_to(node_pose)
        azimuth_deg = ap_pose.relative_bearing_to(node_pose)
        orientation_deg = node_pose.relative_bearing_to(ap_pose)
        # The budget depends on geometry only through distance and
        # orientation (the AP steers at the node), so the cache key is
        # exact — a collision can only return the identical answer.
        key = (distance_m, orientation_deg, blockage_db)
        cached = self._cache.get(key)
        if cached is not None:
            obs.counter("cache.hits", cache="netsim_link").inc()
            return LinkObservation(
                distance_m,
                azimuth_deg,
                cached.orientation_deg,
                cached.rss_dbm,
                cached.uplink_snr_db,
                cached.downlink_snr_db,
            )
        obs.counter("cache.misses", cache="netsim_link").inc()
        aligned_hz = float(
            self._fsa.port_a.alignment_frequency_hz(orientation_deg)
        )
        tone_hz = min(max(aligned_hz, BAND_START_HZ), BAND_STOP_HZ)
        budget = LinkBudget(
            scene=Scene2D(ap_pose, (NodePlacement(node_pose, "node"),), ()),
            fsa=self._fsa,
            tx_horn=self._tx_horn,
            rx_horn=self._rx_horn,
            switch=self._switch,
            calibration=self.calibration,
            tx_power_dbm=AP_TX_POWER_DBM,
            node_id="node",
        )
        downlink_gain_db, uplink_gain_db = budget.port_gains_db("A", tone_hz)
        rss_dbm = AP_TX_POWER_DBM + uplink_gain_db - 2.0 * blockage_db
        uplink_snr_db = min(
            rss_dbm - self._noise_floor_dbm, self.calibration.uplink_sinr_cap_db
        )
        downlink_snr_db = (
            AP_TX_POWER_DBM + downlink_gain_db - blockage_db - NODE_NOISE_FLOOR_DBM
        )
        observation = LinkObservation(
            distance_m=distance_m,
            azimuth_deg=azimuth_deg,
            orientation_deg=orientation_deg,
            rss_dbm=rss_dbm,
            uplink_snr_db=uplink_snr_db,
            downlink_snr_db=downlink_snr_db,
        )
        if len(self._cache) >= self._cache_size:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = observation
        return observation

    # --- inter-AP interference ----------------------------------------------------

    def ap_interference_dbm(
        self,
        rx_ap_pose: Pose2D,
        rx_target_pose: Pose2D,
        tx_ap_pose: Pose2D,
        tx_target_pose: Pose2D,
    ) -> float:
        """Power one AP's transmission couples into another AP's receiver.

        The receiving AP's horn points at the node it is serving, the
        interfering AP's horn at *its* target; both patterns attenuate
        the AP↔AP path at the respective angular offsets.
        """
        distance_m = tx_ap_pose.distance_to(rx_ap_pose)
        if distance_m <= 0:
            raise NetworkSimError("interfering APs cannot be co-located")
        tx_offset_deg = angle_between_deg(
            tx_ap_pose.bearing_to(rx_ap_pose), tx_ap_pose.bearing_to(tx_target_pose)
        )
        rx_offset_deg = angle_between_deg(
            rx_ap_pose.bearing_to(tx_ap_pose), rx_ap_pose.bearing_to(rx_target_pose)
        )
        return (
            AP_TX_POWER_DBM
            + float(self._tx_horn.gain_dbi(tx_offset_deg, BAND_CENTER_HZ))
            + float(self._rx_horn.gain_dbi(rx_offset_deg, BAND_CENTER_HZ))
            - float(free_space_path_loss_db(distance_m, BAND_CENTER_HZ))
        )

    def uplink_sinr_db(
        self,
        observation: LinkObservation,
        interference_dbm: list[float] | tuple[float, ...] = (),
    ) -> float:
        """SINR [dB]: the observation's RSS over noise + interference."""
        noise_mw = 10.0 ** (self._noise_floor_dbm / 10.0)
        interference_mw = sum(10.0 ** (i / 10.0) for i in interference_dbm)
        denominator_dbm = 10.0 * math.log10(noise_mw + interference_mw)
        return min(
            observation.rss_dbm - denominator_dbm,
            self.calibration.uplink_sinr_cap_db,
        )
