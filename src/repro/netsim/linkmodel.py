"""Fleet-scale link fidelity: per-(AP, node) budgets, not waveforms.

A thousand-node simulation cannot afford per-node waveform synthesis;
what it needs from the physics is the *link budget* of
:mod:`repro.sim.linkbudget`, which every figure-reproduction waveform is
scaled by. This module evaluates that same budget per (AP pose, node
pose) pair and reduces it to the three quantities the network layer
consumes:

* **RSS** [dBm] — the node's backscattered power at the AP's receiver,
  the quantity roaming hysteresis compares across APs;
* **uplink SNR/SINR** [dB] — RSS over kTB+NF in the symbol bandwidth
  (plus any inter-AP interference), which gates slot delivery through
  the same OOK BER bound the physical layer uses;
* **downlink SNR** [dB] — the node-side detector margin, calibrated to
  the paper's Fig. 14 operating point.

The budget is exact to :mod:`repro.sim.linkbudget`, not to what the
waveform engine decodes: netsim's uplink SNR sits several dB above the
engine's, and the noise floor is taken over a fixed bandwidth at any
bit rate (``docs/NETWORK.md``, "Modelling notes and limits").

Every query is one :meth:`FleetLinkModel.observe_grid` call (a single
link is its one-pose case, :meth:`FleetLinkModel.observe`): the call's
cache misses are evaluated in one array pass, each evaluating the FSA
pattern and the path loss once for both directions
(:meth:`~repro.sim.linkbudget.PortBudget.gains_at_db`). Evaluations are
cached per model instance keyed by exact geometry, so static fleets pay
for each distinct pose once; the cache is bounded and its traffic lands
in ``cache.{hits,misses}{cache=netsim_link}``. All outputs are pure
functions of the inputs — no RNG, no wall clock — so a scenario's link
behaviour replays identically anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.channel.propagation import free_space_path_loss_db
from repro.constants import AP_TX_POWER_DBM, BAND_CENTER_HZ, BAND_START_HZ, BAND_STOP_HZ
from repro.dsp.noise import thermal_noise_power_dbm
from repro.errors import NetworkSimError
from repro.sim.calibration import Calibration, default_calibration
from repro.sim.linkbudget import PortBudget
from repro.utils.geometry import Pose2D, angle_between_deg, relative_bearing_deg

__all__ = ["LinkObservation", "FleetLinkModel"]

#: Node-side noise floor [dBm] referred to the detector input. Set so a
#: 2 m downlink runs ≈25 dB of SNR — the Fig. 14 operating point the
#: engine's full detector chain is calibrated against.
NODE_NOISE_FLOOR_DBM = -35.0

#: Uplink symbol bandwidth [Hz]: the AP's kTB+NF floor is taken over it.
SYMBOL_BANDWIDTH_HZ = 10e6


@dataclass(frozen=True)
class LinkObservation:
    """One (AP, node) link-budget evaluation: the AP↔node distance, the
    node's orientation (the AP's bearing off the node's heading) and the
    three budgets."""

    distance_m: float
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
        self._budget = PortBudget(calibration=self.calibration)
        self._noise_floor_dbm = thermal_noise_power_dbm(
            SYMBOL_BANDWIDTH_HZ, self.calibration.ap_noise_figure_db
        )
        self._noise_floor_mw = 10.0 ** (self._noise_floor_dbm / 10.0)
        self._cache: dict[tuple[float, float], tuple[float, ...]] = {}
        self._cache_size = cache_size

    @property
    def ap_noise_floor_dbm(self) -> float:
        """kTB+NF in the symbol bandwidth at the AP receiver."""
        return self._noise_floor_dbm

    def observe(self, ap_pose: Pose2D, node_pose: Pose2D) -> LinkObservation:
        """Evaluate the (AP, node) link budget at the given poses: the
        one-pose :meth:`observe_grid`."""
        # The budget depends on geometry only through distance and
        # orientation (the AP steers at the node), so this key is exact.
        key = (ap_pose.distance_to(node_pose), node_pose.relative_bearing_to(ap_pose))
        ((budgets,),) = self._rows([[key]])
        return LinkObservation(*key, *budgets)

    def observe_grid(
        self, ap_poses: Sequence[Pose2D], node_poses: Sequence[Pose2D]
    ) -> list[list[tuple[float, float, float]]]:
        """Every node's link from every AP at one instant: one list per
        AP in ``ap_poses`` order, holding one ``(rss_dbm, uplink_snr_db,
        downlink_snr_db)`` row of floats per node in ``node_poses`` order.

        Every key is looked up in the cache as the call found it. The
        call's distinct misses, in first-seen order, are evaluated in one
        array pass and stored after it, each evicting the oldest entry
        once the cache is full. One miss counts per distinct key and a hit
        for every other query. A call that raises (a node on an AP has no
        path loss) stores and counts nothing.
        """
        nodes = [(p.position.x, p.position.y, p.heading_deg) for p in node_poses]
        return self._rows(
            [
                # observe's key: ap_pose.distance_to(node) and
                # node.relative_bearing_to(ap_pose), on the same floats.
                [
                    (math.hypot(ax - x, ay - y), relative_bearing_deg(x, y, h, ax, ay))
                    for x, y, h in nodes
                ]
                for ax, ay in ((p.position.x, p.position.y) for p in ap_poses)
            ]
        )

    def _rows(
        self, keys_by_ap: list[list[tuple[float, float]]]
    ) -> list[list[tuple[float, float, float]]]:
        """:meth:`observe_grid` on its keys."""
        cache = self._cache
        misses: dict[tuple[float, float], int] = {}
        # Per AP, per key: the cached row, or the index of its miss.
        grid: list[list] = []
        for keys in keys_by_ap:
            grid.append([cache.get(key) or misses.setdefault(key, len(misses)) for key in keys])
        hits = sum(map(len, grid)) - len(misses)
        if misses:
            distance_m, orientation_deg = zip(*misses)
            columns = self._evaluate(np.array(distance_m), np.array(orientation_deg))
            rows = list(zip(*(column.tolist() for column in columns)))
            for key, row in zip(misses, rows):
                if len(cache) >= self._cache_size:
                    cache.pop(next(iter(cache)))
                cache[key] = row
            obs.counter("cache.misses", cache="netsim_link").inc(len(misses))
            grid = [[rows[r] if type(r) is int else r for r in refs] for refs in grid]
        if hits:
            obs.counter("cache.hits", cache="netsim_link").inc(hits)
        return grid

    def _evaluate(self, distance_m, orientation_deg):
        """(RSS, uplink SNR, downlink SNR) arrays, one entry per
        (distance, orientation) pair. The AP queries each node at the
        port-A alignment frequency for its orientation (the paper's
        frequency-selective addressing); a tone outside the band is
        clamped to the nearest edge and degrades through beam squint, as
        the hardware would."""
        tone_hz = np.clip(
            self._budget.fsa.port_a.alignment_frequency_hz(orientation_deg),
            BAND_START_HZ,
            BAND_STOP_HZ,
        )
        downlink_gain_db, uplink_gain_db = self._budget.gains_at_db(
            "A", distance_m, orientation_deg, tone_hz
        )
        rss_dbm = AP_TX_POWER_DBM + uplink_gain_db
        uplink_snr_db = np.minimum(
            rss_dbm - self._noise_floor_dbm, self.calibration.uplink_sinr_cap_db
        )
        downlink_snr_db = AP_TX_POWER_DBM + downlink_gain_db - NODE_NOISE_FLOOR_DBM
        return rss_dbm, uplink_snr_db, downlink_snr_db

    # --- inter-AP interference ----------------------------------------------------

    def interference_terms(
        self, rx_ap_pose: Pose2D, tx_ap_pose: Pose2D, tx_target_pose: Pose2D
    ) -> tuple[float, float, float]:
        """The AP-pair terms of the power one AP's transmission couples
        into another AP's receiver: the receiving AP's bearing to the
        interferer [deg], TX power plus the interferer's horn gain toward
        the receiver [dBm] with that horn pointed at ``tx_target_pose``,
        and the AP↔AP path loss [dB]."""
        distance_m = tx_ap_pose.distance_to(rx_ap_pose)
        if distance_m <= 0:
            raise NetworkSimError("interfering APs cannot be co-located")
        tx_offset_deg = angle_between_deg(
            tx_ap_pose.bearing_to(rx_ap_pose), tx_ap_pose.bearing_to(tx_target_pose)
        )
        return (
            rx_ap_pose.bearing_to(tx_ap_pose),
            AP_TX_POWER_DBM
            + float(self._budget.tx_horn.gain_dbi(tx_offset_deg, BAND_CENTER_HZ)),
            float(free_space_path_loss_db(distance_m, BAND_CENTER_HZ)),
        )

    def interference_dbm(
        self,
        rx_ap_pose: Pose2D,
        rx_target_poses: Sequence[Pose2D],
        terms: tuple[float, float, float],
    ) -> np.ndarray:
        """Interference [dBm] at the receiving AP from its AP-pair
        :meth:`interference_terms`, one entry per pose: the receiving
        horn, steered at each pose, attenuates the AP↔AP path at its
        offset from the interferer."""
        rx_bearing_deg, head_dbm, path_loss_db = terms
        offsets_deg = np.array(
            [
                angle_between_deg(rx_bearing_deg, rx_ap_pose.bearing_to(pose))
                for pose in rx_target_poses
            ]
        )
        return (
            head_dbm
            + self._budget.rx_horn.gain_dbi(offsets_deg, BAND_CENTER_HZ)
            - path_loss_db
        )

    def ap_interference_dbm(
        self,
        rx_ap_pose: Pose2D,
        rx_target_poses: Sequence[Pose2D],
        tx_ap_pose: Pose2D,
        tx_target_pose: Pose2D,
    ) -> np.ndarray:
        """:meth:`interference_dbm` with the pair's
        :meth:`interference_terms` computed in the same call. No caller in
        the package asks for it; it stays because the end-to-end
        benchmark's layer table (``LAYERS``, ``HOT``) names it."""
        return self.interference_dbm(
            rx_ap_pose,
            rx_target_poses,
            self.interference_terms(rx_ap_pose, tx_ap_pose, tx_target_pose),
        )

    def uplink_sinr_db(
        self, rss_dbm: float, interference_dbm: Sequence[float] = ()
    ) -> float:
        """SINR [dB]: RSS over noise + interference, with one
        interference value [dBm] per interfering AP."""
        interference_mw = sum(10.0 ** (i / 10.0) for i in interference_dbm)
        denominator_dbm = 10.0 * math.log10(self._noise_floor_mw + interference_mw)
        return min(rss_dbm - denominator_dbm, self.calibration.uplink_sinr_cap_db)
