"""Fleet-scale link fidelity: per-(AP, node) budgets, not waveforms.

A thousand-node simulation cannot afford per-node waveform synthesis;
what it needs from the physics is the *link budget* — and that is
already exact in :mod:`repro.sim.linkbudget`, which every
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
its traffic lands in ``cache.{hits,misses}{cache=netsim_link}``. A
caller asking about many nodes at one simulated instant takes
:meth:`FleetLinkModel.observe_grid` (every AP of a roaming tick) or its
one-AP case :meth:`FleetLinkModel.observe_many` (an inventory frame):
one array pass over the misses, each evaluating the FSA pattern and the
path loss once for both directions
(:meth:`~repro.sim.linkbudget.PortBudget.gains_at_db`). All outputs are
pure functions of the inputs — no RNG, no wall clock — so a scenario's
link behaviour replays identically anywhere.
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
        """Evaluate the (AP, node) link budget at the given poses.

        A hit returns the bits of the call that filled the entry: one that
        :meth:`observe_many` filled can differ from a fresh evaluation
        here in the last bits (~1e-12 dB). The query order is
        deterministic, so runs still replay bit for bit.
        """
        distance_m = ap_pose.distance_to(node_pose)
        orientation_deg = node_pose.relative_bearing_to(ap_pose)
        # The budget depends on geometry only through distance and
        # orientation (the AP steers at the node), so this key is exact.
        key = (distance_m, orientation_deg)
        budgets = self._cache.get(key)
        if budgets is None:
            obs.counter("cache.misses", cache="netsim_link").inc()
            evaluated = self._evaluate(distance_m, orientation_deg)
            budgets = self._store(key, tuple(map(float, evaluated)))
        else:
            obs.counter("cache.hits", cache="netsim_link").inc()
        return LinkObservation(distance_m, orientation_deg, *budgets)

    def observe_many(
        self, ap_pose: Pose2D, node_poses: Sequence[Pose2D]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """RSS [dBm], uplink SNR [dB] and downlink SNR [dB] from one AP
        to many nodes at one instant, as arrays in ``node_poses`` order:
        the one-AP case of :meth:`observe_grid`. A row can differ from
        :meth:`observe` in the last bits (~1e-12 dB): BLAS sums the FSA
        array factor of one point and of many differently."""
        (rows,) = self.observe_grid([ap_pose], node_poses)
        table = np.array(rows, dtype=float).reshape(-1, 3)
        return table[:, 0], table[:, 1], table[:, 2]

    def observe_grid(
        self, ap_poses: Sequence[Pose2D], node_poses: Sequence[Pose2D]
    ) -> list[list[tuple[float, float, float]]]:
        """Every node's link from every AP at one instant: one list per
        AP in ``ap_poses`` order, holding one ``(rss_dbm, uplink_snr_db,
        downlink_snr_db)`` row of floats per node in ``node_poses`` order.

        Rows, cache hits, misses and evictions are those of asking the
        APs one after another, each evaluating its own misses in one
        array pass. Each AP looks all its keys up (a key repeated in its
        batch is a hit after its first row), then reserves its misses in
        the cache, evicting as :meth:`observe` does, before the next AP
        looks up; so a key one AP misses is a hit for a later one. The
        values fill in after the pass. Every AP with two or more misses
        joins one array pass, since a row's BLAS ``gemv`` sum of the FSA
        array factor does not depend on the rows beside it; an AP with
        one miss keeps its own one-row pass, which BLAS sums with ``dot``,
        in other bits.

        That holds for a call that returns. A call that raises (a node on
        an AP has no path loss) counts nothing and leaves no reservation,
        though entries its reservations evicted stay evicted; the per-AP
        loop would have kept and counted the APs before the failing one.
        """
        cache = self._cache
        nodes = [(p.position.x, p.position.y, p.heading_deg) for p in node_poses]
        # Per AP, per node: the cached row, or the index of a reserved slot.
        refs_by_ap: list[list] = []
        slot_keys: list[tuple[float, float]] = []
        joined: list[int] = []
        lone: list[int] = []
        hits = 0
        rows: list | None = None
        try:
            for ap_pose in ap_poses:
                ax, ay = ap_pose.position.x, ap_pose.position.y
                fresh: dict[tuple[float, float], int] = {}
                refs = []
                for x, y, heading_deg in nodes:
                    # observe's key: ap_pose.distance_to(node) and
                    # node.relative_bearing_to(ap_pose), on the same floats.
                    key = (
                        math.hypot(ax - x, ay - y),
                        relative_bearing_deg(x, y, heading_deg, ax, ay),
                    )
                    ref = cache.get(key)
                    if ref is None:
                        ref = fresh.get(key)
                        if ref is None:
                            ref = fresh[key] = len(slot_keys) + len(fresh)
                    refs.append(ref)
                refs_by_ap.append(refs)
                hits += len(refs) - len(fresh)
                (joined if len(fresh) > 1 else lone).extend(fresh.values())
                slot_keys.extend(fresh)
                for key, slot in fresh.items():
                    self._store(key, slot)
            filled: list = [None] * len(slot_keys)
            for slots in ([joined] if joined else []) + [[slot] for slot in lone]:
                distance_m, orientation_deg = zip(*(slot_keys[i] for i in slots))
                columns = self._evaluate(np.array(distance_m), np.array(orientation_deg))
                for slot, row in zip(slots, zip(*(c.tolist() for c in columns))):
                    filled[slot] = row
            rows = filled
        finally:
            # A reserved key may be gone, or reserved again by a later AP;
            # after a raise, every reservation still in the cache goes.
            for key in slot_keys:
                slot = cache.get(key)
                if type(slot) is int:
                    if rows is None:
                        del cache[key]
                    else:
                        cache[key] = rows[slot]
        if slot_keys:
            obs.counter("cache.misses", cache="netsim_link").inc(len(slot_keys))
        if hits:
            obs.counter("cache.hits", cache="netsim_link").inc(hits)
        return [[rows[r] if type(r) is int else r for r in refs] for refs in refs_by_ap]

    def _evaluate(self, distance_m, orientation_deg):
        """(RSS, uplink SNR, downlink SNR) on scalars or arrays. The AP
        queries each node at the port-A alignment frequency for its
        orientation (the paper's frequency-selective addressing); a tone
        outside the band is clamped to the nearest edge and degrades
        through beam squint, as the hardware would."""
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

    def _store(self, key: tuple[float, float], budgets: tuple) -> tuple:
        if len(self._cache) >= self._cache_size:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = budgets
        return budgets

    # --- inter-AP interference ----------------------------------------------------

    def interference_terms(
        self, rx_ap_pose: Pose2D, tx_ap_pose: Pose2D, tx_target_pose: Pose2D
    ) -> tuple[float, float, float]:
        """The terms of :meth:`ap_interference_dbm` that depend on the AP
        pair alone: the receiving AP's bearing to the interferer [deg],
        TX power plus the interferer's horn gain toward the receiver
        [dBm], and the AP↔AP path loss [dB]."""
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
        rx_target_pose: Pose2D | Sequence[Pose2D],
        terms: tuple[float, float, float],
    ) -> float | np.ndarray:
        """:meth:`ap_interference_dbm` from its AP-pair
        :meth:`interference_terms`, adding the receiving horn's gain
        toward the interferer with the horn steered at
        ``rx_target_pose``. One pose gives a float; a sequence gives an
        array, one entry per pose."""
        rx_bearing_deg, head_dbm, path_loss_db = terms

        def rx_offset_deg(pose: Pose2D) -> float:
            return angle_between_deg(rx_bearing_deg, rx_ap_pose.bearing_to(pose))

        offsets_deg: float | np.ndarray
        if isinstance(rx_target_pose, Pose2D):
            offsets_deg = rx_offset_deg(rx_target_pose)
        else:
            offsets_deg = np.array([rx_offset_deg(pose) for pose in rx_target_pose])
        return (
            head_dbm
            + self._budget.rx_horn.gain_dbi(offsets_deg, BAND_CENTER_HZ)
            - path_loss_db
        )

    def ap_interference_dbm(
        self,
        rx_ap_pose: Pose2D,
        rx_target_pose: Pose2D | Sequence[Pose2D],
        tx_ap_pose: Pose2D,
        tx_target_pose: Pose2D,
    ) -> float | np.ndarray:
        """Power one AP's transmission couples into another AP's receiver.

        The receiving AP's horn points at the node it is serving, the
        interfering AP's horn at *its* target; both patterns attenuate
        the AP↔AP path at the respective angular offsets. One
        ``rx_target_pose`` gives a float; a sequence gives an array, one
        entry per pose. A caller asking again for the same AP pair keeps
        its :meth:`interference_terms` and calls :meth:`interference_dbm`.
        """
        return self.interference_dbm(
            rx_ap_pose,
            rx_target_pose,
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
