"""The five end-to-end workloads, driven through the library's public API.

Every workload is a closed loop with one client: the next operation
starts when the previous one returns. Operation ``index`` draws all of
its randomness from ``indexed_rngs(seed, index, ...)``, so a run is a
pure function of ``--seed`` and each op's inputs do not depend on how
many ops ran before it.

A workload exposes:

* ``setup(workdir)`` — fixtures built before the process reports ready
  (imports, warm pools); its cost is the ``setup_s`` metric;
* ``op(seed, index)`` — one timed operation, returning a small record of
  scientific outputs (no timings) that feeds the checks and the digest;
* ``settle(records)`` — post-segment verification outside timing;
* ``close()`` — release fixtures and wait for every child process;
* ``check(records)`` — the correctness gates over a whole run.

Records are plain JSON data so segment processes can hand them to the
parent process.
"""

from __future__ import annotations

import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["Check", "Workload", "WORKLOADS", "ROAMING_SCENARIO", "get_workload"]

Record = dict[str, Any]


@dataclass(frozen=True)
class Check:
    """One correctness gate: the measured value and whether it passed."""

    name: str
    value: float
    limit: str
    ok: bool


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    """The hooks a segment drives; ``settle`` and ``close`` default to no-ops."""

    name: str
    #: Ops every segment runs whatever its budget; their records form the digest.
    min_ops: int
    #: Ops a ``--smoke`` segment runs.
    smoke_ops: int
    #: Ops run in forked pool workers, where the per-layer shims cannot reach.
    forks_workers = False

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def op(self, seed: int, index: int) -> Record:
        raise NotImplementedError

    def settle(self, records: list[Record]) -> None:
        pass

    def close(self) -> None:
        pass

    @staticmethod
    def check(records: list[Record]) -> list[Check]:
        raise NotImplementedError


class Localize(Workload):
    """Fig. 12 placement trials: the paper's sensing path."""

    name = "localize"
    min_ops = 64
    smoke_ops = 56

    def setup(self, workdir: Path) -> None:
        from repro.channel.scene import Scene2D
        from repro.experiments.fig12_localization import (
            AOA_AZIMUTHS_DEG,
            RANGING_DISTANCES_M,
        )
        from repro.protocol.link import MilBackLink
        from repro.sim.engine import MilBackSimulator
        from repro.utils.rng import indexed_rngs

        self._api = (Scene2D, MilBackLink, MilBackSimulator, indexed_rngs)
        # 8 distances x 7 azimuths; op index cycles through them in order.
        self._placements = [
            (d, az) for d in RANGING_DISTANCES_M for az in AOA_AZIMUTHS_DEG
        ]

    def op(self, seed: int, index: int) -> Record:
        Scene2D, MilBackLink, MilBackSimulator, indexed_rngs = self._api
        distance_m, azimuth_deg = self._placements[index % len(self._placements)]
        rng = indexed_rngs(seed, index, 1)[0]
        scene = Scene2D.single_node(
            distance_m, azimuth_deg=azimuth_deg, orientation_deg=10.0
        )
        sim = MilBackSimulator(scene, seed=rng)
        if index % 8 == 7:
            method = "music"
            result = sim.simulate_localization_array(8, "music")
        else:
            method = "horn"
            result = MilBackLink(sim).localize()
        return {
            "method": method,
            "distance_m": distance_m,
            "range_err_m": result.distance_error_m,
            "angle_err_deg": result.angle_error_deg,
        }

    def settle(self, records: list[Record]) -> None:
        for record in records:
            record["valid"] = _finite(record["range_err_m"], record["angle_err_deg"])

    @staticmethod
    def check(records: list[Record]) -> list[Check]:
        horn = [abs(r["angle_err_deg"]) for r in records if r["method"] == "horn"]
        music = [abs(r["angle_err_deg"]) for r in records if r["method"] == "music"]
        # Stops at 5 m: the 7-8 m placements at +/-20 deg carry outliers
        # of several decimetres that would make a median gate flaky.
        near = [abs(r["range_err_m"]) for r in records if r["distance_m"] <= 5.0]
        horn_med, music_med, range_med = _median(horn), _median(music), _median(near)
        return [
            Check("horn_median_abs_angle_err_deg", horn_med, "<= 2.0", horn_med <= 2.0),
            Check("music_median_abs_angle_err_deg", music_med, "<= 2.0", music_med <= 2.0),
            Check("median_abs_range_err_m_upto_5m", range_med, "<= 0.05", range_med <= 0.05),
        ]


class Sessions(Workload):
    """Full MilBackLink exchanges: the same engine used for communication."""

    name = "sessions"
    min_ops = 8
    smoke_ops = 16

    _DISTANCES_M = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)

    def setup(self, workdir: Path) -> None:
        from repro.channel.scene import Scene2D
        from repro.errors import LocalizationError, ProtocolError
        from repro.protocol.link import MilBackLink
        from repro.sim.engine import MilBackSimulator
        from repro.utils.rng import indexed_rngs

        self._api = (Scene2D, MilBackLink, MilBackSimulator, indexed_rngs)
        self._no_response = (ProtocolError, LocalizationError)

    def op(self, seed: int, index: int) -> Record:
        # One op is one exchange each way: a strict up/down alternation of
        # ops would make the latency distribution bimodal, with its median
        # balanced on the gap between the two modes.
        Scene2D, MilBackLink, MilBackSimulator, indexed_rngs = self._api
        distance_m = self._DISTANCES_M[index % len(self._DISTANCES_M)]
        rng = indexed_rngs(seed, index, 1)[0]
        down_payload, up_payload = rng.bytes(32), rng.bytes(32)
        sim = MilBackSimulator(
            Scene2D.single_node(distance_m, orientation_deg=10.0), seed=rng
        )
        link = MilBackLink(sim)
        return {
            "distance_m": distance_m,
            "downlink": self._exchange(link.send_to_node, down_payload, 2e6),
            "uplink": self._exchange(link.receive_from_node, up_payload, 10e6),
            "valid": True,
        }

    def _exchange(self, send: Any, payload: bytes, bit_rate_bps: float) -> list[Any]:
        """``[outcome, received payload hex]`` of one framed exchange."""
        # Mirrors ReliableChannel: a link that raises ProtocolError or
        # LocalizationError never answered — a lost exchange, which the
        # delivered-share gate judges, not a broken operation.
        try:
            session = send(payload, bit_rate_bps)
        except self._no_response as exc:
            return [type(exc).__name__, None]
        received = session.payload_received
        if session.delivered:
            outcome = "delivered"
        else:
            outcome = "crc_passed_corrupt" if session.crc_ok else "crc_failed"
        return [outcome, None if received is None else received.hex()]

    @staticmethod
    def check(records: list[Record]) -> list[Check]:
        outcomes = [r[leg][0] for r in records for leg in ("downlink", "uplink")]
        share = outcomes.count("delivered") / max(len(outcomes), 1)
        return [Check("delivered_share", share, ">= 0.80", share >= 0.80)]


class Dataset(Workload):
    """Corpus generation on a warm 2-worker pool."""

    name = "dataset"
    min_ops = 2
    smoke_ops = 1
    forks_workers = True

    ROWS = 144

    def setup(self, workdir: Path) -> None:
        from repro import datasets
        from repro.parallel import PersistentPool
        from repro.utils.rng import indexed_rngs

        self._datasets = datasets
        self._indexed_rngs = indexed_rngs
        self._workdir = workdir
        self.pool = PersistentPool(max_workers=2).warm()

    def op(self, seed: int, index: int) -> Record:
        datasets = self._datasets
        rng = self._indexed_rngs(seed, index, 1)[0]
        config = datasets.DatasetConfig(
            scenes=datasets.SCENE_KINDS,
            distances_m=(2.0, 4.0, 6.0),
            fault_rates=(0.0, 0.2),
            n_trials=8,
            seed=int(rng.integers(0, 2**31)),
            n_spectrum_bins=64,
        )
        out_dir = self._workdir / f"corpus-{index}"
        manifest = datasets.generate_dataset(
            config, out_dir, max_workers=2, pool=self.pool
        )
        return {
            "dir": str(out_dir),
            "rows_written": int(manifest["rows_written"]),
            "shards": [shard["sha256"] for shard in manifest["shards"]],
        }

    def settle(self, records: list[Record]) -> None:
        """Validate and read back every corpus, then delete it."""
        from repro.errors import DatasetError

        for record in records:
            out_dir = Path(record.pop("dir"))
            try:
                columns = self._datasets.load_dataset(out_dir)  # validates first
            except DatasetError as exc:
                record.update(valid=False, error=str(exc), est_valid=0)
            else:
                record.update(
                    valid=True, est_valid=int(columns["est_valid"].sum())
                )
            shutil.rmtree(out_dir, ignore_errors=True)

    def close(self) -> None:
        from multiprocessing import resource_tracker

        self.pool.shutdown(wait=True)
        # The pool's shared-memory transport started the stdlib resource
        # tracker; stop it and reap it, so no process outlives the segment.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    @classmethod
    def check(cls, records: list[Record]) -> list[Check]:
        rows = [r["rows_written"] for r in records]
        est_share = sum(r["est_valid"] for r in records) / max(sum(rows), 1)
        return [
            Check(
                "corpora_validated",
                sum(r["valid"] for r in records),
                f"== {len(records)}",
                all(r["valid"] for r in records),
            ),
            Check(
                "rows_written_min",
                min(rows, default=0),
                f"== {cls.ROWS}",
                bool(rows) and all(n == cls.ROWS for n in rows),
            ),
            Check("est_valid_share", est_share, ">= 0.95", est_share >= 0.95),
        ]


def _scenario_record(result: Any) -> Record:
    return {
        "inventoried": result.inventoried,
        "delivery_ratio": result.delivery_ratio,
        "handoffs": result.handoffs,
        "sim_time_s": result.sim_time_s,
        "events": result.events_processed,
        "trace_digest": result.trace_digest,
    }


class FleetStatic(Workload):
    """ROADMAP's canonical 1000-node static scenario."""

    name = "fleet-static"
    min_ops = 2
    smoke_ops = 1

    SCENARIO = "single-ap-1000"

    def setup(self, workdir: Path) -> None:
        from repro.netsim import runner
        from repro.utils.rng import indexed_rngs

        self._runner = runner
        self._indexed_rngs = indexed_rngs

    def op(self, seed: int, index: int) -> Record:
        scenario_seed = int(self._indexed_rngs(seed, index, 1)[0].integers(0, 2**31))
        return _scenario_record(
            self._runner.run_scenario(self.SCENARIO, seed=scenario_seed)
        )

    def settle(self, records: list[Record]) -> None:
        for record in records:
            record["valid"] = 0 <= record["delivery_ratio"] <= 1 and record["events"] > 0

    @staticmethod
    def check(records: list[Record]) -> list[Check]:
        # A seed now and then leaves one or two of the 1000 tags
        # uninventoried after the scenario's 32 rounds (4 of 60 probe ops).
        inventoried = min((r["inventoried"] for r in records), default=0)
        delivery = min((r["delivery_ratio"] for r in records), default=0.0)
        return [
            Check("inventoried_min", inventoried, ">= 990", inventoried >= 990),
            Check("delivery_ratio_min", delivery, ">= 0.95", delivery >= 0.95),
        ]


#: The roaming workload's scenario: ``three-ap-roaming`` (three APs) cut
#: from 120 nodes, 30% of them mobile, over 30 s to 40 nodes, all mobile,
#: over 2 s. On a 2-core Xeon host the published scenario costs 3.8-6.9 s
#: per op and its cost varies by 18% (coefficient of variation) from seed
#: to seed, because each node is drawn mobile or static: a run holds a
#: few ops and their median does not repeat across seeds. Cut to 2 s but
#: kept 30% mobile, an op still varied by 10%, and over 10 seeds on a calm
#: host the run medians spread by 0.10-0.12 (interquartile range over
#: median). All 120
#: nodes mobile over 2 s varied by 4% per op but spread by 0.05: a 2 s op
#: outlasts the host-speed calibration run between ops. At 40 nodes an op
#: takes 0.65 s, varies by 6-7%, and run medians spread by about 0.03.
#: ``FleetLinkModel.observe`` takes 94% of the op (95% published), but its
#: cache hits 2% of calls instead of 82%: this workload bypasses the link
#: cache that ``fleet-static`` exercises.
ROAMING_SCENARIO = {
    "name": "three-ap-roaming-40-mobile-2s",
    "n_nodes": 40,
    "mobile_fraction": 1.0,
    "horizon_s": 2.0,
}


class FleetRoaming(Workload):
    """Mobile nodes handing off between three APs."""

    name = "fleet-roaming"
    min_ops = 2
    smoke_ops = 2

    def setup(self, workdir: Path) -> None:
        import dataclasses

        from repro.netsim import runner
        from repro.netsim.scenarios import SCENARIOS, get_scenario
        from repro.utils.rng import indexed_rngs

        # run_scenario looks scenarios up by name only, so the cut is
        # registered for the life of this segment process.
        spec = dataclasses.replace(get_scenario("three-ap-roaming"), **ROAMING_SCENARIO)
        SCENARIOS[spec.name] = spec
        self._registry = SCENARIOS
        self._runner = runner
        self._indexed_rngs = indexed_rngs

    def close(self) -> None:
        del self._registry[ROAMING_SCENARIO["name"]]

    def op(self, seed: int, index: int) -> Record:
        scenario_seed = int(self._indexed_rngs(seed, index, 1)[0].integers(0, 2**31))
        return _scenario_record(
            self._runner.run_scenario(ROAMING_SCENARIO["name"], seed=scenario_seed)
        )

    def settle(self, records: list[Record]) -> None:
        for record in records:
            record["valid"] = record["events"] > 0

    @staticmethod
    def check(records: list[Record]) -> list[Check]:
        handoffs = sum(r["handoffs"] for r in records)
        n_nodes = ROAMING_SCENARIO["n_nodes"]
        horizon_s = ROAMING_SCENARIO["horizon_s"]
        inventoried_ok = all(0 < r["inventoried"] <= n_nodes for r in records)
        time_ok = all(r["sim_time_s"] == horizon_s for r in records)
        return [
            Check("handoffs_total", handoffs, "> 0", handoffs > 0),
            Check(
                "inventoried_in_range",
                min((r["inventoried"] for r in records), default=0),
                f"0 < n <= {n_nodes}",
                bool(records) and inventoried_ok,
            ),
            Check(
                "sim_time_s",
                max((r["sim_time_s"] for r in records), default=0.0),
                f"== {horizon_s}",
                bool(records) and time_ok,
            ),
        ]


WORKLOADS = {
    cls.name: cls for cls in (Localize, Sessions, Dataset, FleetStatic, FleetRoaming)
}


def get_workload(name: str) -> Workload:
    """A fresh instance of the named workload."""
    return WORKLOADS[name]()
