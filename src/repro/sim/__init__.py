"""End-to-end simulation: calibration, link budgets, the engine."""

from repro.sim.calibration import Calibration, default_calibration
from repro.sim.linkbudget import LinkBudget, PathGain
from repro.sim.multinode import MultiNodeUplink, MultiNodeDownlink, ConcurrentNodeResult
from repro.sim.engine import (
    MilBackSimulator,
    LocalizationResult,
    ApOrientationResult,
    NodeOrientationResult,
    DownlinkResult,
    UplinkResult,
)

__all__ = [
    "Calibration",
    "default_calibration",
    "LinkBudget",
    "PathGain",  # milback: disable=ML014 — public simulation API
    "MilBackSimulator",
    "LocalizationResult",
    "ApOrientationResult",
    "NodeOrientationResult",
    "DownlinkResult",
    "UplinkResult",
    "MultiNodeUplink",
    "MultiNodeDownlink",
    "ConcurrentNodeResult",  # milback: disable=ML014 — public simulation API
]
