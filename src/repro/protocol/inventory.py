"""Multi-tag inventory: slotted-ALOHA rounds over MilBack links.

RFID's framed slotted ALOHA, transplanted: the AP opens a frame of Q
slots; each un-inventoried tag picks one uniformly; slots with exactly
one reply succeed (MilBack additionally lets *spatially separable*
collisions through — the SDM bonus the paper's §7 hints at); collided
tags retry next frame. The frame size adapts to the estimated backlog
(Q-algorithm style: Q ≈ backlog).

One frame is :func:`inventory_frame` and the next frame's size is
:func:`next_frame_size`. :class:`SlottedInventory` runs them with every
tag heard and one scheduler over the whole scene; netsim's
:class:`repro.netsim.fleet.InventoryProcess` runs the same two functions
on the simulated clock, hearing only the tags whose link budget clears
the detection floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.protocol.mac import SdmScheduler
from repro.channel.scene import Scene2D
from repro.utils.rng import RngLike, make_rng

__all__ = [
    "InventoryRound",
    "InventoryResult",
    "SlottedInventory",
    "inventory_frame",
    "next_frame_size",
]


@dataclass(frozen=True)
class InventoryRound:
    """Statistics of one frame."""

    frame_size: int
    singles: int
    collisions: int
    empties: int
    resolved_by_sdm: int


@dataclass(frozen=True)
class InventoryResult:
    """Outcome of a full inventory run."""

    inventoried: tuple[str, ...]
    rounds: tuple[InventoryRound, ...]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_slots(self) -> int:
        return sum(r.frame_size for r in self.rounds)

    def slots_per_tag(self) -> float:
        """Air-time efficiency: slots spent per tag inventoried."""
        if not self.inventoried:
            raise ProtocolError("nothing inventoried")
        return self.total_slots / len(self.inventoried)


class SlottedInventory:
    """Framed slotted-ALOHA inventory with SDM collision resolution."""

    def __init__(
        self,
        scene: Scene2D,
        sdm_separation_deg: float = 18.0,
        max_rounds: int = 32,
        seed: RngLike = None,
    ) -> None:
        if not scene.nodes:
            raise ProtocolError("no tags to inventory")
        if max_rounds < 1:
            raise ProtocolError("need at least one round")
        self.scene = scene
        self.scheduler = SdmScheduler(scene, sdm_separation_deg)
        self.max_rounds = max_rounds
        self.rng = make_rng(seed)

    def run(self, initial_frame_size: int | None = None) -> InventoryResult:
        """Inventory every tag or exhaust ``max_rounds``."""
        if initial_frame_size is not None and initial_frame_size < 1:
            raise ProtocolError("initial frame size must be at least 1")
        pending = [p.node_id for p in self.scene.nodes]
        frame_size = initial_frame_size or max(len(pending), 2)
        inventoried: list[str] = []
        rounds: list[InventoryRound] = []
        for _ in range(self.max_rounds):
            if not pending:
                break
            round_stats, resolved, _ = inventory_frame(
                self.rng,
                pending,
                frame_size,
                heard=lambda tag: True,
                scheduler=lambda: self.scheduler,
            )
            rounds.append(round_stats)
            done = set(resolved)
            pending = [tag for tag in pending if tag not in done]
            inventoried.extend(resolved)
            frame_size = next_frame_size(round_stats.collisions, 64)
        return InventoryResult(tuple(inventoried), tuple(rounds))


def inventory_frame(
    rng: np.random.Generator,
    pending: Sequence[str],
    frame_size: int,
    heard: Callable[[str], bool],
    scheduler: Callable[[], SdmScheduler],
) -> tuple[InventoryRound, list[str], int]:
    """Run one frame; return its statistics, the resolved tags, the heard count.

    The frame draws every pending tag's slot in one
    ``rng.integers(0, frame_size, size=len(pending))`` call, in pending
    order (the same values and end state as one scalar draw per tag), and
    only the tags ``heard`` accepts occupy their slot: an unheard tag
    still consumes its draw, so gating never shifts the RNG stream. A
    slot with one reply resolves it. A collision resolves when SDM
    separates every pair of its tags (the AP forms one beam per tag).
    ``scheduler`` builds that SDM view; it is called at most once, and
    only when a heard collision needs it. Resolved tags come back in slot
    order.
    """
    slots: dict[int, list[str]] = {}
    n_heard = 0
    draws = rng.integers(0, frame_size, size=len(pending)).tolist()
    for tag, slot in zip(pending, draws, strict=True):
        if heard(tag):
            slots.setdefault(slot, []).append(tag)
            n_heard += 1
    sdm: SdmScheduler | None = None
    resolved: list[str] = []
    singles = collisions = sdm_saves = 0
    for occupants in slots.values():
        if len(occupants) == 1:
            singles += 1
            resolved.append(occupants[0])
            continue
        if sdm is None:
            sdm = scheduler()
        separable = all(
            not sdm.conflicts(a, b)
            for i, a in enumerate(occupants)
            for b in occupants[i + 1 :]
        )
        if separable:
            sdm_saves += 1
            resolved.extend(occupants)
        else:
            collisions += 1
    round_stats = InventoryRound(
        frame_size=frame_size,
        singles=singles,
        collisions=collisions,
        empties=frame_size - len(slots),
        resolved_by_sdm=sdm_saves,
    )
    return round_stats, resolved, n_heard


def next_frame_size(collisions: int, cap: int) -> int:
    """Q-adaptation: size the next frame to the estimated backlog.

    Each collided slot held at least two tags; the result is clamped to
    ``[2, cap]``.
    """
    return max(min(max(2 * collisions, 1), cap), 2)
