#!/usr/bin/env python3
"""Multi-tag inventory: slotted ALOHA with SDM collision rescue.

Twelve tags share one AP. The inventory protocol runs framed slotted
ALOHA; when two colliding tags are far enough apart in azimuth, the AP
resolves the collision with one beam per tag (the paper's §7 SDM note)
instead of burning a retry round. The script compares rounds and
air-slots with SDM on and off, then reads one record from each
discovered tag to show the full pipeline.
"""

import math
import zlib

import numpy as np

from repro.analysis.report import render_table
from repro.channel.scene import NodePlacement, Scene2D
from repro.protocol import MilBackLink, SlottedInventory
from repro.sim.engine import MilBackSimulator
from repro.utils.geometry import Pose2D


def tag_field(n_tags=12, seed=3) -> Scene2D:
    """Tags scattered over the AP's field of view at 2-6 m."""
    rng = np.random.default_rng(seed)
    scene = None
    for i in range(n_tags):
        azimuth = float(rng.uniform(-32.0, 32.0))
        distance = float(rng.uniform(2.0, 6.0))
        orientation = float(rng.uniform(-15.0, 15.0))
        x = distance * math.cos(math.radians(azimuth))
        y = distance * math.sin(math.radians(azimuth))
        placement = NodePlacement(
            Pose2D.at(x, y, azimuth + 180.0 - orientation), f"tag-{i:02d}"
        )
        scene = Scene2D(nodes=(placement,)) if scene is None else scene.with_node(placement)
    return scene


def main() -> None:
    scene = tag_field()

    rows = []
    for label, separation in (("SDM on (18 deg beams)", 18.0), ("SDM off", 1e9)):
        inventory = SlottedInventory(scene, sdm_separation_deg=separation, seed=7)
        result = inventory.run()
        sdm_saves = sum(r.resolved_by_sdm for r in result.rounds)
        rows.append(
            {
                "Mode": label,
                "Tags found": f"{len(result.inventoried)}/12",
                "Rounds": result.n_rounds,
                "Slots used": result.total_slots,
                "Slots/tag": round(result.slots_per_tag(), 2),
                "SDM rescues": sdm_saves,
            }
        )
    print(render_table(rows, title="Inventory of 12 tags: slotted ALOHA ± SDM"))

    # Read a record from the first three discovered tags.
    inventory = SlottedInventory(scene, seed=7)
    found = inventory.run().inventoried[:3]
    print("\nreading records from the first three tags:")
    for tag_id in found:
        sim = MilBackSimulator(scene, seed=zlib.crc32(tag_id.encode()), node_id=tag_id)
        link = MilBackLink(sim)
        session = link.receive_from_node(f"{tag_id}: qty=64".encode(), bit_rate_bps=10e6)
        print(f"  {tag_id}: delivered={session.delivered} "
              f"range={session.localization.distance_est_m:.2f} m "
              f"SNR={session.link_quality_db:.1f} dB")


if __name__ == "__main__":
    main()
