"""Smoke tests: every shipped example must run to completion.

Examples are documentation that executes; these tests keep them from
rotting. Output is captured and spot-checked for the headline lines.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def assert_replays_in_subprocess(name: str, out: str) -> None:
    """Run the example as a script under a fixed string-hash salt.

    Python salts ``str`` hashes per process, so an example whose output
    depends on ``hash()`` prints something else here than in-process.
    """
    src = str(EXAMPLES_DIR.parent / "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": pythonpath}
    script = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert script.stdout == out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "localization:" in out
    assert "delivered=True" in out
    assert "protocol trace:" in out


def test_vr_headset_tracking(capsys):
    out = run_example("vr_headset_tracking.py", capsys)
    assert "VR headset tracking" in out
    assert "mean range error" in out


def test_iot_sensor_network(capsys):
    out = run_example("iot_sensor_network.py", capsys)
    assert "SDM schedule" in out
    assert "packets delivered" in out
    assert_replays_in_subprocess("iot_sensor_network.py", out)


def test_warehouse_inventory(capsys):
    out = run_example("warehouse_inventory.py", capsys)
    assert "Warehouse aisle scan" in out
    assert "baseline contrast" in out


def test_tracked_drone_landing(capsys):
    out = run_example("tracked_drone_landing.py", capsys)
    assert "discovery at" in out
    assert "steady-state mean error" in out


def test_walking_vr_user(capsys):
    out = run_example("walking_vr_user.py", capsys)
    assert "Walking VR user" in out
    assert "ARQ:" in out


def test_room_survey(capsys):
    out = run_example("room_survey.py", capsys)
    assert "Room survey" in out
    assert "warehouse" in out


def test_dataset_consumer(capsys):
    out = run_example("dataset_consumer.py", capsys)
    assert "Dataset consumer" in out
    assert "classical LOS" in out
    assert "signal-strength range baseline" in out


def test_multi_tag_inventory(capsys):
    out = run_example("multi_tag_inventory.py", capsys)
    assert "Inventory of 12 tags" in out
    assert "delivered=True" in out
    assert_replays_in_subprocess("multi_tag_inventory.py", out)
