"""Start-up cost: SciPy loads at the first filter call, not at import.

``repro.dsp.filters.first_order_lowpass`` is the one caller of
``scipy.signal`` and imports it when it first runs, so a process that
never filters (a netsim run, the linter, ``obs report``) never loads
SciPy. Each check runs in a fresh interpreter, because this test
process has long since imported it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: Prints, as JSON, the scipy modules the child process has loaded.
_LOADED = (
    "import json, sys\n"
    "def scipy_loaded():\n"
    "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
)


def run_child(body: str) -> object:
    """Run ``body`` after :data:`_LOADED` in a new interpreter; return its JSON."""
    pythonpath = os.pathsep.join(p for p in (str(SRC_ROOT), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED + body],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "module", ["repro", "repro.netsim.runner", "repro.lint", "repro.obs.report", "repro.cli"]
)
def test_import_leaves_scipy_unloaded(module):
    assert run_child(f"import {module}\nprint(json.dumps(scipy_loaded()))") == []


def test_netsim_scenario_leaves_scipy_unloaded():
    body = (
        "from repro.netsim import run_scenario\n"
        "run_scenario('five-node-crosscheck', seed=0)\n"
        "print(json.dumps(scipy_loaded()))"
    )
    assert run_child(body) == []


def test_first_filter_call_loads_scipy_signal():
    body = (
        "import numpy as np\n"
        "from repro.dsp.filters import single_pole_lowpass\n"
        "from repro.dsp.signal import Signal\n"
        "before = 'scipy.signal' in sys.modules\n"
        "single_pole_lowpass(Signal(np.ones(8), 1e6), 1e4)\n"
        "print(json.dumps([before, 'scipy.signal' in sys.modules]))"
    )
    assert run_child(body) == [False, True]


def test_pool_workers_inherit_scipy_signal():
    # The parent has not filtered, yet each worker finds scipy.signal
    # loaded when its first item starts: it was imported just before the
    # fork, so the workers do not each import it again.
    body = (
        "import repro\n"
        "from repro.parallel import parallel_map\n"
        "before = 'scipy.signal' in sys.modules\n"
        "result = parallel_map(lambda item: 'scipy.signal' in sys.modules, [0, 1], 2)\n"
        "print(json.dumps([before, result.values, result.fallback_reason]))"
    )
    assert run_child(body) == [False, [True, True], None]


#: Prints, as JSON, each ``dsp.import_scipy`` span's parent span name.
_IMPORT_SPANS = (
    "from repro import obs\n"
    "spans = {s.span_id: s for s in obs.get_tracer().finished_spans()}\n"
    "parents = [spans[s.parent_id].name if s.parent_id is not None else None\n"
    "           for s in spans.values() if s.name == 'dsp.import_scipy']\n"
    "print(json.dumps(parents))"
)


def test_fork_hook_imports_scipy_under_its_own_span():
    # The hook runs inside the pool's map span; the import gets a span of
    # its own there, once, however many workers fork.
    body = (
        "from repro.parallel import parallel_map\n"
        "parallel_map(lambda item: item, [0, 1, 2, 3], 2)\n"
        "parallel_map(lambda item: item, [0, 1], 2)\n"
    )
    assert run_child(body + _IMPORT_SPANS) == ["parallel.pool.map"]


def test_first_filter_call_imports_scipy_under_its_own_span():
    body = (
        "import numpy as np\n"
        "from repro.dsp.filters import single_pole_lowpass\n"
        "from repro.dsp.signal import Signal\n"
        "for _ in range(3):\n"
        "    single_pole_lowpass(Signal(np.ones(8), 1e6), 1e4)\n"
    )
    assert run_child(body + _IMPORT_SPANS) == [None]
