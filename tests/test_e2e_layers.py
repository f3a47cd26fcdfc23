"""The e2e benchmark's layer table names callables that exist.

``benchmarks/e2e/run.py`` installs its layer shims only on traced runs,
and CI's smoke run is untraced, so a renamed engine method, estimator
or kernel would pass the smoke run and break ``--trace 1``. The table
is imported read-only here: no shim is installed.
"""

import importlib

import pytest

from benchmarks.e2e.layers import HOT, LAYERS, WITNESSES

TARGETS = sorted({t for _, targets in LAYERS for t in targets} | HOT | set(WITNESSES))


@pytest.mark.parametrize("target", TARGETS)
def test_layer_target_resolves_to_callable(target):
    module_name, attr_path = target.split(":")
    *owners, name = attr_path.split(".")
    owner = importlib.import_module(module_name)
    for part in owners:
        owner = getattr(owner, part)
    # A method is rebound on the class that defines it, so the shim
    # needs the name in that class's own namespace, not an inherited one.
    assert name in vars(owner), target
    attr = vars(owner)[name]
    if isinstance(attr, (classmethod, staticmethod)):
        attr = attr.__func__
    assert callable(attr), target
