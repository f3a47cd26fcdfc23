"""Built-in MilBack lint rules.

Importing this package registers every rule with the engine registry in
:mod:`repro.lint.core`.  Each rule lives in its own module so a rule can
be read, tested, and (when needed) suppressed in isolation.
"""

from __future__ import annotations

from repro.lint.rules.ml001_rng import LegacyNumpyRandomRule
from repro.lint.rules.ml002_units import UnitSuffixRule
from repro.lint.rules.ml003_float_eq import FloatEqualityRule
from repro.lint.rules.ml004_errors import ErrorHierarchyRule
from repro.lint.rules.ml006_all import DunderAllRule
from repro.lint.rules.ml007_print import BarePrintRule
from repro.lint.rules.ml011_layers import ArchitectureLayerRule
from repro.lint.rules.ml012_determinism import DeterminismRule
from repro.lint.rules.ml013_obs_catalogue import ObsCatalogueRule
from repro.lint.rules.ml014_dead_exports import DeadExportRule

# milback: disable-file=ML014 — rule classes are consumed via the registry, not imports
__all__ = [
    "LegacyNumpyRandomRule",
    "UnitSuffixRule",
    "FloatEqualityRule",
    "ErrorHierarchyRule",
    "DunderAllRule",
    "BarePrintRule",
    "ArchitectureLayerRule",
    "DeterminismRule",
    "ObsCatalogueRule",
    "DeadExportRule",
]
