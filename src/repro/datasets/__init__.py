"""repro.datasets — the bulk labeled-corpus factory.

Sweeps scene × node-pose × fault-rate × mobility grids through the
simulator and streams labeled rows (beat spectra, per-port powers,
envelope features → position, orientation, LOS/NLOS flag, classical
estimates) to sharded NPZ files plus a checksummed manifest. Three
modules, three concerns:

* :mod:`~repro.datasets.schema` — what a corpus *is*: the grid, the
  column layout, the versioned determinism contract (row ``i`` is a
  pure function of ``(config, i)``).
* :mod:`~repro.datasets.generator` — how rows get made: block-wise
  simulation with trial-batched feature extraction, executed serially
  or on a warm :class:`~repro.parallel.PersistentPool`.
* :mod:`~repro.datasets.writer` — how rows reach disk: deterministic
  NPZ bytes, crash-safe tmp-rename flushes, manifest-driven resume.

The headline guarantee, asserted in tests and CI: a corpus is
**byte-identical** at any worker count, under the loop-form oracle
kernels the tests patch in, and across kill/resume boundaries. See ``docs/DATASETS.md``.
"""

from __future__ import annotations

from repro.datasets.generator import generate_dataset, scene_for_row
from repro.datasets.schema import (
    SCENE_KINDS,
    SCHEMA_VERSION,
    DatasetConfig,
    FieldSpec,
    RowParams,
    row_fields,
)
from repro.datasets.writer import (
    MANIFEST_NAME,
    ShardWriter,
    load_dataset,
    load_manifest,
    validate_corpus,
)

__all__ = [
    "MANIFEST_NAME",
    "SCENE_KINDS",
    "SCHEMA_VERSION",
    "DatasetConfig",
    "FieldSpec",  # milback: disable=ML014 — public schema surface
    "RowParams",  # milback: disable=ML014 — public schema surface
    "ShardWriter",
    "generate_dataset",
    "load_dataset",
    "load_manifest",  # milback: disable=ML014 — public manifest API
    "row_fields",
    "scene_for_row",  # milback: disable=ML014 — public scene construction API
    "validate_corpus",
]
