"""repro.parallel — deterministic process-pool execution for sweeps.

The paper's figures all reduce to "run an independent trial per
``(parameter, trial)`` pair"; this package executes those pairs on a
pool of forked worker processes without changing a single bit of the
output. Three contracts make that safe (see ``docs/PERFORMANCE.md``):

* **bitwise determinism** — the parent spawns the same per-task RNG
  streams a serial run would (``repro.utils.rng.spawn_rngs``) and ships
  each stream to its task, so results are identical at any worker count;
* **observability fidelity** — workers collect ``repro.obs`` metrics and
  spans into their own process-local registry and return them as a delta
  per chunk; the parent merges the deltas, so counter totals (e.g.
  ``sweep.trials``, ``engine.*.trials``) match a serial run exactly;
* **graceful degradation** — when ``max_workers`` resolves to 1, the
  platform cannot ``fork``, or the pool dies, execution falls back to
  the serial in-process path and records why
  (``parallel.fallbacks{reason=...}``).

Every map runs on one pool implementation,
:class:`~repro.parallel.pool.PersistentPool`: a warm one installed with
``with PersistentPool(...)``, or one that :func:`parallel_map` builds
for a single call.

This is the only module tree allowed to import process-pool primitives
(`concurrent.futures` / `multiprocessing`) — lint rule ML011 enforces
the boundary so pool lifecycle management never leaks into physics code.
"""

from __future__ import annotations

from repro.parallel.executor import (
    DEFAULT_WORKERS_ENV,
    ParallelResult,
    parallel_map,
    resolve_max_workers,
)
from repro.parallel.pool import PersistentPool, active_pool

__all__ = [
    "DEFAULT_WORKERS_ENV",
    "ParallelResult",
    "PersistentPool",
    "active_pool",
    "parallel_map",
    "resolve_max_workers",
]
