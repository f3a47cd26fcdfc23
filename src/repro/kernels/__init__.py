"""repro.kernels — batched array kernels for the intra-trial hot path.

PR 3 made sweeps scale *across* trials (process pool + scene-invariant
caching); this layer makes each trial fast *inside*: the per-chirp /
per-antenna Python loops of burst synthesis and the AP receive chain are
replaced by single broadcasted NumPy computations over
``(n_chirps, n_rx, n)`` style arrays.

Oracle contract
---------------

Each kernel has one implementation, the broadcasted one. It is built so
every output element goes through the *same sequence of floating-point
operations on the same operand values* as the per-record loop it
replaced. Those loops live on as a test-only oracle
(``tests/kernel_reference.py``), whose ``reference_kernels()`` context
manager patches them over the kernel module attributes every call site
goes through.

For the burst/rxchain/dsp families the kernels are **bitwise identical**
to the oracle (``np.array_equal``, not ``allclose``) — the tests assert
exact equality across shapes and on a whole fig12 run. The AoA spectrum
family (:mod:`repro.kernels.aoa`) is the one documented exception: its
spectra route the same math through BLAS matmuls whose reduction order
differs from the loops, so the raw spectra agree only to a tested
few-ulp bound — while the steering phasors, the MUSIC denominator clamp,
the spectrum peak index, and the refined angle stay exactly equal (see
``docs/PERFORMANCE.md``). The loops are also the baseline the
``bench.kernel.*`` speedup gauges are measured against.

Every kernel invocation counts one ``kernels.dispatch.batched``
(labelled ``kernel=<name>``), so a metrics snapshot records how often
each kernel ran.

Layering: this package depends only on :mod:`numpy`, :mod:`repro.obs`
and :mod:`repro.errors`. Kernels take and return plain arrays — the
call sites (``repro.sim.engine``, ``repro.ap.*``, ``repro.dsp.*``) own
the :class:`~repro.dsp.signal.Signal` / ``Spectrum`` wrapping.
"""

from __future__ import annotations

from repro import obs

__all__ = ["count_dispatch"]


def count_dispatch(kernel: str) -> None:
    """Count one kernel invocation under ``kernels.dispatch.batched{kernel=...}``."""
    obs.counter("kernels.dispatch.batched", kernel=kernel).inc()
