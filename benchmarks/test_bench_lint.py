"""Benchmark: one full lint pass over the source tree.

``python -m repro.lint src`` is the gate every change passes before
review, so its cost is paid on every run: each file is read and parsed
once, the per-file rules run over that parse, and the project rules run
over the module summaries built from it (``docs/STATIC_ANALYSIS.md``).
This benchmark times that pass on the real tree and records it as the
perf trajectory:

* ``bench.lint.full_s`` — median wall time of a full pass over ``src``
  (every file parsed, all rules run, the usage roots summarised).

The hard functional check: the tree itself is clean — a lint regression
in the repo fails the benchmark session too.
"""

from __future__ import annotations

from pathlib import Path

from repro import obs
from repro.lint import lint_paths

SRC_TREE = Path(__file__).resolve().parent.parent / "src"


def test_bench_lint_full_pass(benchmark):
    findings = benchmark.pedantic(
        lint_paths, args=([SRC_TREE],), rounds=3, iterations=1
    )
    assert findings == [], "\n".join(finding.render() for finding in findings)

    full_s = benchmark.stats.stats.median
    obs.gauge("bench.lint.full_s").set(full_s)
    print(f"\nlint full pass: {full_s:.2f} s (median of 3)")
