"""Aggregation, provenance and comparison of benchmark results.

Every end-to-end metric is the median of its per-segment values (the
op latency median: of the segments' ops pooled), so one slow segment
on a shared host cannot move it alone. Timings are scaled to the
reference host speed by the segments' calibration bursts. The
per-segment values stay in the results file, where ``--compare`` uses
them to decide whether a difference is resolvable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any

__all__ = [
    "percentile",
    "reference_latencies",
    "end_to_end",
    "diagnostics",
    "digest",
    "provenance",
    "compare",
    "HOST_KEYS",
]

#: Provenance fields that must match before two results may be compared.
HOST_KEYS = ("nproc", "numpy", "blas")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def reference_latencies(segment: dict[str, Any]) -> list[float]:
    """A segment's op latencies at reference host speed."""
    return [ms / slow for ms, slow in zip(segment["latencies_ms"], segment["slowdowns"])]


def end_to_end(segments: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """End-to-end metrics of one workload's untraced segments.

    Every timing is divided by its host slowdown, so it reads as on the
    calm reference host. Returns ``name -> {"value", "segments"}``:
    ``segments`` holds the metric computed on each segment alone.
    ``value`` is their median, or for ``op_p50_ms`` the median of every
    segment's ops pooled, so a segment caught by a burst of host
    contention cannot move it alone.
    """
    latencies = [reference_latencies(s) for s in segments]
    per_segment = {
        "ops_per_s": [len(ms) / (sum(ms) / 1e3) for ms in latencies],
        "op_p50_ms": [percentile(ms, 50) for ms in latencies],
        "setup_s": [s["setup_s"] / s["ready_slowdown"] for s in segments],
        "peak_rss_mb": [s["peak_rss_mb"] for s in segments],
    }
    metrics = {
        name: {"value": statistics.median(values), "segments": values}
        for name, values in per_segment.items()
    }
    metrics["op_p50_ms"]["value"] = percentile([ms for seg in latencies for ms in seg], 50)
    return metrics


def diagnostics(segments: list[dict[str, Any]]) -> dict[str, float]:
    """Numbers reported but not gated: they do not repeat within a bound."""
    pooled = [ms for s in segments for ms in reference_latencies(s)]
    out: dict[str, float] = {
        "timed_ops": len(pooled),
        "host_slowdown": statistics.median([x for s in segments for x in s["slowdowns"]]),
        "cold_op_ms": statistics.median(
            [s["cold_op_ms"] / s["ready_slowdown"] for s in segments]
        ),
        "op_p90_ms": percentile(pooled, 90),
    }
    # p99 needs at least ten samples beyond it to mean anything.
    if len(pooled) >= 1000:
        out["op_p99_ms"] = percentile(pooled, 99)
    return out


def digest(segments: list[dict[str, Any]], n_records: int) -> str:
    """sha256 of the first ``n_records`` records of every segment, in order.

    Those ops run on every segment whatever the time budget, so the
    digest depends only on the code and the seed.
    """
    material = [s["records"][:n_records] for s in segments]
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git(root: Path) -> tuple[str | None, bool | None]:
    """(revision, dirty) of ``root`` — ``(None, None)`` outside a git tree."""
    if not (root / ".git").exists():
        return None, None
    try:
        rev = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return rev, bool(status.strip())


def provenance(root: Path, seed: int) -> dict[str, Any]:
    """Host, toolchain and source facts for a results file (load average
    after the run is filled in by the caller)."""
    import numpy as np

    rev, dirty = _git(root)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_rev": rev,
        "git_dirty": dirty,
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


def _spread(values: list[float]) -> float:
    """Interquartile range / median of per-segment values.

    Inclusive quartiles: with three segments the IQR is half the range,
    so one outlying segment widens the spread without deciding it.
    """
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf


def compare(
    base: dict[str, Any], head: dict[str, Any], metrics: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """One verdict row per end-to-end metric x workload present in both.

    ``worse`` is head's change against base, signed so that positive is
    a regression. A pair is ``unresolved`` when either side's segment
    spread (``_spread``) is wider than the metric's bound.
    """
    rows = []
    for workload in sorted(set(base["workloads"]) & set(head["workloads"])):
        a = base["workloads"][workload]["metrics"]
        b = head["workloads"][workload]["metrics"]
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            if name not in a or name not in b:
                continue
            change = (b[name]["value"] - a[name]["value"]) / a[name]["value"]
            worse = change if metric["better"] == "lower" else -change
            spread = max(_spread(a[name]["segments"]), _spread(b[name]["segments"]))
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "within"
            rows.append({
                "workload": workload,
                "metric": name,
                "base": a[name]["value"],
                "head": b[name]["value"],
                "worse_frac": worse,
                "spread": spread,
                "bound": bound,
                "verdict": verdict,
            })
    return rows
