"""One measured segment of one workload, run as a fresh process.

The parent process (``run.py``) starts this module once per segment with a JSON
spec on argv and reads one JSON result from the last line of stdout.
The segment sets up the workload, runs one warm-up op (``cold_op_ms``),
then runs timed ops back to back until its time budget is spent (never
fewer than the workload's ``min_ops``, whose records form the digest),
and finally verifies outputs outside timing.

Setup time is measured from the parent's ``time.monotonic()`` just
before the spawn to this process's first ready instant: both read the
same system-wide clock.

The segment also times a fixed calibration burst, which runs no program
code: ten bursts once ready, then, between timed ops, bursts worth
``CALIBRATION_SHARE`` of the op time spent since the last ones. A
median of bursts over ``REFERENCE_BURST_MS`` is a host slowdown: each
timed op takes the median of the ``LOCAL_BURSTS`` bursts nearest it,
set-up and the warm-up op that of the ten first bursts. The parent
divides every timing by its slowdown.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.e2e.layers import WITNESSES, LayerTracer, counter_sum, counter_values
from benchmarks.e2e.workloads import get_workload

#: Warm-up ops run this fixed reference input, so ``cold_op_ms`` compares
#: cold starts rather than the inputs different seeds draw.
WARMUP_SEED = 0
WARMUP_INDEX = 0

#: Timed op ``i`` of a segment in block ``b`` uses index
#: ``(b + 1) * OP_INDEX_STRIDE + i``. A normal run gives each segment its
#: own block; a traced run gives each untraced/traced pair one block, so
#: the pair times the same inputs.
OP_INDEX_STRIDE = 1_000_000

#: Span records a traced segment keeps for the JSONL trace (whole ops).
SPAN_BUDGET = 2000

#: Median calibration burst on a calm host: an Intel Xeon VM with 2
#: vCPUs, Python 3.11, numpy 2.4 on single-threaded OpenBLAS. Only the
#: ratio to it matters; it makes reported timings read as that host's.
REFERENCE_BURST_MS = 1.95
#: Calibration time spent between timed ops, as a share of op time.
CALIBRATION_SHARE = 0.03
#: Bursts whose median scales one timed op. The host's speed changes
#: within seconds, so bursts near the op track it better than the
#: segment's median: over 10 seeds the dataset workload's ``op_p50_ms``
#: spread fell from 0.064 to 0.026, and no workload's grew.
LOCAL_BURSTS = 5

_CALIBRATION_SIGNAL = np.random.default_rng(0).standard_normal(2048)


def calibration_burst_ms() -> float:
    """Time a fixed mix of interpreter and small-array NumPy work.

    On a shared host the speed of the cores drifts by tens of percent
    within minutes, in CPU time as much as in wall time. A burst that
    runs no program code slows with the host, not with the program.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(48):
        total += int(np.abs(np.fft.rfft(_CALIBRATION_SIGNAL)).sum())
    return (time.perf_counter() - start) * 1e3


def _slowdowns(bursts: list[tuple[int, float]], n_ops: int) -> list[float]:
    """Each timed op's slowdown, from the ``LOCAL_BURSTS`` bursts nearest it.

    ``bursts`` holds ``(ops timed before the burst, burst ms)`` in run order.
    """
    positions = np.array([position for position, _ in bursts], dtype=float)
    times_ms = np.array([ms for _, ms in bursts])
    slowdowns = []
    for op in range(1, n_ops + 1):
        nearest = np.argsort(np.abs(positions - op), kind="stable")[:LOCAL_BURSTS]
        slowdowns.append(float(np.median(times_ms[nearest])) / REFERENCE_BURST_MS)
    return slowdowns


def _run_op(workload: Any, seed: int, index: int) -> tuple[dict[str, Any], float]:
    start = time.perf_counter()
    try:
        record = workload.op(seed, index)
    except Exception:  # noqa: BLE001 — a failed op is counted, never dropped
        record = {"valid": False, "error": traceback.format_exc(limit=4)}
    return record, (time.perf_counter() - start) * 1e3


def run_segment(spec: dict[str, Any]) -> dict[str, Any]:
    workdir_root = Path(spec["workdir"])
    workdir_root.mkdir(parents=True, exist_ok=True)
    workload = get_workload(spec["workload"])
    with tempfile.TemporaryDirectory(dir=workdir_root) as workdir:
        workload.setup(Path(workdir))
        ready = time.monotonic()
        try:
            return _measure(spec, workload, ready - spec["spawned"])
        finally:
            workload.close()


def _measure(spec: dict[str, Any], workload: Any, setup_s: float) -> dict[str, Any]:
    from repro import obs

    tracer_lib = obs.get_tracer()
    bursts = [(0, calibration_burst_ms()) for _ in range(10)]
    warm_record, cold_ms = _run_op(workload, WARMUP_SEED, WARMUP_INDEX)
    tracer_lib.reset()

    tracer = LayerTracer(span_budget=SPAN_BUDGET) if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    seed, base = spec["seed"], (spec["block"] + 1) * OP_INDEX_STRIDE
    min_ops, max_ops = spec["min_ops"], spec["max_ops"]
    records: list[dict[str, Any]] = []
    latencies: list[float] = []
    calibration_s = 0.0
    owed_ms = 0.0
    before = counter_values()
    loop_start = time.perf_counter()
    deadline = loop_start + spec["seconds"]
    while len(records) < min_ops or (
        len(records) < max_ops
        and time.perf_counter() - calibration_s < deadline
    ):
        index = base + len(records)
        if tracer is not None:
            tracer.begin_op(workload=workload.name, op=index)
        record, ms = _run_op(workload, seed, index)
        if tracer is not None:
            tracer.end_op()
        # The program's own tracer keeps every span until a cap; clearing
        # it per op keeps memory flat however many ops fit in the budget.
        tracer_lib.reset()
        records.append(record)
        latencies.append(ms)
        owed_ms += CALIBRATION_SHARE * ms
        while owed_ms > 0:
            burst_ms = calibration_burst_ms()
            bursts.append((len(latencies), burst_ms))
            owed_ms -= burst_ms
            calibration_s += burst_ms / 1e3
    after = counter_values()
    if tracer is not None:
        tracer.uninstall()

    all_records = [warm_record, *records]
    workload.settle([r for r in all_records if "error" not in r])
    result: dict[str, Any] = {
        "setup_s": setup_s,
        "cold_op_ms": cold_ms,
        "latencies_ms": latencies,
        "slowdowns": _slowdowns(bursts, len(latencies)),
        "ready_slowdown": statistics.median([ms for _, ms in bursts[:10]]) / REFERENCE_BURST_MS,
        "records": all_records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": _counter_deltas(before, after),
    }
    if tracer is not None:
        result["ledger"] = tracer.ledger()
        result["spans"] = tracer.spans
        result["witnesses"] = _witnesses(tracer, before, after)
    return result


def _counter_deltas(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """Counters that moved during the timed ops, in ``counter_values`` shape."""
    deltas = {}
    for key, (name, labels, value) in after.items():
        delta = value - (before[key][2] if key in before else 0.0)
        if delta:
            deltas[key] = (name, labels, delta)
    return deltas


def _witnesses(
    tracer: LayerTracer, before: dict[str, Any], after: dict[str, Any]
) -> list[dict[str, Any]]:
    """Shim call counts next to the program's own counters."""
    calls = tracer.ledger()["target_calls"]
    rows = []
    for target, (name, labels) in WITNESSES.items():
        counted = counter_sum(after, name, **labels) - counter_sum(before, name, **labels)
        rows.append({
            "target": target,
            "calls": calls[target],
            "counter": name + "".join(f"{{{k}={v}}}" for k, v in labels.items()),
            "counted": counted,
            "ok": calls[target] == counted,
        })
    return rows


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run_segment(spec)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
