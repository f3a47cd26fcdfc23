"""End-to-end benchmark: five workloads, medians over interleaved segments.

Run from the repository root::

    python3 benchmarks/e2e/run.py                     # all workloads, seed 0
    python3 benchmarks/e2e/run.py --workload localize --seed 3
    python3 benchmarks/e2e/run.py --trace 1 --trace-out trace.jsonl
    python3 benchmarks/e2e/run.py --out a.json; ...; --compare a.json b.json
    python3 benchmarks/e2e/run.py --smoke             # checks only, < 60 s

(``PYTHONPATH=src python -m benchmarks.e2e`` is the same program.)

One parent process spawns every segment as a fresh process, round-robin
across the chosen workloads (L S D F R, L S D F R, ...), so drift on a
shared host hits every workload alike. Each segment times its own
set-up, one warm-up op and ``run_seconds / segments`` of back-to-back
ops, and scales the timings to a reference host speed measured by
calibration bursts (``segment.py``). ``--trace 1`` alternates untraced
and traced segments and reports the per-layer metrics instead of the
end-to-end ones.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit status: 0 when every
check passed, 1 when a check or an op failed (the JSON line is still
printed), 2 when the benchmark could not run (no JSON line).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    # Started as a script: import the package from the repository root,
    # not from this directory.
    sys.path[0] = str(ROOT)

from benchmarks.e2e import report  # noqa: E402
from benchmarks.e2e.layers import LAYERS, per_layer_metrics  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Check  # noqa: E402

#: Untraced segments per workload in a normal run.
SEGMENTS = 3
#: Segments per workload in a traced run: untraced and traced alternate.
TRACE_SEGMENTS = 4
#: A segment that runs longer than this is killed with its process group.
SEGMENT_TIMEOUT_S = 120
#: Single-threaded BLAS in every segment. On a 2-core shared host,
#: OpenBLAS worker threads spin against the other process and make MUSIC
#: ops bimodal (median 5.5 ms in one run, 32 ms in the next); one thread
#: is both faster and steady, and keeps the dataset's 2 workers from
#: oversubscribing the cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Scratch space for corpora, inside the checkout; removed when empty.
WORKDIR = ROOT / ".bench_e2e"


class BenchmarkError(Exception):
    """The benchmark could not run (environment or a crashed segment)."""


def _benchmark_json() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_segment(
    workload: str, seed: int, block: int, seconds: float, trace: bool, smoke: bool
) -> dict[str, Any]:
    """Run one segment in a fresh process and return its result."""
    cls = WORKLOADS[workload]
    spec = {
        "workload": workload,
        "seed": seed,
        "block": block,
        "seconds": seconds,
        "trace": trace,
        "min_ops": cls.smoke_ops if smoke else cls.min_ops,
        "max_ops": cls.smoke_ops if smoke else 10**9,
        "workdir": str(WORKDIR),
    }
    # Measure library defaults: no inherited REPRO_* mode switches.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    spec["spawned"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.segment", json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SEGMENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(
            f"{workload} segment ran past {SEGMENT_TIMEOUT_S} s"
        ) from None
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(
            f"{workload} segment exited {proc.returncode}:\n{err[-3000:]}"
        )
    result = json.loads(out.strip().splitlines()[-1])
    result["traced"] = trace
    return result


def summarize(
    workload: str, segments: list[dict[str, Any]], per_layer: bool
) -> dict[str, Any]:
    """Metrics, checks and digest of one workload's segments."""
    cls = WORKLOADS[workload]
    records = [r for s in segments for r in s["records"]]
    good = [r for r in records if r.get("valid")]
    checks = cls.check(good)
    untraced = [s for s in segments if not s["traced"]]
    traced = [s for s in segments if s["traced"]]
    summary: dict[str, Any] = {
        "attempted": len(records),
        "failed": len(records) - len(good),
        "errors": [r["error"] for r in records if "error" in r][:3],
        "metrics": report.end_to_end(untraced),
        "diagnostics": report.diagnostics(untraced),
        "digest": report.digest(segments, 1 + cls.min_ops),
    }
    summary["diagnostics"]["failed_frac"] = summary["failed"] / summary["attempted"]
    if per_layer:
        counters: dict[str, Any] = {}
        for s in traced:
            for key, (name, labels, delta) in s["counters"].items():
                previous = counters.get(key, (name, labels, 0.0))[2]
                counters[key] = (name, labels, previous + delta)
        summary["per_layer"] = per_layer_metrics(
            [s["ledger"] for s in traced], counters, _tracing_overhead(untraced, traced)
        )
        witnesses = [w for s in traced for w in s["witnesses"]]
        if not cls.forks_workers:
            # Forked workers' calls never meet the shims (installed after
            # the pool forked), but their counters merge back into the
            # segment's registry.
            bad = [w for w in witnesses if not w["ok"]]
            checks.append(
                Check("shim_counts_match_counters", len(bad), "== 0", not bad)
            )
        summary["witnesses"] = witnesses
        summary["spans"] = [s["spans"] for s in traced]
    summary["checks"] = [vars(c) for c in checks]
    summary["correct"] = summary["failed"] == 0 and all(c.ok for c in checks)
    return summary


def _tracing_overhead(
    untraced: list[dict[str, Any]], traced: list[dict[str, Any]]
) -> float:
    """1 - untraced/traced time over the ops both segments of a pair ran.

    A pair shares its op inputs, so the ratio compares the same work with
    and without the shims (equal to 1 - traced/untraced ``ops_per_s``).
    """
    plain = shimmed = 0.0
    for a, b in zip(untraced, traced):
        a_ms, b_ms = report.reference_latencies(a), report.reference_latencies(b)
        n = min(len(a_ms), len(b_ms))
        plain += sum(a_ms[:n])
        shimmed += sum(b_ms[:n])
    return 1.0 - plain / shimmed


def _values(summary: dict[str, Any]) -> dict[str, float]:
    """The reported metrics: per-layer in a traced run, else end-to-end."""
    if "per_layer" in summary:
        return summary["per_layer"]
    return {name: m["value"] for name, m in summary["metrics"].items()}


def _print_workload(
    name: str, summary: dict[str, Any], declared: list[dict[str, Any]]
) -> None:
    print(f"== {name}: attempted {summary['attempted']}, failed {summary['failed']}")
    values = _values(summary)
    if "per_layer" in summary:
        _print_ledger(values)
        layer_metrics = {f"{layer}.{kind}" for layer, _ in LAYERS
                         for kind in ("self_frac", "calls_per_op")}
        declared = [m for m in declared if m["name"] not in layer_metrics]
    for metric in declared:
        segments = summary["metrics"].get(metric["name"], {}).get("segments", [])
        tail = "  segments " + ", ".join(f"{v:.4g}" for v in segments) if segments else ""
        print(f"  {metric['name']:<32} {values[metric['name']]:>12.6g} {metric['unit']}{tail}")
    if "per_layer" not in summary:
        for key, value in summary["diagnostics"].items():
            print(f"  ({key:<30} {value:>12.6g})")
    for check in summary["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"  check {check['name']:<32} {check['value']:.6g} ({check['limit']}) {status}")
    for error in summary["errors"]:
        print("  op error:", error.strip().splitlines()[-1])
    print(f"  digest {summary['digest']}")


def _print_ledger(values: dict[str, float]) -> None:
    op_ms = values["traced_op_ms"]
    print(f"  {'layer':<20} {'calls/op':>10} {'self ms/op':>11} {'share':>7}")
    rows = [(layer, values[f"{layer}.calls_per_op"], values[f"{layer}.self_frac"])
            for layer, _ in LAYERS]
    for layer, calls, share in rows:
        if calls:
            print(f"  {layer:<20} {calls:>10.4g} {share * op_ms:>11.4g} {share:>7.1%}")
    share = values["unattributed_frac"]
    print(f"  {'(unattributed)':<31} {share * op_ms:>11.4g} {share:>7.1%}")


def _result_line(summaries: dict[str, Any], declared: list[dict[str, Any]]) -> dict[str, Any]:
    single = len(summaries) == 1
    metrics = {}
    for workload, summary in summaries.items():
        values = _values(summary)
        for metric in declared:
            key = metric["name"] if single else f"{workload}/{metric['name']}"
            metrics[key] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"{ROOT} holds no src/repro: run from a repository checkout")
    benchmark = _benchmark_json()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seconds = benchmark["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        # Runs of different lengths are not comparable, so the length is
        # fixed by BENCHMARK.json. Its runners pass `--seconds run_seconds`,
        # which is why the option exists at all.
        raise BenchmarkError(f"--seconds must be BENCHMARK.json run_seconds ({seconds})")
    trace = bool(args.trace)
    n_segments = 1 if args.smoke else TRACE_SEGMENTS if trace else SEGMENTS
    info = report.provenance(ROOT, args.seed)
    info["blas_env"] = BLAS_ENV

    segments: dict[str, list[dict[str, Any]]] = {w: [] for w in workloads}
    try:
        for k in range(n_segments):
            for workload in workloads:
                segments[workload].append(run_segment(
                    workload, args.seed, k // 2 if trace else k,
                    seconds / n_segments, trace and k % 2 == 1, args.smoke,
                ))
    finally:
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    info["loadavg_after"] = list(os.getloadavg())

    summaries = {w: summarize(w, segments[w], trace) for w in workloads}
    if args.smoke:
        for workload, summary in summaries.items():
            verdict = "ok" if summary["correct"] else "FAILED"
            failed = [c["name"] for c in summary["checks"] if not c["ok"]]
            print(f"smoke {workload}: {verdict} {' '.join(failed)}".rstrip())
        return 0 if all(s["correct"] for s in summaries.values()) else 1

    declared = benchmark["per_layer" if trace else "end_to_end"]
    for summary in summaries.values():
        if set(_values(summary)) != {m["name"] for m in declared}:
            raise BenchmarkError("the metrics produced differ from BENCHMARK.json's")
    for workload, summary in summaries.items():
        _print_workload(workload, summary, declared)

    if args.trace_out:
        _write_trace(Path(args.trace_out), summaries)
    if args.out:
        spans_free = {
            w: {k: v for k, v in s.items() if k != "spans"} for w, s in summaries.items()
        }
        document = {
            "provenance": info,
            "seconds": seconds,
            "traced": trace,
            "workloads": spans_free,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    line = _result_line(summaries, declared)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _write_trace(path: Path, summaries: dict[str, Any]) -> None:
    """Spans of every traced segment in the ``repro.obs`` JSONL shape."""
    lines = []
    offset = 0
    for summary in summaries.values():
        for spans in summary["spans"]:
            # Each segment numbered its spans from 0; shift them apart.
            for span in spans:
                shifted = dict(span, span_id=span["span_id"] + offset)
                if span["parent_id"] is not None:
                    shifted["parent_id"] = span["parent_id"] + offset
                lines.append(shifted)
            offset += 1 + max((span["span_id"] for span in spans), default=-1)
    lines.sort(key=lambda s: (s["start_s"], s["span_id"]))
    path.write_text(
        "".join(json.dumps(s, sort_keys=True) + "\n" for s in lines), encoding="utf-8"
    )


def compare_files(paths: list[str]) -> int:
    base, head = (json.loads(Path(p).read_text(encoding="utf-8")) for p in paths)
    mismatched = [
        key for key in report.HOST_KEYS
        if base["provenance"].get(key) != head["provenance"].get(key)
    ]
    if mismatched:
        print(
            "refusing to compare across hosts: "
            + ", ".join(
                f"{k} {base['provenance'].get(k)!r} vs {head['provenance'].get(k)!r}"
                for k in mismatched
            ),
            file=sys.stderr,
        )
        return 2
    unlike = [key for key in ("seconds", "traced") if base.get(key) != head.get(key)]
    if unlike:
        print(
            "refusing to compare runs of different settings: "
            + ", ".join(f"{k} {base.get(k)!r} vs {head.get(k)!r}" for k in unlike),
            file=sys.stderr,
        )
        return 2
    rows = report.compare(base, head, _benchmark_json()["end_to_end"])
    print(f"{'workload':<14} {'metric':<12} {'base':>11} {'head':>11} "
          f"{'worse':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<14} {row['metric']:<12} {row['base']:>11.5g} "
            f"{row['head']:>11.5g} {row['worse_frac']:>+8.1%} {row['spread']:>7.1%} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted only as BENCHMARK.json run_seconds, "
                             "which fixes the measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="with --trace 1, write spans as repro.obs trace JSONL")
    parser.add_argument("--out", metavar="PATH", help="write the full results document")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="compare two results documents and exit")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts, checks only, no numbers")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")
    if args.smoke and args.trace:
        parser.error("--smoke runs the checks only; it takes no --trace 1")
    if args.compare:
        return compare_files(args.compare)
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
