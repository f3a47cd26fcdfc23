"""Command-line interface: run paper experiments from the shell.

    python -m repro list              # what can be reproduced
    python -m repro run fig12         # one experiment, full trial counts
    python -m repro run all           # the whole evaluation section
    python -m repro run fig13 --trials 5   # quick look

Every ``run`` is instrumented through :mod:`repro.obs`: add ``--trace``
and/or ``--metrics-out`` to dump a JSONL span trace and a metrics
snapshot of the invocation, or ``--obs-summary`` for a human-readable
roll-up after the experiment output.

``--workers N`` executes sweep trials on N processes (see
``docs/PERFORMANCE.md``); results are bitwise identical to serial runs.

``python -m repro faults`` runs a resilience campaign (fault-rate sweep
with degradation curves and the ARQ invariant check), and ``run
--faults SPEC`` runs any experiment under an active fault plan — see
``docs/ROBUSTNESS.md``.

``python -m repro dataset generate`` streams a labeled ML corpus to
sharded NPZ + manifest (byte-identical at any ``--workers``), and
``dataset verify`` re-checks an existing corpus's checksums and schema
— see ``docs/DATASETS.md``.

``python -m repro netsim run`` executes one named fleet scenario on the
discrete-event network simulator (1 AP x 1000 nodes, multi-AP roaming),
and ``netsim matrix`` fans several scenarios across workers into a
comparison table; JSON outputs are byte-identical at any worker count —
see ``docs/NETWORK.md``.

Runtime telemetry: ``--heartbeat SECONDS`` streams progress snapshots
to stderr during long sweeps; ``repro obs report`` aggregates a recorded
trace into a span report (text, JSON, or HTML with a span flamegraph);
``repro obs regress`` diffs fresh gauges against a baseline and can
gate CI. For time by Python function, run the command under
``python -m cProfile`` — see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from repro import datasets, faults, netsim, obs
from repro.errors import DatasetError, FaultInjectionError, NetworkSimError
from repro.faults import campaign as faults_campaign
from repro.obs import regress as obs_regress
from repro.obs import report as obs_report
from repro.obs import stream as obs_stream
from repro.experiments import (
    ablations,
    coverage_map,
    goodput,
    sensitivity,
    fig10_beam_pattern,
    fig11_oaqfm,
    fig12_localization,
    fig13_orientation,
    fig14_downlink,
    fig15_uplink,
    power_table,
    table1_comparison,
)

__all__ = [
    "main", "EXPERIMENTS",
    "build_parser",  # milback: disable=ML014 — public CLI surface
]

#: name -> (description, runner taking optional trial count and worker count).
#: Experiments whose hot loop is a homogeneous sweep accept ``workers``
#: (see docs/PERFORMANCE.md); the rest take and ignore it, so the CLI
#: can pass ``--workers`` uniformly.
EXPERIMENTS: dict[str, tuple[str, Callable[..., str]]] = {
    "fig10": (
        "Dual-port FSA beam pattern",
        lambda trials=None, workers=None: fig10_beam_pattern.main(),
    ),
    "fig11": (
        "OAQFM microbenchmark",
        lambda trials=None, workers=None: fig11_oaqfm.main(),
    ),
    "fig12": (
        "Localization accuracy (ranging + AoA)",
        lambda trials=None, workers=None: fig12_localization.main(
            n_trials=trials or 20, max_workers=workers
        ),
    ),
    "fig13": (
        "Orientation sensing (node + AP)",
        lambda trials=None, workers=None: fig13_orientation.main(
            n_trials=trials or 25, max_workers=workers
        ),
    ),
    "fig14": (
        "Downlink SINR vs distance",
        lambda trials=None, workers=None: fig14_downlink.main(
            n_trials=trials or 10, max_workers=workers
        ),
    ),
    "fig15": (
        "Uplink SNR vs distance (10/40 Mbps)",
        lambda trials=None, workers=None: fig15_uplink.main(
            n_trials=trials or 10, max_workers=workers
        ),
    ),
    "table1": (
        "Capability comparison",
        lambda trials=None, workers=None: table1_comparison.main(),
    ),
    "power": (
        "Node power consumption (§9.6)",
        lambda trials=None, workers=None: power_table.main(),
    ),
    "ablations": (
        "Design-choice ablations",
        lambda trials=None, workers=None: ablations.main(),
    ),
    "coverage": (
        "2-D room coverage map (beyond the paper)",
        lambda trials=None, workers=None: coverage_map.main(
            n_trials=trials or 3, max_workers=workers
        ),
    ),
    "goodput": (
        "Application goodput: preamble tax + ARQ at range",
        lambda trials=None, workers=None: goodput.main(),
    ),
    "sensitivity": (
        "Calibration-knob sensitivity audit",
        lambda trials=None, workers=None: sensitivity.main(),
    ),
}


def _add_execution_args(parser: argparse.ArgumentParser) -> None:
    """Worker/observability flags shared by every executing command."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run sweeps on N worker processes (0 = all cores; results "
        "are bitwise identical to serial; default: 1, serial)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL span/event trace of this run to PATH",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a metrics.json snapshot of this run to PATH",
    )
    parser.add_argument(
        "--obs-summary",
        action="store_true",
        help="print a metrics/span roll-up after the experiment output",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        metavar="SECONDS",
        default=None,
        help="emit progress heartbeats to stderr at most every SECONDS "
        "(finite; 0 disables; default: off)",
    )
    parser.add_argument(
        "--heartbeat-out",
        metavar="PATH",
        default=None,
        help="also append heartbeat JSONL records to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MilBack (SIGCOMM 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment name from 'list', or 'all'")
    run.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the per-point trial count (where applicable)",
    )
    run.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="run under an active fault plan: comma-separated "
        "kind[:rate[:intensity]] entries, e.g. 'link_drop:0.2,"
        "adc_saturation:0.5:0.8' (see docs/ROBUSTNESS.md; 'repro faults' "
        "lists the kinds). One process-wide plan: unlike 'repro faults' "
        "campaigns, results are not bitwise serial-vs-parallel",
    )
    run.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault plan's RNG stream (default 0)",
    )
    _add_execution_args(run)
    fl = sub.add_parser(
        "faults", help="run a resilience campaign (fault-rate sweep)"
    )
    fl.add_argument(
        "--kinds",
        default="link_drop",
        help="comma-separated fault kinds to arm "
        f"(known: {', '.join(sorted(faults.FAULT_KINDS))})",
    )
    fl.add_argument(
        "--rates",
        default="0.0,0.1,0.2,0.3",
        help="comma-separated fault rates to sweep",
    )
    fl.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="fault intensity in [0, 1] applied to every kind (default 1)",
    )
    fl.add_argument(
        "--trials",
        type=int,
        default=5,
        help="trials per swept rate (default 5)",
    )
    fl.add_argument(
        "--distance",
        type=float,
        default=3.0,
        help="AP-node distance in meters (default 3)",
    )
    fl.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed; replays are bit-for-bit at any worker count",
    )
    fl.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when the ARQ resilience invariant is violated",
    )
    _add_execution_args(fl)
    ds = sub.add_parser(
        "dataset", help="generate or verify a labeled ML corpus (docs/DATASETS.md)"
    )
    ds_sub = ds.add_subparsers(dest="dataset_command", required=True)
    gen = ds_sub.add_parser(
        "generate", help="sweep the scenario grid into sharded NPZ + manifest"
    )
    gen.add_argument(
        "--out", metavar="DIR", required=True, help="corpus output directory"
    )
    gen.add_argument(
        "--scenes",
        default="clear,furnished,blocked",
        help="comma-separated scene kinds "
        f"(known: {', '.join(datasets.SCENE_KINDS)})",
    )
    gen.add_argument(
        "--distances", default="2.0,4.0,6.0", help="comma-separated distances [m]"
    )
    gen.add_argument(
        "--azimuths", default="0.0", help="comma-separated node azimuths [deg]"
    )
    gen.add_argument(
        "--orientations",
        default="0.0",
        help="comma-separated node orientations [deg]",
    )
    gen.add_argument(
        "--fault-rates", default="0.0", help="comma-separated fault rates in [0, 1]"
    )
    gen.add_argument(
        "--fault-kinds",
        default="chirp_drop",
        help="comma-separated fault kinds armed at non-zero rates "
        f"(known: {', '.join(sorted(faults.FAULT_KINDS))})",
    )
    gen.add_argument(
        "--velocities", default="0.0", help="comma-separated radial velocities [m/s]"
    )
    gen.add_argument(
        "--trials", type=int, default=1, help="trials per grid cell (default 1)"
    )
    gen.add_argument(
        "--seed",
        type=int,
        default=0,
        help="master corpus seed; rows are pure functions of (seed, index)",
    )
    gen.add_argument(
        "--bins",
        type=int,
        default=96,
        help="beat-spectrum feature width per row (default 96)",
    )
    gen.add_argument(
        "--rows-per-shard",
        type=int,
        default=4096,
        help="rows per NPZ shard (default 4096)",
    )
    gen.add_argument(
        "--block-rows",
        type=int,
        default=64,
        help="rows per worker block / memory granule (default 64)",
    )
    gen.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted corpus from its manifest "
        "(byte-identical to an uninterrupted run)",
    )
    _add_execution_args(gen)
    verify = ds_sub.add_parser(
        "verify", help="re-check an existing corpus's checksums and schema"
    )
    verify.add_argument(
        "--out", metavar="DIR", required=True, help="corpus directory to verify"
    )
    ns = sub.add_parser(
        "netsim",
        help="fleet-scale discrete-event network simulation (docs/NETWORK.md)",
    )
    ns_sub = ns.add_subparsers(dest="netsim_command", required=True)
    ns_sub.add_parser("list", help="list the named scenario registry")
    ns_run = ns_sub.add_parser("run", help="run one named scenario")
    ns_run.add_argument(
        "scenario", help="scenario name from 'netsim list'"
    )
    ns_run.add_argument(
        "--seed",
        type=int,
        default=0,
        help="run seed; a scenario is a pure function of (name, seed)",
    )
    ns_run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the result as canonical (byte-stable) JSON",
    )
    _add_execution_args(ns_run)
    ns_matrix = ns_sub.add_parser(
        "matrix", help="run a scenario comparison matrix across workers"
    )
    ns_matrix.add_argument(
        "--scenarios",
        default="all",
        help="comma-separated scenario names, or 'all' (default)",
    )
    ns_matrix.add_argument(
        "--seed",
        type=int,
        default=0,
        help="run seed shared by every scenario (folded per name)",
    )
    ns_matrix.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the matrix as canonical (byte-stable) JSON",
    )
    _add_execution_args(ns_matrix)
    ob = sub.add_parser("obs", help="inspect and gate observability artifacts")
    obs_sub = ob.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="aggregate a JSONL trace into a span report"
    )
    report.add_argument(
        "--trace", metavar="PATH", required=True, help="JSONL trace to aggregate"
    )
    report.add_argument(
        "--format",
        choices=("text", "json", "html"),
        default="text",
        help="output format (default text)",
    )
    report.add_argument(
        "--top",
        type=int,
        default=20,
        help="rows in the aggregate table (default 20)",
    )
    report.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the report to PATH instead of stdout",
    )
    regress = obs_sub.add_parser(
        "regress", help="diff fresh gauges against a recorded baseline"
    )
    regress.add_argument(
        "--baseline",
        metavar="PATH",
        required=True,
        help="baseline document (BENCH_obs.json or metrics.json)",
    )
    regress.add_argument(
        "--current",
        metavar="PATH",
        required=True,
        help="fresh document to compare against the baseline",
    )
    regress.add_argument(
        "--tolerance",
        metavar="NAME=FRACTION",
        action="append",
        default=None,
        help="per-gauge relative tolerance override (repeatable)",
    )
    regress.add_argument(
        "--default-tolerance",
        type=float,
        default=obs_regress.DEFAULT_TOLERANCE,
        help=f"relative tolerance band (default {obs_regress.DEFAULT_TOLERANCE})",
    )
    regress.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any gauge regresses beyond its tolerance",
    )
    regress.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    regress.add_argument(
        "--verbose",
        action="store_true",
        help="show ok rows in the verdict table too",
    )
    return parser


def _run_experiments(args: argparse.Namespace) -> int:
    """Execute the selected experiment(s); returns an exit code."""
    if args.experiment == "all":
        for name, (_, runner) in EXPERIMENTS.items():
            print(f"\n### {name} " + "#" * max(60 - len(name), 0))  # milback: disable=ML007 — CLI output
            print(runner(trials=args.trials, workers=args.workers))  # milback: disable=ML007 — CLI output
        return 0
    _, runner = EXPERIMENTS[args.experiment]
    print(runner(trials=args.trials, workers=args.workers))  # milback: disable=ML007 — CLI output
    return 0


def _run_faults_campaign(args: argparse.Namespace) -> int:
    """Execute the ``faults`` subcommand inside the obs window."""
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    rates = tuple(float(r) for r in args.rates.split(",") if r.strip())
    result = faults_campaign.main(
        kinds=kinds,
        rates=rates,
        intensity=args.intensity,
        n_trials=args.trials,
        distance_m=args.distance,
        seed=args.seed,
        max_workers=args.workers,
    )
    print(result.rows())  # milback: disable=ML007 — CLI output
    if args.check:
        try:
            faults_campaign.check_resilience(result)
        except FaultInjectionError as exc:
            print(exc, file=sys.stderr)  # milback: disable=ML007 — CLI output
            return 1
        print("resilience invariant: OK")  # milback: disable=ML007 — CLI output
    return 0


def _split_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(",") if v.strip())


def _split_names(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _run_dataset_generate(args: argparse.Namespace) -> int:
    """Execute ``repro dataset generate`` inside the obs window."""
    config = datasets.DatasetConfig(
        scenes=_split_names(args.scenes),
        distances_m=_split_floats(args.distances),
        azimuths_deg=_split_floats(args.azimuths),
        orientations_deg=_split_floats(args.orientations),
        fault_rates=_split_floats(args.fault_rates),
        fault_kinds=_split_names(args.fault_kinds),
        velocities_mps=_split_floats(args.velocities),
        n_trials=args.trials,
        seed=args.seed,
        n_spectrum_bins=args.bins,
    )
    manifest = datasets.generate_dataset(
        config,
        args.out,
        max_workers=args.workers,
        rows_per_shard=args.rows_per_shard,
        block_rows=args.block_rows,
        resume=args.resume,
    )
    status = "complete" if manifest["complete"] else "partial"
    print(  # milback: disable=ML007 — CLI output
        f"corpus {status}: {manifest['rows_written']}/{manifest['n_rows']} rows "
        f"in {len(manifest['shards'])} shards at {args.out}"
    )
    return 0


def _run_dataset_verify(args: argparse.Namespace) -> int:
    """Execute ``repro dataset verify``."""
    try:
        manifest = datasets.validate_corpus(args.out)
    except DatasetError as exc:
        print(f"corpus INVALID: {exc}", file=sys.stderr)  # milback: disable=ML007 — CLI output
        return 1
    status = "complete" if manifest["complete"] else "partial"
    print(  # milback: disable=ML007 — CLI output
        f"corpus OK ({status}): {manifest['rows_written']}/{manifest['n_rows']} "
        f"rows in {len(manifest['shards'])} shards, schema v{manifest['schema_version']}"
    )
    return 0


def _run_netsim(args: argparse.Namespace) -> int:
    """Execute ``repro netsim run|matrix`` inside the obs window."""
    seed = args.seed
    try:
        if args.netsim_command == "run":
            results = [netsim.run_scenario(args.scenario, seed=seed)]
        else:
            if args.scenarios == "all":
                names = sorted(netsim.SCENARIOS)
            else:
                names = list(_split_names(args.scenarios))
            results = netsim.run_matrix(names, seed=seed, max_workers=args.workers)
    except NetworkSimError as exc:
        print(f"netsim: {exc}", file=sys.stderr)  # milback: disable=ML007 — CLI output
        return 2
    print(netsim.render_table(results))  # milback: disable=ML007 — CLI output
    if args.json is not None:
        document = netsim.matrix_document(results, seed)
        Path(args.json).write_text(netsim.dump_json(document), encoding="utf-8")
    return 0


def _run_obs_report(args: argparse.Namespace) -> int:
    """Execute ``repro obs report``."""
    spans, problems = obs_report.load_trace_spans(args.trace)
    if args.format == "json":
        output = json.dumps(
            obs_report.report_document(spans, problems), indent=2, sort_keys=True
        )
    elif args.format == "html":
        output = obs_report.render_report_html(spans, top=args.top, problems=problems)
    else:
        output = obs_report.render_report_text(spans, top=args.top, problems=problems)
    if args.out is not None:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
    else:
        print(output)  # milback: disable=ML007 — CLI output
    return 0


def _run_obs_regress(args: argparse.Namespace) -> int:
    """Execute ``repro obs regress``; exit 1 only when gating and regressed."""
    comparisons = obs_regress.compare_documents(
        obs_regress.load_gauges(args.baseline),
        obs_regress.load_gauges(args.current),
        default_tolerance=args.default_tolerance,
        overrides=obs_regress.parse_tolerance_overrides(args.tolerance),
    )
    if args.format == "json":
        document = obs_regress.regress_document(comparisons)
        print(json.dumps(document, indent=2, sort_keys=True))  # milback: disable=ML007 — CLI output
    else:
        print(obs_regress.render_verdict_table(comparisons, verbose=args.verbose))  # milback: disable=ML007 — CLI output
    if args.fail_on_regression and obs_regress.has_regressions(comparisons):
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {description}")  # milback: disable=ML007 — CLI output
        return 0
    if args.command == "obs":
        obs.reset()
        if args.obs_command == "report":
            return _run_obs_report(args)
        return _run_obs_regress(args)
    if args.command == "dataset" and args.dataset_command == "verify":
        obs.reset()
        return _run_dataset_verify(args)
    if args.command == "netsim" and args.netsim_command == "list":
        width = max(len(name) for name in netsim.SCENARIOS)
        for name in sorted(netsim.SCENARIOS):
            spec = netsim.SCENARIOS[name]
            print(  # milback: disable=ML007 — CLI output
                f"{name.ljust(width)}  v{spec.version}  {spec.description}"
            )
        return 0
    if args.command == "run" and args.experiment != "all" and args.experiment not in EXPERIMENTS:
        print(  # milback: disable=ML007 — CLI output
            f"unknown experiment {args.experiment!r}; "
            f"choose from {', '.join(EXPERIMENTS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    # One invocation = one observation window: artifacts must describe
    # exactly this run, so clear anything import-time code recorded.
    obs.reset()
    obs_stream.configure(interval_s=args.heartbeat, jsonl_path=args.heartbeat_out)
    try:
        if args.command == "faults":
            with obs.span("cli.faults", kinds=args.kinds, rates=args.rates):
                obs.counter("cli.runs").inc()
                status = _run_faults_campaign(args)
        elif args.command == "dataset":
            with obs.span("cli.dataset", out=str(args.out)):
                obs.counter("cli.runs").inc()
                status = _run_dataset_generate(args)
        elif args.command == "netsim":
            target = (
                args.scenario if args.netsim_command == "run" else args.scenarios
            )
            with obs.span("cli.netsim", command=args.netsim_command, target=target):
                obs.counter("cli.runs").inc()
                status = _run_netsim(args)
        elif args.faults is not None:
            specs = faults.parse_fault_specs(args.faults)
            plan = faults.FaultPlan(specs, rng=args.fault_seed)
            with obs.span("cli.run", experiment=args.experiment, faults=args.faults):
                obs.counter("cli.runs").inc()
                with faults.activate(plan):
                    status = _run_experiments(args)
        else:
            with obs.span("cli.run", experiment=args.experiment):
                obs.counter("cli.runs").inc()
                status = _run_experiments(args)
    finally:
        # Artifacts are written even when an experiment raises — a
        # partial trace of a crashed sweep is exactly what you debug with.
        obs_stream.configure(interval_s=0.0)
        if args.trace is not None:
            obs.write_trace_jsonl(args.trace, obs.get_tracer())
        if args.metrics_out is not None:
            obs.write_metrics_json(args.metrics_out, obs.get_registry())
    if args.obs_summary:
        print()  # milback: disable=ML007 — CLI output
        print(obs.render_text_summary(obs.get_registry(), obs.get_tracer()))  # milback: disable=ML007 — CLI output
    return status
