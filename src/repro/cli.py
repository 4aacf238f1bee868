"""Command-line interface: run any paper experiment from the shell.

Examples::

    python -m repro list
    python -m repro run fig7 --preset fast
    python -m repro run fig8 --preset default --seed 1
    python -m repro run sec6d --trace trace.json --metrics metrics.jsonl
    python -m repro stats
    python -m repro stats --list --campaign
    python -m repro campaign run examples/campaigns/all.toml --workers 2
    python -m repro campaign validate examples/campaigns/sec6d_tiny.toml
    python -m repro campaign run examples/campaigns/sec6d_tiny.toml --resume
    python -m repro publish --registry registry/ --preset fast --detector
    python -m repro serve --registry registry/ --port 8077
    python -m repro infer --url http://127.0.0.1:8077 --requests 50
    python -m repro dashboard --server-url http://127.0.0.1:8077

``publish``/``serve``/``infer`` are the online-serving stack (model
registry + micro-batching HTTP server + load-generating client); see
``repro.serve`` and the README's Serving section.  ``dashboard`` is the
read-only control plane over everything the other verbs emit — run
records, BENCH_*.json trajectories, campaign journals, and a live
server's fleet metrics (see ``repro.dashboard`` and the README's
Dashboard section).  ``campaign`` runs TOML-defined experiment grids
with journaled crash-safe resume (see ``repro.campaigns`` and the
README's Campaigns section); it is the one way to sweep several
experiments, and ``examples/campaigns/all.toml`` sweeps all of them.

``run`` executes one experiment from the table in
:data:`repro.campaigns.runner.EXPERIMENTS` on a fresh context and prints
the same rows/series the corresponding paper figure shows (see
EXPERIMENTS.md for the paper-vs-measured comparison); a failure exits 1
with the traceback on stderr.  The experiment spreads its dataset
samples and its sweep's victim fits over a supervised process pool as
wide as the cores this process may use (its affinity mask, so
``taskset`` bounds it); the printed rows are the same at any width.
``--verbose``/``--quiet`` control the pipeline's structured logs.

Every ``run`` enables span tracing and writes a run record (config, the
result's ``{metrics, measured}`` payload as a campaign cell records it,
metric snapshot, span aggregates, outcome) under ``runs/`` — ``repro
stats [PATH]`` pretty-prints a run or campaign record, the most recent
by default, and ``repro stats --list`` lists them.  ``--trace``
additionally exports a Chrome-tracing JSON (load it in
``chrome://tracing`` or ui.perfetto.dev) and ``--metrics`` a JSONL
snapshot of every counter/gauge/histogram.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .runtime.logging import configure_logging, get_logger
from .runtime.records import (
    RunRecord,
    format_run_listing,
    format_run_record,
    latest_run_record_path,
    list_run_records,
    load_run_record,
    write_run_record,
)
from .runtime.telemetry import metrics, telemetry
from .runtime.threads import usable_cores

from .bench import format_bench_result, run_bench, write_bench_result

from .campaigns.cli import add_campaign_arguments, run_campaign_command
from .campaigns.records import CampaignRecord, format_campaign_record
from .campaigns.runner import EXPERIMENTS, cell_payload, run_experiment
from .dashboard.cli import add_dashboard_arguments, run_dashboard
from .serve.cli import add_serve_arguments, run_infer, run_publish, run_serve

from .eval import preset_by_name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Physical Backdoor Attacks "
        "against mmWave-based Human Activity Recognition' (ICDCS 2025).",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more pipeline logs (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log pipeline errors",
    )
    parser.add_argument(
        "--log-timestamps", action="store_true",
        help="prefix log lines with wall-clock timestamps "
        "(also via REPRO_LOG_TIMESTAMPS=1)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser(
        "run", help="run one experiment (sweep them all with "
        "`campaign run examples/campaigns/all.toml`)",
    )
    run.add_argument("experiment", choices=list(EXPERIMENTS))
    run.add_argument("--preset", default="fast",
                     choices=["fast", "default", "paper"])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk dataset cache")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="export a Chrome-tracing JSON of all spans to PATH")
    run.add_argument("--metrics", metavar="PATH", default=None,
                     help="export a JSONL metrics snapshot to PATH")
    run.add_argument("--runs-dir", metavar="DIR", default=None,
                     help="directory for run records (default runs/, "
                     "or REPRO_RUNS_DIR)")

    stats = subparsers.add_parser(
        "stats", help="pretty-print a run or campaign record, the most "
        "recent by default (or --list the runs directory)"
    )
    stats.add_argument("record", nargs="?", default=None, metavar="PATH",
                       help="record file (default: the newest in --runs-dir)")
    stats.add_argument("--runs-dir", metavar="DIR", default=None,
                       help="directory holding run records")
    stats.add_argument("--list", action="store_true", dest="list_records",
                       help="list run records instead of printing the latest")
    stats.add_argument("--last", type=int, default=None, metavar="N",
                       help="with --list: only the newest N records")
    stats.add_argument("--status", default=None, metavar="S",
                       help="with --list: only records with this outcome "
                       "status (ok, failed, degraded, interrupted, ...)")
    stats.add_argument("--name", default=None, metavar="GLOB",
                       help="with --list: only records whose experiment "
                       "name matches this shell glob")
    stats.add_argument("--campaign", action="store_true", dest="campaign_only",
                       help="with --list: only campaign records "
                       "(kind=campaign)")

    bench = subparsers.add_parser(
        "bench", help="time the batched fast paths against their references"
    )
    bench.add_argument(
        "--output", metavar="PATH", default=None,
        help="result JSON path (default BENCH_<UTC-date>.json in the "
        "current directory)",
    )

    add_campaign_arguments(subparsers)
    add_serve_arguments(subparsers)
    add_dashboard_arguments(subparsers)
    return parser


def _finalize_run(
    args: argparse.Namespace, outcome: dict, log, payload: "dict | None" = None
) -> None:
    """Export telemetry and persist the run record after a ``run``."""
    tel = telemetry()
    if args.trace:
        path = tel.export_chrome_trace(args.trace)
        log.info("chrome trace written to %s", path)
    if args.metrics:
        path = metrics().export_jsonl(args.metrics)
        log.info("metrics snapshot written to %s", path)
    record = RunRecord(
        name=args.experiment,
        config={
            "experiment": args.experiment,
            "preset": args.preset,
            "seed": args.seed,
            "use_disk_cache": not args.no_cache,
        },
        payload=payload or {},
        metrics=metrics().snapshot(),
        spans=tel.aggregate(),
        outcome=outcome,
    )
    path = write_run_record(record, Path(args.runs_dir) if args.runs_dir else None)
    log.info("run record written to %s", path)


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(
        -1 if args.quiet else args.verbose,
        timestamps=True if args.log_timestamps else None,
    )
    log = get_logger("cli")
    if args.command == "list":
        width = max(len(key) for key in EXPERIMENTS)
        for key, experiment in EXPERIMENTS.items():
            print(f"{key:<{width}}  {experiment.description}")
        return 0

    if args.command == "bench":
        result = run_bench()
        path = write_bench_result(result, args.output)
        print(format_bench_result(result))
        log.info("benchmark result written to %s", path)
        return 0

    if args.command == "publish":
        return run_publish(args, log)

    if args.command == "serve":
        return run_serve(args, log)

    if args.command == "infer":
        return run_infer(args, log)

    if args.command == "dashboard":
        return run_dashboard(args, log)

    if args.command == "campaign":
        return run_campaign_command(args, log)

    if args.command == "stats":
        directory = Path(args.runs_dir) if args.runs_dir else None
        if args.list_records:
            rows = list_run_records(
                directory, name=args.name, status=args.status, last=args.last,
                kind="campaign" if args.campaign_only else None,
            )
            print(format_run_listing(rows))
            return 0 if rows else 1
        for flag, value in (
            ("--last", args.last),
            ("--status", args.status),
            ("--name", args.name),
            ("--campaign", args.campaign_only or None),
        ):
            if value is not None:
                log.warning("%s only applies with --list; ignoring", flag)
        path = Path(args.record) if args.record else latest_run_record_path(directory)
        if path is None:
            log.error("no run records found")
            return 1
        try:
            record = load_run_record(path, RunRecord, CampaignRecord)
        except (OSError, ValueError) as exc:
            log.error("cannot read record %s: %s", path, exc)
            return 1
        if isinstance(record, CampaignRecord):
            print(format_campaign_record(record))
        else:
            print(format_run_record(record))
        return 0

    tel = telemetry()
    tel.reset()
    tel.enable()
    metrics().reset()
    try:
        return _run_experiment(args, log)
    finally:
        tel.disable()


def _run_experiment(args: argparse.Namespace, log) -> int:
    """``repro run <exp>``: print the figure rows, write the run record."""
    name = args.experiment
    experiment = EXPERIMENTS[name]
    preset = preset_by_name(args.preset)
    print(f"=== {name}: {experiment.description} (preset {preset.name}) ===")
    timer = telemetry().span(f"experiment.{name}", force=True)
    try:
        with timer:
            result = run_experiment(
                name, preset, args.seed,
                use_disk_cache=not args.no_cache, workers=usable_cores(),
            )
            print(experiment.formatter(result))
            payload = cell_payload(result)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.error("experiment %s failed after %.1fs", name, timer.duration_s)
        traceback.print_exc()
        _finalize_run(
            args, {"status": "failed", "error": f"{type(exc).__name__}: {exc}"},
            log,
        )
        return 1
    print(f"--- {name} done in {timer.duration_s:.1f}s ---\n")
    outcome = {"name": name, "ok": True, "wall_time_s": timer.duration_s}
    _finalize_run(args, {"status": "ok", "experiments": [outcome]}, log, payload)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
