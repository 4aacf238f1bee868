"""The ``repro dashboard`` verb.

Kept separate from ``repro.cli`` for the same reason as
:mod:`repro.serve.cli`: that module registers the subparser and
dispatches here, keeping the experiment CLI readable.
"""

from __future__ import annotations

import argparse
import signal
from pathlib import Path

from ..runtime.logging import get_logger
from ..runtime.records import default_runs_dir
from .server import build_dashboard_server

_log = get_logger("dashboard.cli")


def add_dashboard_arguments(subparsers) -> None:
    """Register the ``dashboard`` subparser."""
    dashboard = subparsers.add_parser(
        "dashboard",
        help="serve a read-only web view of run records, bench "
        "trajectories, campaign journals, and live fleet metrics",
    )
    dashboard.add_argument("--host", default="127.0.0.1")
    dashboard.add_argument("--port", type=int, default=8078,
                           help="0 binds an ephemeral port "
                           "(printed at startup)")
    dashboard.add_argument("--runs-dir", metavar="DIR", default=None,
                           help="run-record directory "
                           "(default runs/, or REPRO_RUNS_DIR)")
    dashboard.add_argument("--bench-dir", metavar="DIR", default=None,
                           help="directory scanned for BENCH_*.json "
                           "(default: current directory)")
    dashboard.add_argument("--journal", metavar="PATH", default=None,
                           help="campaign journal to tail at /api/journal "
                           "(default: the newest <runs-dir>/campaign-*.jsonl)")
    dashboard.add_argument("--server-url", metavar="URL", default=None,
                           help="running `repro serve` instance whose "
                           "fleet metrics /api/fleet proxies")


def newest_campaign_journal(runs_dir: "str | Path") -> "Path | None":
    """The most recently written ``campaign-*.jsonl`` in ``runs_dir``.

    ``CampaignRunner`` journals to ``<runs-dir>/campaign-<name>.jsonl``
    by default, so this is the campaign that ran (or is running) last.
    """
    journals = Path(runs_dir).glob("campaign-*.jsonl")
    return max(journals, key=lambda path: path.stat().st_mtime, default=None)


def run_dashboard(args: argparse.Namespace, log) -> int:
    journal = args.journal
    if journal is None:
        journal = newest_campaign_journal(args.runs_dir or default_runs_dir())
    server = build_dashboard_server(
        host=args.host,
        port=args.port,
        runs_dir=args.runs_dir,
        bench_dir=args.bench_dir,
        journal_path=journal,
        server_url=args.server_url,
    )

    def _interrupt(signum: int, frame) -> None:
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _interrupt)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    with server:
        index = server.data.index()
        log.info(
            "dashboard sees %d run records in %s, %d bench files in %s",
            index["run_count"], index["runs_dir"],
            len(index["bench_files"]), index["bench_dir"],
        )
        print(f"dashboard at {server.url}", flush=True)
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            log.info("dashboard shutting down")
    return 0
