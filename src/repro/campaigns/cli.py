"""CLI verbs for declarative campaigns: ``repro campaign run|validate``.

Composed into the main parser the same way the serving and dashboard
verbs are (``add_campaign_arguments`` + a ``run_campaign_command``
dispatcher), keeping ``repro.cli`` a thin table of verbs.
"""

from __future__ import annotations

import dataclasses
import signal

from ..runtime.errors import (
    CampaignConfigError,
    JournalError,
    JournalMismatchError,
)
from ..runtime.telemetry import metrics, telemetry
from .config import config_digest, expand_cells, load_campaign
from .records import format_campaign_record
from .runner import CampaignRunner


def add_campaign_arguments(subparsers) -> None:
    """Attach the ``campaign`` verb family to the main parser."""
    campaign = subparsers.add_parser(
        "campaign",
        help="run a TOML-defined experiment grid (see examples/campaigns/)",
    )
    verbs = campaign.add_subparsers(dest="campaign_command", required=True)

    run = verbs.add_parser(
        "run", help="execute a campaign config over the worker pool"
    )
    run.add_argument("config", metavar="CONFIG.toml",
                     help="campaign config file")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="supervised process-pool width (1 = serial)")
    run.add_argument("--journal", metavar="PATH", default=None,
                     help="campaign journal path (default "
                     "<runs-dir>/campaign-<name>.jsonl)")
    run.add_argument("--resume", action="store_true",
                     help="skip cells the journal already marks done")
    run.add_argument("--runs-dir", metavar="DIR", default=None,
                     help="directory for the campaign record "
                     "(default runs/, or REPRO_RUNS_DIR)")
    run.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk dataset cache for all cells")

    validate = verbs.add_parser(
        "validate", help="check a campaign config and print its expansion"
    )
    validate.add_argument("config", metavar="CONFIG.toml")


def run_campaign_command(args, log) -> int:
    """Dispatch one ``repro campaign <verb>`` invocation."""
    handler = {
        "run": _run,
        "validate": _validate,
    }[args.campaign_command]
    return handler(args, log)


# ----------------------------------------------------------------------
def _load(args, log):
    try:
        return load_campaign(args.config)
    except CampaignConfigError as exc:
        log.error("campaign config %s is invalid:", args.config)
        for error in exc.errors:
            log.error("  %s", error)
        return None


def _validate(args, log) -> int:
    config = _load(args, log)
    if config is None:
        return 2
    cells = expand_cells(config)
    digest = config_digest(config)
    print(f"campaign {config.name}: valid")
    print(f"  config digest {digest[:12]} ({digest})")
    print(f"  cells         {len(cells)}")
    preview = cells[:8]
    for cell in preview:
        overrides = dict(cell.overrides)
        extra = f" overrides={overrides}" if overrides else ""
        print(
            f"    {cell.key:<28} experiment={cell.experiment} "
            f"preset={cell.preset} seed={cell.seed}{extra}"
        )
    if len(cells) > len(preview):
        print(f"    ... and {len(cells) - len(preview)} more")
    return 0


def _run(args, log) -> int:
    config = _load(args, log)
    if config is None:
        return 2
    if args.workers < 1:
        log.error("--workers must be >= 1, got %d", args.workers)
        return 2
    if args.no_cache:
        config = dataclasses.replace(config, use_disk_cache=False)
    runner = CampaignRunner(
        config,
        journal_path=args.journal,
        runs_dir=args.runs_dir,
        workers=args.workers,
    )

    tel = telemetry()
    tel.reset()
    tel.enable()
    metrics().reset()
    previous = _install_signal_handlers(log)
    try:
        outcome = runner.run(resume=args.resume)
    except JournalError as exc:
        log.error("cannot open campaign journal: %s", exc)
        if isinstance(exc, JournalMismatchError):
            log.error(
                "the journal at %s belongs to a different campaign config; "
                "pass --journal <fresh-path> to start a new sweep, or re-run "
                "with the config whose digest the journal records",
                runner.journal_path,
            )
        else:
            log.error("pass --journal <fresh-path> to start a new sweep")
        return 2
    finally:
        _restore_signal_handlers(previous)
        tel.disable()

    print(format_campaign_record(outcome.record))
    counts = outcome.counts
    print(
        f"campaign {config.name}: {outcome.record.outcome['status']} "
        f"(done={counts['done']} failed={counts['failed']} "
        f"skipped={counts['skipped']}); record {outcome.record_path}"
    )
    if outcome.interrupted:
        print(
            f"campaign interrupted; resume with `repro campaign run "
            f"{args.config} --resume --journal {outcome.journal_path}`"
        )
        return 130
    return 0 if outcome.all_ok else 1


def _install_signal_handlers(log) -> dict:
    """SIGINT/SIGTERM -> KeyboardInterrupt so campaigns unwind gracefully."""

    def _handler(signum: int, frame) -> None:
        log.warning("signal %d received; flushing journal and stopping", signum)
        raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    return previous


def _restore_signal_handlers(previous: dict) -> None:
    for signum, handler in previous.items():
        signal.signal(signum, handler)
