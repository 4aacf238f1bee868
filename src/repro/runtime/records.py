"""Run records: one JSON file per ``repro run`` invocation.

Every CLI run writes ``runs/<timestamp>-<name>.json`` capturing what was
run (experiment, preset, seed, git revision), what the experiment
returned (its ``{metrics, measured}`` payload, the same mapping a
campaign cell records), what the metrics registry counted, where the
time went (span aggregates), and how it ended — so a two-hour sweep
leaves an inspectable artifact instead of scrollback.  ``repro stats
[PATH]`` pretty-prints one record, the latest by default.

Campaign records (:mod:`repro.campaigns.records`) share the runs
directory, :func:`write_run_record` and :func:`load_run_record`: one
timestamped file name, one atomic write, one schema check.  A record's
``kind`` (``run`` unless the class says otherwise) tells them apart.
"""

from __future__ import annotations

import fnmatch
import json
import os
import subprocess
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

from .telemetry import quantile_from_buckets, write_text_atomic

#: Bump when the record layout changes; ``load_run_record`` tolerates
#: unknown extra keys but refuses other versions.
RUN_RECORD_SCHEMA_VERSION = 1


@dataclass
class RunRecord:
    """Everything worth keeping about one experiment invocation."""

    #: Not written: a file without a ``kind`` key is a run record.
    kind: ClassVar[str] = "run"

    name: str
    timestamp: str = ""
    config: dict = field(default_factory=dict)
    #: ``{"metrics": ..., "measured": ...}`` of the experiment's result.
    payload: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    outcome: dict = field(default_factory=dict)
    git_revision: str = ""
    schema_version: int = RUN_RECORD_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.timestamp:
            self.timestamp = time.strftime("%Y%m%dT%H%M%S")
        if not self.git_revision:
            self.git_revision = git_revision()


def git_revision() -> str:
    """Short ``git describe``-able revision of the working tree, if any."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if result.returncode != 0:
        return "unknown"
    return result.stdout.strip() or "unknown"


def default_runs_dir() -> Path:
    """Run-record directory (override with ``REPRO_RUNS_DIR``)."""
    env = os.environ.get("REPRO_RUNS_DIR")
    return Path(env) if env else Path("runs")


def write_run_record(record, directory: "str | Path | None" = None) -> Path:
    """Atomically persist a run or campaign record; returns the path written.

    The filename is ``<timestamp>-<name>.json`` (``<kind>-<name>`` for
    kinds other than ``run``) with a numeric suffix when two records of
    the same name land within one second.
    """
    directory = Path(directory) if directory is not None else default_runs_dir()
    stem = "".join(c if c.isalnum() or c in "-_" else "_" for c in record.name)
    if record.kind != RunRecord.kind:
        stem = f"{record.kind}-{stem}"
    path = directory / f"{record.timestamp}-{stem}.json"
    counter = 1
    while path.exists():
        path = directory / f"{record.timestamp}-{stem}.{counter}.json"
        counter += 1
    payload = json.dumps(asdict(record), indent=2, sort_keys=True, default=str)
    return write_text_atomic(path, payload + "\n")


def load_run_record(path: "str | os.PathLike", *record_types: type):
    """Read a record written by :func:`write_run_record`.

    ``record_types`` are the record classes the caller accepts (default
    :class:`RunRecord`); the file's ``kind`` picks one.  Another kind or
    a schema version other than the class's raises ``ValueError``;
    unknown extra keys are dropped.
    """
    with open(path) as handle:
        payload = json.load(handle)
    record_types = record_types or (RunRecord,)
    kind = payload.get("kind", RunRecord.kind) if isinstance(payload, dict) else None
    matches = [cls for cls in record_types if cls.kind == kind]
    if not matches:
        kinds = " or ".join(cls.kind for cls in record_types)
        raise ValueError(f"{path} is not a {kinds} record")
    record_type = matches[0]
    version = payload.get("schema_version")
    if version != record_type.schema_version:
        raise ValueError(
            f"{kind} record {path} has schema version {version!r}, "
            f"expected {record_type.schema_version}"
        )
    known = {item.name for item in fields(record_type)}
    return record_type(**{k: v for k, v in payload.items() if k in known})


def latest_run_record_path(directory: "Path | None" = None) -> "Path | None":
    """Newest record in ``directory`` (by timestamped filename), or None."""
    directory = Path(directory) if directory is not None else default_runs_dir()
    if not directory.is_dir():
        return None
    candidates = sorted(directory.glob("*.json"))
    return candidates[-1] if candidates else None


def record_status(outcome: dict) -> str:
    """One-word status of a record's outcome (``ok``/``degraded``/...)."""
    if not outcome:
        return "unknown"
    status = outcome.get("status")
    if status is None:
        status = "ok" if outcome.get("ok") else "failed"
    return str(status)


def summarize_run_record(path: "str | os.PathLike") -> "dict | None":
    """One listing row for a record file; None when it is unreadable.

    Listing must survive a runs dir containing torn or foreign JSON —
    a single bad file must not take down ``repro stats --list`` or the
    dashboard index.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    return {
        "path": str(path),
        "file": Path(path).name,
        "name": str(payload.get("name", "?")),
        # Campaign records share the runs dir; they carry kind="campaign"
        # and are listed as such rather than skipped as foreign JSON.
        "kind": str(payload.get("kind", "run")),
        "timestamp": str(payload.get("timestamp", "")),
        "status": record_status(payload.get("outcome") or {}),
        "git_revision": str(payload.get("git_revision", "")),
        "schema_version": payload.get("schema_version"),
    }


def list_run_records(
    directory: "Path | None" = None,
    name: "str | None" = None,
    status: "str | None" = None,
    last: "int | None" = None,
    kind: "str | None" = None,
) -> "list[dict]":
    """Summaries of the runs dir, oldest first.

    ``name`` is a shell glob against the record's experiment name,
    ``status`` an exact (case-insensitive) match on the outcome status,
    ``kind`` filters record kinds (``run``/``campaign``; None lists both),
    and ``last`` keeps only the newest N rows after filtering.
    """
    directory = Path(directory) if directory is not None else default_runs_dir()
    if not directory.is_dir():
        return []
    rows = []
    for path in sorted(directory.glob("*.json")):
        summary = summarize_run_record(path)
        if summary is None:
            continue
        if name is not None and not fnmatch.fnmatch(summary["name"], name):
            continue
        if status is not None and summary["status"].lower() != status.lower():
            continue
        if kind is not None and summary["kind"] != kind:
            continue
        rows.append(summary)
    if last is not None and last >= 0:
        rows = rows[-last:] if last else []
    return rows


def format_run_listing(rows: "list[dict]") -> str:
    """Tabular rendering of :func:`list_run_records` for ``repro stats``."""
    if not rows:
        return "no run records found"
    name_width = max(len(row["name"]) for row in rows)
    lines = [
        f"{'TIMESTAMP':<16} {'NAME':<{name_width}} {'KIND':<9} "
        f"{'STATUS':<9} {'GIT':<10} FILE"
    ]
    for row in rows:
        lines.append(
            f"{row['timestamp']:<16} {row['name']:<{name_width}} "
            f"{row.get('kind', 'run'):<9} "
            f"{row['status']:<9} {row['git_revision']:<10} {row['file']}"
        )
    return "\n".join(lines)


def format_run_record(record: RunRecord) -> str:
    """Human-readable rendering for ``repro stats``."""
    lines = [
        f"run record: {record.name}",
        f"  timestamp    {record.timestamp}",
        f"  git          {record.git_revision}",
        f"  outcome      {_format_outcome(record.outcome)}",
    ]
    config = record.config
    if config:
        interesting = ("experiment", "preset", "seed", "use_disk_cache")
        summary = " ".join(
            f"{key}={config[key]}" for key in interesting if key in config
        )
        lines.append(f"  config       {summary or '(see record file)'}")
    if record.payload:
        lines.append("  result:")
        for part in ("metrics", "measured"):
            for key, value in (record.payload.get(part) or {}).items():
                text = json.dumps(value)
                text = text if len(text) <= 60 else text[:57] + "..."
                lines.append(f"    {key:<36} {text}")
    if record.metrics:
        lines.append("  metrics:")
        for name, snap in sorted(record.metrics.items()):
            if not isinstance(snap, dict):
                # Bare scalars (e.g. the chaos drill's fleet counters).
                lines.append(f"    {name:<36} {snap}")
                continue
            kind = snap.get("type", "?")
            if kind == "histogram":
                lines.append(f"    {name:<36} {_format_histogram(snap)}")
            else:
                lines.append(f"    {name:<36} {snap.get('value', 0)}")
    if record.spans:
        lines.append("  spans (heaviest first):")
        heaviest = sorted(
            record.spans.items(),
            key=lambda kv: kv[1].get("total_s", 0.0),
            reverse=True,
        )
        for name, entry in heaviest:
            lines.append(
                f"    {name:<36} count={entry.get('count', 0):>5} "
                f"total={entry.get('total_s', 0.0):8.3f}s "
                f"mean={entry.get('mean_s', 0.0):8.4f}s"
            )
    return "\n".join(lines)


def _format_histogram(snap: dict) -> str:
    """``count/mean`` plus a le-bucket quantile summary.

    Serving latency histograms (``serve.request_latency_s`` and friends)
    are the main consumer: p50/p95/p99 estimated from the buckets read at
    a glance, where the raw bucket dict did not.
    """
    summary = (
        f"count={snap.get('count', 0)} mean={snap.get('mean', 0.0):.4g}"
    )
    if snap.get("count", 0):
        quantiles = " ".join(
            f"p{int(q * 100)}={quantile_from_buckets(snap, q):.4g}"
            for q in (0.5, 0.95, 0.99)
        )
        summary = f"{summary} {quantiles}"
    return summary


def _format_outcome(outcome: dict) -> str:
    if not outcome:
        return "unknown"
    status = outcome.get("status")
    if status is None:
        status = "ok" if outcome.get("ok") else "FAILED"
    parts = [str(status)]
    experiments = outcome.get("experiments")
    if isinstance(experiments, list) and experiments:
        succeeded = sum(1 for entry in experiments if entry.get("ok"))
        parts.append(f"({succeeded}/{len(experiments)} experiments ok)")
    if outcome.get("error"):
        parts.append(str(outcome["error"]))
    return " ".join(parts)
