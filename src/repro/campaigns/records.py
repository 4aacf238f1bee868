"""Schema-versioned campaign records.

One JSON file per campaign run, aggregating every cell's terminal
outcome plus a provenance meta block (git SHA, config digest, cpu count,
hostname — the BENCH v4 pattern).  Records carry ``"kind": "campaign"``
and share the runs directory, the atomic writer and the schema-checked
loader of run records (:mod:`repro.runtime.records`): ``repro stats
--list --campaign`` lists them, ``repro stats PATH`` renders one, and
the dashboard's ``/api/campaigns`` filters on the same marker.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..runtime.records import git_revision, write_run_record
from ..runtime.threads import blas_threads, usable_cores

#: Bump when the record layout changes; other versions are refused.
CAMPAIGN_RECORD_SCHEMA_VERSION = 1


def campaign_meta() -> dict:
    """Provenance block stamped into every campaign record."""
    return {
        "git_sha": git_revision(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "blas_threads": blas_threads(),
        "hostname": platform.node(),
        "python": platform.python_version(),
    }


@dataclass
class CampaignRecord:
    """Everything worth keeping about one campaign run."""

    name: str
    config: dict = field(default_factory=dict)
    config_digest: str = ""
    cells: "list[dict]" = field(default_factory=list)
    outcome: dict = field(default_factory=dict)
    meta: dict = field(default_factory=campaign_meta)
    spans: dict = field(default_factory=dict)
    timestamp: str = ""
    git_revision: str = ""
    kind: str = "campaign"
    schema_version: int = CAMPAIGN_RECORD_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.timestamp:
            self.timestamp = time.strftime("%Y%m%dT%H%M%S")
        if not self.git_revision:
            self.git_revision = self.meta.get("git_sha") or git_revision()


def write_campaign_record(
    record: CampaignRecord, directory: "Path | None" = None
) -> Path:
    """Atomically persist ``record``; returns the path written.

    The runner's one call into the shared record writer, kept under its
    own name so a profiler can wrap the campaign's record write alone.
    """
    return write_run_record(record, directory)


def format_campaign_record(record: CampaignRecord) -> str:
    """Human-readable rendering: a per-cell matrix table, then the
    traceback of every failed cell."""
    outcome = record.outcome or {}
    lines = [
        f"campaign record: {record.name}",
        f"  timestamp     {record.timestamp}",
        f"  git           {record.git_revision}",
        f"  config digest {record.config_digest[:12]}",
        f"  status        {outcome.get('status', 'unknown')}"
        + (
            f" ({outcome.get('cells_done', 0)}/{outcome.get('cells_total', 0)}"
            " cells done)"
            if "cells_total" in outcome else ""
        ),
    ]
    if record.cells:
        lines.append("  cells:")
        header = (
            f"    {'KEY':<28} {'EXPERIMENT':<10} {'PRESET':<8} "
            f"{'SEED':>10} {'STATUS':<8} {'WALL':>8}  METRICS"
        )
        lines.append(header)
        for cell in record.cells:
            lines.append(
                f"    {cell.get('key', '?'):<28} "
                f"{cell.get('experiment', '?'):<10} "
                f"{cell.get('preset', '?'):<8} "
                f"{cell.get('seed', 0):>10} "
                f"{cell.get('status', '?'):<8} "
                f"{cell.get('wall_time_s', 0.0):>7.2f}s  "
                f"{_headline(cell)}"
            )
    for cell in record.cells:
        if cell.get("status") == "failed" and cell.get("traceback"):
            lines.append("")
            lines.append(f"--- traceback: {cell.get('key', '?')} ---")
            lines.append(cell["traceback"].rstrip())
    return "\n".join(lines)


def _headline(cell: dict) -> str:
    """A one-glance metric summary for the cell table."""
    if cell.get("status") == "failed":
        return str(cell.get("error") or "failed")
    metrics = cell.get("metrics") or {}
    for key in ("accuracy", "asr_without_defense", "asr_after"):
        if key in metrics:
            return f"{key}={metrics[key]:.3f}"
    if "curves" in metrics:
        labels = ", ".join(sorted(metrics["curves"]))
        return f"curves: {labels}"
    if "num_virtual_antennas" in metrics:
        measured = cell.get("measured") or {}
        value = measured.get("seconds_per_activity")
        timing = f" {value:.3f}s/activity" if value is not None else ""
        return f"antennas={metrics['num_virtual_antennas']}{timing}"
    keys = ", ".join(sorted(metrics)) or "-"
    return keys
