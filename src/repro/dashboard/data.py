"""Read-side data access for the dashboard.

Everything here is a pure read over artifacts other subsystems already
emit — run records (:mod:`repro.runtime.records`), ``BENCH_*.json``
results (:mod:`repro.bench`), sweep journals
(:mod:`repro.runtime.journal`), and a live server's ``GET /metrics``.
The dashboard never writes anything, so pointing it at a runs directory
mid-sweep is always safe.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from pathlib import Path

from ..bench import load_bench_result
from ..runtime.journal import parse_journal_line
from ..runtime.logging import get_logger
from ..runtime.records import default_runs_dir, list_run_records

_log = get_logger("dashboard")

#: Stages charted on the bench trajectory; the rest remain available via
#: the per-file detail in the diff endpoint.
TRAJECTORY_STAGES = (
    "simulator.sequence",
    "process.drai_sequence",
    "sample.end_to_end",
)


class DashboardData:
    """Indexes the artifact directories the dashboard serves.

    ``runs_dir`` holds run records, ``bench_dir`` the ``BENCH_*.json``
    files (the repo root, normally), ``journal_path`` an optional sweep
    journal to tail, and ``server_url`` an optional live inference
    server whose fleet metrics ``/api/fleet`` proxies.
    """

    def __init__(
        self,
        runs_dir: "str | os.PathLike | None" = None,
        bench_dir: "str | os.PathLike | None" = None,
        journal_path: "str | os.PathLike | None" = None,
        server_url: "str | None" = None,
    ) -> None:
        self.runs_dir = Path(runs_dir) if runs_dir else default_runs_dir()
        self.bench_dir = Path(bench_dir) if bench_dir else Path(".")
        self.journal_path = Path(journal_path) if journal_path else None
        self.server_url = server_url.rstrip("/") if server_url else None

    # -- runs ---------------------------------------------------------

    def runs(
        self,
        name: "str | None" = None,
        status: "str | None" = None,
        last: "int | None" = None,
    ) -> "list[dict]":
        return list_run_records(self.runs_dir, name=name, status=status, last=last)

    def run_detail(self, filename: str) -> "dict | None":
        """Full JSON of one record by bare filename; None when absent.

        The filename arrives from a URL, so anything that is not a plain
        ``*.json`` name inside the runs dir (separators, ``..``) is
        rejected rather than resolved.
        """
        if (
            not filename.endswith(".json")
            or os.sep in filename
            or "/" in filename
            or filename.startswith(".")
        ):
            return None
        path = self.runs_dir / filename
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- campaigns ----------------------------------------------------

    def campaigns(self, last: "int | None" = None) -> "list[dict]":
        """Campaign-record summaries (``kind: campaign``), oldest first."""
        return list_run_records(self.runs_dir, kind="campaign", last=last)

    def campaign_detail(self, filename: str) -> "dict | None":
        """One campaign record plus a derived cell matrix; None when absent.

        The matrix groups cells as experiment rows x seed columns —
        the axes every campaign has — with status and headline metrics
        per entry, so the sweep reads as a grid rather than a flat list.
        """
        payload = self.run_detail(filename)
        if payload is None or payload.get("kind") != "campaign":
            return None
        cells = payload.get("cells") or []
        rows: "list[str]" = []
        cols: "list[int]" = []
        entries: "dict[str, dict]" = {}
        for cell in cells:
            if not isinstance(cell, dict):
                continue
            experiment = str(cell.get("experiment", "?"))
            seed = cell.get("seed", 0)
            if experiment not in rows:
                rows.append(experiment)
            if seed not in cols:
                cols.append(seed)
            entries[f"{experiment}|{seed}"] = {
                "key": cell.get("key"),
                "status": cell.get("status"),
                "wall_time_s": cell.get("wall_time_s"),
                "metrics": cell.get("metrics") or {},
                "error": cell.get("error"),
            }
        payload = dict(payload)
        payload["matrix"] = {
            "rows": rows,
            "cols": sorted(cols, key=str),
            "cells": entries,
        }
        return payload

    # -- bench --------------------------------------------------------

    def bench_files(self) -> "list[Path]":
        if not self.bench_dir.is_dir():
            return []
        return sorted(self.bench_dir.glob("BENCH_*.json"))

    def bench_trajectory(self) -> "dict[str, object]":
        """One labeled point per loadable ``BENCH_*.json``, oldest first.

        Unloadable files (foreign JSON, refused schema versions) are
        reported in ``skipped`` instead of failing the whole trajectory —
        one bad file must not blank the chart.
        """
        points: "list[dict]" = []
        skipped: "list[dict]" = []
        for path in self.bench_files():
            try:
                result = load_bench_result(path)
            except (OSError, ValueError) as exc:
                skipped.append({"file": path.name, "error": str(exc)})
                continue
            stages = result.get("stages") or {}
            points.append({
                "file": path.name,
                "schema_version": result.get("schema_version"),
                "meta": result.get("meta"),
                "generated_utc": result.get("generated_utc"),
                "samples_per_s": (result.get("throughput") or {}).get(
                    "samples_per_s"
                ),
                "speedup": result.get("speedup"),
                "stages_min_s": {
                    name: stages[name]["min_s"]
                    for name in TRAJECTORY_STAGES
                    if name in stages
                },
            })
        return {"points": points, "skipped": skipped}

    def bench_diff(self, file_a: str, file_b: str) -> "dict[str, object]":
        """Per-stage ``min_s`` comparison of two bench files (b vs a).

        ``ratio`` > 1 means b is slower; both files must live in the
        bench dir (same bare-filename rule as :meth:`run_detail`).
        Raises ``ValueError`` for missing or unloadable files.
        """
        results = []
        for filename in (file_a, file_b):
            if os.sep in filename or "/" in filename:
                raise ValueError(f"bench diff takes bare filenames, got {filename!r}")
            path = self.bench_dir / filename
            if not path.is_file():
                raise ValueError(f"no such bench file: {filename}")
            results.append(load_bench_result(path))
        a, b = results
        stages_a = a.get("stages") or {}
        stages_b = b.get("stages") or {}
        stages: "dict[str, dict]" = {}
        for name in sorted(set(stages_a) & set(stages_b)):
            min_a = stages_a[name]["min_s"]
            min_b = stages_b[name]["min_s"]
            stages[name] = {
                "a_min_s": min_a,
                "b_min_s": min_b,
                "delta_s": min_b - min_a,
                "ratio": (min_b / min_a) if min_a else None,
            }
        return {
            "a": {"file": file_a, "meta": a.get("meta")},
            "b": {"file": file_b, "meta": b.get("meta")},
            "stages": stages,
            "only_in_a": sorted(set(stages_a) - set(stages_b)),
            "only_in_b": sorted(set(stages_b) - set(stages_a)),
        }

    # -- journal ------------------------------------------------------

    def journal_tail(self, offset: int = 0) -> "dict[str, object]":
        """Journal entries from line ``offset`` on, plus the next offset.

        Polling clients pass back ``next_offset`` to read only new lines.
        A newline-terminated line that does not decode to an object is
        skipped, as the journal's own loader skips it.  An unterminated
        one that does not (sweep writer mid-append) is not consumed:
        ``next_offset`` stops before it, so the next poll retries it.
        """
        if self.journal_path is None or not self.journal_path.is_file():
            return {"entries": [], "next_offset": offset, "exists": False}
        entries: "list[dict]" = []
        consumed = offset
        with open(self.journal_path) as handle:
            for index, line in enumerate(handle):
                if index < offset:
                    continue
                if line.strip():
                    try:
                        entries.append(parse_journal_line(line))
                    except ValueError:
                        if not line.endswith("\n"):
                            break
                consumed = index + 1
        done = sum(1 for e in entries if e.get("status") == "done")
        failed = sum(1 for e in entries if e.get("status") == "failed")
        return {
            "entries": entries,
            "next_offset": consumed,
            "exists": True,
            "done": done,
            "failed": failed,
        }

    # -- fleet proxy --------------------------------------------------

    def fleet_metrics(self, timeout_s: float = 5.0) -> "dict[str, object]":
        """``GET /metrics`` from the configured live server.

        Raises ``ConnectionError`` when no server is configured or the
        fetch fails; the HTTP layer maps that to a 503 so the dashboard
        stays up while the fleet is down.
        """
        if not self.server_url:
            raise ConnectionError("no --server-url configured")
        url = f"{self.server_url}/metrics"
        try:
            with urllib.request.urlopen(url, timeout=timeout_s) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (OSError, ValueError, urllib.error.URLError) as exc:
            raise ConnectionError(f"fleet metrics fetch from {url} failed: {exc}")
        return {"server_url": self.server_url, "metrics": payload}

    # -- index --------------------------------------------------------

    def index(self) -> "dict[str, object]":
        """The landing summary: what this dashboard can see."""
        runs = self.runs()
        campaigns = self.campaigns()
        return {
            "runs_dir": str(self.runs_dir),
            "run_count": len(runs),
            "latest_run": runs[-1] if runs else None,
            "campaign_count": len(campaigns),
            "latest_campaign": campaigns[-1] if campaigns else None,
            "bench_dir": str(self.bench_dir),
            "bench_files": [path.name for path in self.bench_files()],
            "journal_path": (
                str(self.journal_path) if self.journal_path else None
            ),
            "server_url": self.server_url,
        }
