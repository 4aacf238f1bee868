"""Resumable sweep journal: crash-safe checkpoints of finished work units.

A campaign (:class:`repro.campaigns.CampaignRunner`) appends one JSON
line per *terminal* cell outcome.  Appends are flushed and fsynced, so
after a SIGINT or crash the journal holds every unit that finished;
re-running with ``resume=True`` skips those instead of redoing hours of
simulation.

Crash-safety model: a torn final line (the write that was interrupted) is
detected by JSON parse failure and ignored — the unit it described simply
re-runs — and resuming cuts it off before the first append, so no new
record is glued onto it.  Mid-file garbage (a line that does not parse,
or parses to something other than an object) is skipped with a warning.
The header line carries a campaign fingerprint (campaign name, config
digest); resuming against a journal from a *different* campaign raises
:class:`~repro.runtime.errors.JournalMismatchError` instead of silently
mixing incompatible results.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from .errors import JournalError, JournalMismatchError
from .logging import get_logger
from .telemetry import metrics

_log = get_logger("runtime.journal")

#: Bump when the line format changes; mismatched journals refuse to resume.
JOURNAL_VERSION = 1


def parse_journal_line(line: "str | bytes") -> dict:
    """One journal line as a JSON object; ``ValueError`` for anything else.

    Every record is an object, so a line that is valid JSON but not an
    object (``12``, ``[]``) is as corrupt as one that does not parse.
    """
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"journal line is a JSON {type(record).__name__}, not an object")
    return record


def _fingerprint_diff(recorded: dict, requested: dict) -> str:
    """Name the fingerprint keys that differ, so the error is actionable.

    Campaign fingerprints carry a ``config_digest``; when that is the
    differing key, the message names both digests directly instead of
    making the user diff two reprs.
    """
    keys = sorted(set(recorded) | set(requested))
    diffs = [
        f"{key}: journal={recorded.get(key)!r} requested={requested.get(key)!r}"
        for key in keys
        if recorded.get(key) != requested.get(key)
    ]
    return "differing keys: " + "; ".join(diffs) if diffs else "no differing keys"


class SweepJournal:
    """Append-only JSONL checkpoint file keyed by task ``key``.

    Use :meth:`open` (fresh or resuming) rather than the constructor.
    ``entries`` maps each key to its *latest* recorded outcome, e.g.::

        {"key": "fig7", "status": "done", "attempts": 1,
         "wall_time_s": 12.3, "payload": {...}}
    """

    def __init__(self, path: "str | os.PathLike"):
        self.path = Path(path)
        self.entries: "dict[str, dict]" = {}
        self._handle = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: "str | os.PathLike",
        campaign: "dict[str, Any] | None" = None,
        resume: bool = False,
    ) -> "SweepJournal":
        """Open a journal for writing, optionally resuming an existing one.

        Fresh mode truncates any existing journal (the sweep starts over);
        resume mode loads completed entries and verifies the campaign
        fingerprint matches.
        """
        journal = cls(path)
        campaign = campaign or {}
        if resume and journal.path.exists():
            header = journal._load()
            recorded = header.get("campaign", {})
            if recorded != campaign:
                raise JournalMismatchError(
                    journal.path,
                    "campaign mismatch: "
                    f"{_fingerprint_diff(recorded, campaign)}; "
                    f"journal has {recorded!r}, resume requested {campaign!r}",
                )
            journal._seal_tail()
            journal._handle = open(journal.path, "a")
            _log.info(
                "resuming sweep journal path=%s completed=%d",
                journal.path, len(journal.completed_keys()),
            )
            return journal
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        journal._handle = open(journal.path, "w")
        journal._append(
            {"journal_version": JOURNAL_VERSION, "campaign": campaign}
        )
        return journal

    def _load(self) -> dict:
        """Parse the journal, tolerating a torn trailing line."""
        header: dict = {}
        lines = self.path.read_text().splitlines()
        for lineno, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = parse_journal_line(line)
            except ValueError:
                if lineno == len(lines) - 1:
                    _log.warning(
                        "ignoring torn final journal line path=%s", self.path
                    )
                else:
                    _log.warning(
                        "skipping corrupt journal line %d path=%s",
                        lineno + 1, self.path,
                    )
                continue
            if "journal_version" in record:
                if record["journal_version"] != JOURNAL_VERSION:
                    raise JournalError(
                        self.path,
                        f"journal version {record['journal_version']!r} != "
                        f"expected {JOURNAL_VERSION}",
                    )
                header = record
            elif "key" in record:
                self.entries[record["key"]] = record
        if not header:
            raise JournalError(self.path, "missing journal header line")
        return header

    def _seal_tail(self) -> None:
        """Make the next append start a line of its own.

        An unterminated last line is a write cut short.  If it parses to
        an object, it is a whole record that only lost its newline:
        terminate it.  If not, drop it; :meth:`_load` already ignored it.
        """
        with open(self.path, "rb+") as handle:
            data = handle.read()
            if not data or data.endswith(b"\n"):
                return
            start = data.rfind(b"\n") + 1
            try:
                parse_journal_line(data[start:])
            except ValueError:
                handle.truncate(start)
            else:
                handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        key: str,
        status: str,
        payload: "dict[str, Any] | None" = None,
        attempts: int = 1,
        wall_time_s: float = 0.0,
    ) -> None:
        """Checkpoint one terminal outcome (``done`` or ``failed``)."""
        if status not in ("done", "failed"):
            raise ValueError(f"status must be 'done' or 'failed', got {status!r}")
        entry = {
            "key": key,
            "status": status,
            "attempts": attempts,
            "wall_time_s": wall_time_s,
            "payload": payload or {},
        }
        self.entries[key] = entry
        self._append(entry)
        metrics().counter("journal.records_written").inc()

    def _append(self, record: dict) -> None:
        if self._handle is None:
            raise JournalError(self.path, "journal is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def completed_keys(self) -> "set[str]":
        """Keys whose latest outcome is ``done`` (skipped on resume)."""
        return {
            key for key, entry in self.entries.items()
            if entry.get("status") == "done"
        }

    def entry(self, key: str) -> "dict | None":
        return self.entries.get(key)
