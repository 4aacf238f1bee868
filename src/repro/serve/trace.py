"""Request identity and the structured access log of the serving plane.

Every request through the HTTP front door gets a **request id**: the
inbound ``X-Repro-Request-Id`` header when the client sent one (so a
caller's own correlation ids survive), else a freshly minted hex id.
The id rides the request envelope through dispatch → replica →
micro-batch, comes back on every response (success *and* error,
``/healthz`` and ``/readyz`` included), and keys exactly one line in the
**access log** — an append-only JSONL file recording, per response: id,
method/path/status, model, latency, the serving replica, coalesced batch
size, the shed/breaker verdict when the request was refused, and the
per-stage span timeline (enqueue, dispatch, batch-wait, predict,
fan-out).

The access log is the serving twin of the pipeline's run records: where
a run record summarizes one sweep, the access log explains one request —
"why was request ``a3f1…`` slow" decomposes into which stage ate the
time.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from pathlib import Path

from ..runtime.logging import get_logger

__all__ = [
    "AccessLog",
    "REQUEST_ID_HEADER",
    "SPAN_STAGES",
    "new_request_id",
    "normalize_request_id",
    "read_access_log",
]

_log = get_logger("serve.trace")

#: Header carrying the request id in both directions: honored inbound,
#: echoed on every response.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: The per-request span timeline stages, in wall-clock order.
SPAN_STAGES = ("enqueue", "dispatch", "batch_wait", "predict", "fanout")

#: Inbound ids longer than this are replaced, not truncated — a
#: truncated id would *look* honored while correlating nothing.
_MAX_REQUEST_ID_LEN = 128


def new_request_id() -> str:
    """A fresh 16-hex-char request id (collision-safe at serving scale)."""
    return uuid.uuid4().hex[:16]


def normalize_request_id(raw: "str | None") -> str:
    """The id to use for a request given the inbound header value.

    A usable inbound id (printable, no whitespace beyond spaces, at most
    :data:`_MAX_REQUEST_ID_LEN` chars) is honored verbatim; anything
    else — missing, empty, control characters, oversized — gets a
    freshly minted id instead, so log lines never carry garbage keys.
    """
    if not raw:
        return new_request_id()
    candidate = raw.strip()
    if (
        not candidate
        or len(candidate) > _MAX_REQUEST_ID_LEN
        or not candidate.isprintable()
        or " " in candidate
    ):
        return new_request_id()
    return candidate


class AccessLog:
    """Append-only JSONL access log; one line per HTTP response.

    Writes are line-atomic (single ``write`` of one ``\\n``-terminated
    line under a lock, ``flush`` per line), so concurrent handler
    threads never interleave partial lines and a tail-follower sees only
    whole records.
    """

    def __init__(self, path: "str | os.PathLike"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def log(self, entry: dict) -> None:
        line = json.dumps(entry, sort_keys=True, default=str)
        try:
            with self._lock:
                self._handle.write(line + "\n")
                self._handle.flush()
        except (OSError, ValueError):  # pragma: no cover - disk full/closed
            _log.warning("access log write failed for %s", self.path)

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "AccessLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_access_log(path: "str | os.PathLike") -> "list[dict]":
    """Parse an access log, tolerating a torn trailing line.

    A crash mid-write can leave the final line truncated; like the sweep
    journal, readers skip unparseable lines instead of failing the whole
    file.
    """
    entries: "list[dict]" = []
    log_path = Path(path)
    if not log_path.exists():
        return entries
    for line in log_path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except ValueError:
            _log.debug("skipping unparseable access log line: %r", line[:80])
    return entries
