"""Stdlib HTTP serving for the inference engine.

A ``ThreadingHTTPServer`` (one thread per connection, no new
dependencies) exposing:

``POST /v1/predict``
    Body ``{"sequence": [[[...]]], "model": "latest", "screen": true,
    "deadline_ms": 1000}``; responds with the predicted label, class
    probabilities, optional trigger-screen verdict, and timing.
``GET /healthz``
    Pure liveness (200 while the process can answer), plus the default
    model's input contract (frame count and shape) when one is published
    so clients can size requests without reading the registry.
``GET /readyz``
    Readiness: 200 only when at least one replica is READY and the
    default model resolves; the body carries per-replica state JSON
    (slot, state, pid, in-flight count, respawns) from either the
    in-process engine or a :class:`~repro.serve.fleet.ReplicaFleet`.
``GET /metrics``
    The process metrics snapshot as JSON (counters, gauges, and the
    ``serve.*``/``fleet.*`` latency/batch-size histograms).  When a
    :class:`~repro.serve.fleet.ReplicaFleet` is behind the front door,
    the snapshot is the *fleet-wide merge*: parent-side counters folded
    with every replica's heartbeat-piggybacked registry (plus a retired
    ledger for dead generations), with the raw per-replica snapshots
    under a ``fleet.per_replica`` breakdown key.

Every predict body goes through one parser, :func:`parse_predict_body`.
In front of a single in-process engine the front door runs it.  In
front of a :class:`~repro.serve.fleet.ReplicaFleet` it only reads the
body and, when the body is plainly shaped (``sequence`` first; see
:func:`split_predict_body`), checks its envelope -- ``model``,
``screen``, ``deadline_ms`` -- and hands the body on whole: the serving
replica decodes the sequence, so the decodes of concurrent requests run
in the replicas' processes instead of taking turns on the front door's
interpreter lock.  The fleet still decodes a body in this process when
it has more than :data:`~repro.serve.fleet.SHIPPED_BYTES_PER_VALUE`
bytes per value of its model's input, or when its request does not
succeed.  Replies and metrics are the same either way, error replies
included.

Every response — success, error, ``/healthz``, ``/readyz`` — carries an
``X-Repro-Request-Id`` header (the inbound one when the client sent it,
else freshly minted) and, when an access log is configured, writes
exactly one JSONL access-log line keyed by that id with per-stage span
timings.

Failures map to typed JSON errors, never stack traces: malformed
requests are 400, oversized bodies 413, unknown models 404, a full
admission queue 429, a missed deadline 504, and a tampered registry
artifact / dead replica / draining or breaker-open fleet 503 (with a
``Retry-After`` header carrying the breaker's cooldown) — the
:class:`~repro.runtime.errors.ReproError` hierarchy decides the status,
so new error types default to 500 until given a mapping.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..runtime.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DrainingError,
    ModelNotFoundError,
    OverloadError,
    RegistryError,
    ReplicaDiedError,
    ReproError,
)
from ..runtime.logging import get_logger
from ..runtime.telemetry import MetricsRegistry, metrics
from .engine import EngineConfig, InferenceEngine
from .registry import ModelRegistry
from .trace import (
    REQUEST_ID_HEADER,
    AccessLog,
    new_request_id,
    normalize_request_id,
)

_log = get_logger("serve.http")

#: Request bodies above this bound are rejected before parsing (a
#: 32-frame 32x32 float sequence is 0.4-0.7 MB of JSON; this leaves
#: generous headroom).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: ``ReproError`` subclass -> HTTP status.  Order matters: first match
#: wins, so subclasses precede their bases.
_ERROR_STATUS = (
    (ModelNotFoundError, 404),
    (RegistryError, 503),
    (OverloadError, 429),
    (DeadlineExceededError, 504),
    (ReplicaDiedError, 503),
    (DrainingError, 503),
    (CircuitOpenError, 503),
    (ReproError, 500),
)


class _PayloadTooLarge(Exception):
    """Request body above the configured bound (HTTP 413)."""


def _retry_after(status: int, exc: "Exception | None") -> "str | None":
    """``Retry-After`` value for shed statuses, else None.

    503s caused by an open breaker carry the breaker's actual cooldown
    (``CircuitOpenError.retry_after_s``, decimal seconds) so idempotent
    clients back off for exactly as long as the fleet needs.
    """
    if status == 429:
        return "1"
    if status == 503:
        return f"{max(float(getattr(exc, 'retry_after_s', 1.0)), 0.05):.3f}"
    return None


@dataclass(frozen=True)
class ServerConfig:
    """Bind address and request bounds of the HTTP front end."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = 8077
    #: Bodies above this are rejected with 413 before parsing.
    max_body_bytes: int = MAX_BODY_BYTES
    #: JSONL access log destination (None disables access logging).
    access_log_path: "str | None" = None


class InferenceServer(ThreadingHTTPServer):
    """HTTP front end owning one engine-like backend.

    ``engine`` is anything with the engine surface — an in-process
    :class:`InferenceEngine` or a :class:`~repro.serve.fleet.ReplicaFleet`
    of supervised worker processes; the handler only asks whether it
    takes whole request bodies (``submit_body``), as a fleet does.
    """

    #: In-flight handler threads must not block interpreter exit.
    daemon_threads = True
    #: Listen backlog.  socketserver's default of 5 overflowed under a
    #: synchronized burst and cost requests their connection; with room
    #: to accept them, the engine's admission queue sheds the surplus as
    #: 429s instead.
    request_queue_size = 128

    def __init__(
        self,
        address: "tuple[str, int]",
        engine: InferenceEngine,
        max_body_bytes: int = MAX_BODY_BYTES,
        access_log_path: "str | None" = None,
    ):
        super().__init__(address, _Handler)
        self.engine = engine
        self.max_body_bytes = max_body_bytes
        self.started_at = time.time()
        self.access_log = (
            AccessLog(access_log_path) if access_log_path else None
        )

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def __enter__(self) -> "InferenceServer":
        self.engine.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown_engine()
        self.server_close()
        if self.access_log is not None:
            self.access_log.close()

    def shutdown_engine(self) -> None:
        self.engine.stop()


def _error_payload(exc: Exception) -> "tuple[int, dict]":
    for error_type, status in _ERROR_STATUS:
        if isinstance(exc, error_type):
            return status, {
                "error": {"type": type(exc).__name__, "message": str(exc)}
            }
    return 500, {"error": {"type": "InternalError", "message": repr(exc)}}


#: The fields a predict body may carry.
_PREDICT_FIELDS = frozenset({"sequence", "model", "screen", "deadline_ms"})
#: The longest deadline a wait can hold: ``threading.TIMEOUT_MAX`` s.
_MAX_DEADLINE_MS = threading.TIMEOUT_MAX * 1e3
#: A body that opens with its ``sequence`` array, JSON whitespace allowed.
_SEQUENCE_FIRST = re.compile(rb'[ \t\n\r]*\{[ \t\n\r]*"sequence"[ \t\n\r]*:[ \t\n\r]*\[')


def parse_predict_body(raw: bytes) -> dict:
    """Decode and check a ``POST /v1/predict`` body -> ``submit`` kwargs.

    The one parser of predict bodies: the front door runs it, and so
    does a fleet replica on a body the front door handed on whole.
    Raises ``ValueError`` (HTTP 400) with the first problem found.
    """
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # Bytes that are not UTF-8, or arrays nested past the
        # interpreter's recursion limit, are malformed bodies too.
        raise ValueError(f"invalid JSON body: {exc}")
    if not isinstance(payload, dict) or "sequence" not in payload:
        raise ValueError('body must be an object with a "sequence" key')
    unknown = set(payload) - _PREDICT_FIELDS
    if unknown:
        raise ValueError(f"unknown request fields: {sorted(unknown)}")
    try:
        sequence = np.asarray(payload["sequence"], dtype=np.float32)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"sequence is not a numeric array: {exc}")
    return {"sequence": sequence, **_envelope(payload)}


def _envelope(payload: dict) -> dict:
    """The checked ``model``, ``screen`` and ``deadline_s`` of a body."""
    screen = payload.get("screen")
    if screen is not None and not isinstance(screen, bool):
        raise ValueError("screen must be a boolean")
    deadline_ms = payload.get("deadline_ms")
    deadline_s = None
    if deadline_ms is not None:
        # ``bool`` is an ``int``; ``not > 0`` also refuses NaN.
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not deadline_ms > 0
        ):
            raise ValueError("deadline_ms must be a positive number")
        if not deadline_ms <= _MAX_DEADLINE_MS:
            raise ValueError(
                f"deadline_ms must be at most {_MAX_DEADLINE_MS:.0f}"
            )
        deadline_s = float(deadline_ms) / 1e3
    model = payload.get("model", "latest")
    if not isinstance(model, str):
        raise ValueError("model must be a string id or alias")
    return {"model": model, "screen": screen, "deadline_s": deadline_s}


def split_predict_body(raw: bytes) -> "dict | None":
    """The checked envelope of a body, without decoding its ``sequence``.

    Returns the envelope as :func:`parse_predict_body` would give it, or
    None when the body is not plainly shaped: ``sequence`` first and
    spelled out exactly once, the array running to the last ``]`` before
    the next ``"`` (or the end), no backslash after it, and the rest an
    object whose envelope passes the checks.  If the array text then
    parses, ``raw`` is valid JSON with exactly this envelope; so
    :func:`parse_predict_body` of ``raw`` gives this envelope, or fails
    on the sequence alone.
    """
    head = _SEQUENCE_FIRST.match(raw)
    if head is None:
        return None
    start = head.end() - 1
    quote = raw.find(b'"', start)
    if quote < 0:
        quote = len(raw)
    end = raw.rfind(b"]", start, quote) + 1
    # No quote comes between the head and ``quote``: a second
    # ``"sequence"`` could only follow it.
    if end == 0 or b'"sequence"' in raw[quote:] or b"\\" in raw[end:]:
        return None
    try:
        payload = json.loads(raw[:start] + b"null" + raw[end:])
        if set(payload) - _PREDICT_FIELDS:
            return None
        return _envelope(payload)
    except ValueError:
        return None


class _Handler(BaseHTTPRequestHandler):
    server: InferenceServer

    #: Advertised in error responses and logs.
    server_version = "repro-serve/1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.debug("%s %s", self.address_string(), format % args)

    def _begin_request(self) -> None:
        """Mint/honor the request id and start the latency clock."""
        self._rid = normalize_request_id(self.headers.get(REQUEST_ID_HEADER))
        self._started_ns = time.perf_counter_ns()
        self._trace: "dict | None" = None

    def _send_json(
        self, status: int, payload: dict, retry_after: "str | None" = None
    ) -> None:
        """The single response choke point: every response passes through
        here, so every response gets the request-id header and exactly
        one access-log line.  The line is written before the body, so a
        client that reads the log once its response arrives finds it."""
        rid = getattr(self, "_rid", None)
        if rid is None:
            rid = self._rid = new_request_id()
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header(REQUEST_ID_HEADER, rid)
        if retry_after is None:
            retry_after = _retry_after(status, None)
        if retry_after is not None:
            self.send_header("Retry-After", retry_after)
        self._log_access(status, payload, retry_after)
        self.end_headers()
        self.wfile.write(body)

    def _log_access(
        self, status: int, payload: dict, retry_after: "str | None"
    ) -> None:
        access_log = self.server.access_log
        if access_log is None:
            return
        started_ns = getattr(self, "_started_ns", None)
        entry: dict = {
            "id": self._rid,
            "ts": time.time(),
            "method": self.command,
            "path": self.path,
            "status": status,
            "latency_ms": (
                round((time.perf_counter_ns() - started_ns) / 1e6, 3)
                if started_ns is not None else None
            ),
        }
        trace = getattr(self, "_trace", None)
        if trace:
            entry.update(trace)
        error = payload.get("error") if isinstance(payload, dict) else None
        if isinstance(error, dict):
            entry["error"] = error.get("type")
        if retry_after is not None:
            entry["retry_after"] = retry_after
        access_log.log(entry)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("request body required")
        if length > self.server.max_body_bytes:
            raise _PayloadTooLarge(
                f"request body of {length} bytes exceeds "
                f"{self.server.max_body_bytes}"
            )
        return self.rfile.read(length)

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        self._begin_request()
        try:
            if self.path == "/healthz":
                self._send_json(*self._healthz())
            elif self.path == "/readyz":
                self._send_json(*self._readyz())
            elif self.path == "/metrics":
                self._send_json(200, self._metrics())
            else:
                self._send_json(404, {
                    "error": {"type": "NotFound", "message": self.path}
                })
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            status, payload = _error_payload(exc)
            self._send_json(status, payload, _retry_after(status, exc))

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
        self._begin_request()
        if self.path != "/v1/predict":
            self._send_json(404, {
                "error": {"type": "NotFound", "message": self.path}
            })
            return
        try:
            raw = self._read_body()
            # A fleet's replicas decode a plainly shaped body's sequence;
            # the front door only checks its envelope.
            submit_body = getattr(self.server.engine, "submit_body", None)
            envelope = split_predict_body(raw) if submit_body else None
            if envelope is None:
                submit, payload = self.server.engine.submit, parse_predict_body(raw)
            else:
                submit, payload = submit_body, {"body": raw, **envelope}
            enqueue_ms = (time.perf_counter_ns() - self._started_ns) / 1e6
            prediction = submit(request_id=self._rid, **payload)
        except _PayloadTooLarge as exc:
            self._send_json(413, {
                "error": {"type": "PayloadTooLarge", "message": str(exc)}
            })
            return
        except (ValueError, TypeError, KeyError) as exc:
            self._send_json(400, {
                "error": {"type": "ValidationError", "message": str(exc)}
            })
            return
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            status, payload = _error_payload(exc)
            self._send_json(status, payload, _retry_after(status, exc))
            return
        # The front door owns the ``enqueue`` stage (read, then decode or
        # envelope check); the engine/fleet filled in the downstream stages.
        prediction.spans_ms["enqueue"] = enqueue_ms
        self._trace = {
            "model": prediction.model_id,
            "replica": prediction.replica,
            "batch_size": prediction.batch_size,
            "spans_ms": {
                stage: round(duration, 3)
                for stage, duration in prediction.spans_ms.items()
            },
        }
        self._send_json(200, prediction.to_json())

    # -- request/response shaping --------------------------------------
    def _metrics(self) -> dict:
        """The ``GET /metrics`` payload: flat name -> snapshot map.

        Single-engine mode serves the process registry directly.  Fleet
        mode merges the parent registry with every replica's
        heartbeat-piggybacked snapshot (plus the retired ledger), keeping
        the same flat top level — existing consumers see fleet-wide
        totals under the same keys — and adds a ``fleet.per_replica``
        breakdown entry.
        """
        snapshot = metrics().snapshot()
        fleet_metrics = getattr(self.server.engine, "metrics_snapshot", None)
        if fleet_metrics is None:
            return snapshot
        fleet_view = fleet_metrics()
        merged = MetricsRegistry()
        merged.merge_snapshot(snapshot)
        try:
            merged.merge_snapshot(fleet_view["merged"])
        except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
            _log.warning("fleet metrics merge failed: %s", exc)
            return snapshot
        combined = merged.snapshot()
        combined["fleet.per_replica"] = {
            "type": "breakdown",
            "replicas": fleet_view["per_replica"],
        }
        return combined

    def _healthz(self) -> "tuple[int, dict]":
        """Pure liveness: 200 whenever the process can answer at all.

        The default model's input contract rides along best-effort so
        clients can size requests, but a missing or degraded model never
        fails liveness — that is ``/readyz``'s job.
        """
        engine = self.server.engine
        body: dict = {
            "status": "ok",
            "uptime_s": round(time.time() - self.server.started_at, 3),
            "queue_depth": engine.queue_depth(),
            "models": engine.registry.list_models(),
            "aliases": engine.registry.aliases(),
        }
        try:
            manifest = engine.registry.manifest("latest")
        except ModelNotFoundError:
            body["status"] = "empty"
            return 200, body
        except RegistryError as exc:
            body["status"] = "degraded"
            body["error"] = str(exc)
            return 200, body
        body["model"] = {
            "id": manifest["model_id"],
            "labels": manifest["labels"],
            "num_frames": manifest["preprocessing"]["num_frames"],
            "frame_shape": manifest["preprocessing"]["frame_shape"],
            "screening": manifest.get("detector") is not None,
        }
        return 200, body

    def _readyz(self) -> "tuple[int, dict]":
        """Readiness: >= 1 READY replica and a resolvable default model."""
        engine = self.server.engine
        body = engine.describe()
        try:
            engine.registry.resolve("latest")
            model_ok = True
        except ReproError:
            model_ok = False
        ready = body["ready"] >= 1 and model_ok and not body["draining"]
        body["model_resolvable"] = model_ok
        body["status"] = "ready" if ready else "unready"
        return (200 if ready else 503), body


def build_server(
    registry_path,
    engine_config: "EngineConfig | None" = None,
    server_config: "ServerConfig | None" = None,
    fleet_config=None,
) -> InferenceServer:
    """Registry path -> ready-to-start server (backend not yet running).

    With ``fleet_config`` (a :class:`~repro.serve.fleet.FleetConfig`) the
    server fronts a supervised multi-process :class:`ReplicaFleet`;
    otherwise a single in-process engine, exactly as before.
    """
    server_config = server_config or ServerConfig()
    registry = ModelRegistry(registry_path)
    if fleet_config is not None:
        from .fleet import ReplicaFleet

        engine = ReplicaFleet(registry, fleet_config)
    else:
        engine = InferenceEngine(registry, engine_config)
    return InferenceServer(
        (server_config.host, server_config.port),
        engine,
        max_body_bytes=server_config.max_body_bytes,
        access_log_path=server_config.access_log_path,
    )
