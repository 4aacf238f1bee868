"""Stdlib HTTP client and a small concurrent load generator.

:func:`predict` round-trips one sequence through ``POST /v1/predict``;
:func:`predict_with_retry` wraps it in a
:class:`~repro.runtime.backoff.RetryPolicy` that re-issues idempotent
predicts shed with 429/503 (honoring the server's ``Retry-After``
header, e.g. a fleet circuit-breaker cooldown) or lost to transport
errors; :func:`run_load` fires many requests from worker threads (either
bounded concurrency or a single synchronized burst for exercising the
429 load-shedding path) and reports p50/p95/p99 latency, throughput,
retry counts, and the per-status breakdown — the numbers ``repro infer``
folds into a run record.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from ..runtime.backoff import RetryPolicy
from ..runtime.logging import get_logger

_log = get_logger("serve.client")

#: Statuses safe to retry for an idempotent predict: shed load (429) and
#: temporarily-unhealthy backend (503: dead replica, draining, breaker).
RETRYABLE_STATUSES = (429, 503)

#: Default client-side retry schedule; the server's ``Retry-After``
#: header, when present, overrides the computed delay (capped at
#: ``max_delay_s`` so a slow server cannot park the client forever).
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=4, base_delay_s=0.05, max_delay_s=2.0
)


def _request(
    url: str,
    body: "bytes | None" = None,
    timeout_s: float = 30.0,
    request_id: "str | None" = None,
) -> "tuple[int, dict, dict]":
    """One HTTP exchange -> ``(status, parsed JSON, headers)``.

    Error statuses (4xx/5xx) are returned, not raised — the load
    generator counts them; only transport failures raise ``OSError``.
    ``request_id`` is sent as ``X-Repro-Request-Id`` so server-side
    access-log lines correlate with the caller's own ids.
    """
    headers = {"Content-Type": "application/json"} if body else {}
    if request_id:
        headers["X-Repro-Request-Id"] = request_id
    request = urllib.request.Request(
        url,
        data=body,
        headers=headers,
        method="POST" if body is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read())
        except (ValueError, OSError):
            payload = {"error": {"type": "HTTPError", "message": str(exc)}}
        return exc.code, payload, dict(exc.headers or {})


def _request_json(
    url: str, body: "bytes | None" = None, timeout_s: float = 30.0
) -> "tuple[int, dict]":
    status, payload, _ = _request(url, body, timeout_s)
    return status, payload


def fetch_json(base_url: str, path: str, timeout_s: float = 10.0) -> dict:
    """GET a JSON endpoint (``/healthz``, ``/metrics``); raises on non-2xx."""
    status, payload = _request_json(
        base_url.rstrip("/") + path, timeout_s=timeout_s
    )
    if status >= 400:
        raise OSError(f"GET {path} returned {status}: {payload}")
    return payload


def _predict_body(
    sequence: np.ndarray,
    model: str = "latest",
    screen: "bool | None" = None,
    deadline_ms: "float | None" = None,
) -> bytes:
    """The ``POST /v1/predict`` body for one sequence.

    ``sequence`` comes first, so a fleet's front door can check the
    envelope and leave the array's decode to the serving replica.
    """
    body: dict = {
        "sequence": np.asarray(sequence, dtype=np.float32).tolist(),
        "model": model,
    }
    if screen is not None:
        body["screen"] = screen
    if deadline_ms is not None:
        body["deadline_ms"] = deadline_ms
    return json.dumps(body).encode()


def predict(
    base_url: str,
    sequence: np.ndarray,
    model: str = "latest",
    screen: "bool | None" = None,
    deadline_ms: "float | None" = None,
    timeout_s: float = 30.0,
    request_id: "str | None" = None,
) -> "tuple[int, dict]":
    """POST one sequence to ``/v1/predict`` -> ``(status, payload)``."""
    status, payload, _ = _request(
        base_url.rstrip("/") + "/v1/predict",
        _predict_body(sequence, model, screen, deadline_ms),
        timeout_s=timeout_s,
        request_id=request_id,
    )
    return status, payload


def _retry_after_s(headers: dict) -> "float | None":
    """Parse a ``Retry-After`` header (decimal seconds) if present."""
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                return max(float(value), 0.0)
            except (TypeError, ValueError):
                return None
    return None


def predict_with_retry(
    base_url: str,
    sequence: np.ndarray,
    model: str = "latest",
    screen: "bool | None" = None,
    deadline_ms: "float | None" = None,
    timeout_s: float = 30.0,
    policy: "RetryPolicy | None" = None,
    seed: int = 0,
    sleep=time.sleep,
    request_id: "str | None" = None,
) -> "tuple[int, dict, int]":
    """Predict with retries -> ``(status, payload, retries_used)``.

    Re-issues the (idempotent) request when the server sheds it with a
    :data:`RETRYABLE_STATUSES` status or the transport fails outright.
    The cool-down before each retry is the server's ``Retry-After``
    header when one came back (capped at the policy's ``max_delay_s``),
    else the policy's seeded-jitter exponential delay.  Non-retryable
    statuses (200, 400, 404, 504, ...) return immediately; when the
    budget runs out the last shed status is returned, and a final
    transport error is re-raised.  Every attempt sends the same
    ``request_id`` header, so one logical request's shed-then-recovered
    attempts share an id in the server's access log (one log line per
    attempt — each attempt is its own HTTP response).
    """
    policy = policy or DEFAULT_RETRY_POLICY
    encoded = _predict_body(sequence, model, screen, deadline_ms)
    url = base_url.rstrip("/") + "/v1/predict"
    attempt = 1
    while True:
        hinted = None
        try:
            status, payload, headers = _request(
                url, encoded, timeout_s, request_id=request_id
            )
            if status not in RETRYABLE_STATUSES:
                return status, payload, attempt - 1
            hinted = _retry_after_s(headers)
            outcome = f"status {status}"
        except OSError as exc:
            status, payload = None, None
            outcome = f"transport error {exc!r}"
            if attempt >= policy.max_attempts:
                raise
        if status is not None and attempt >= policy.max_attempts:
            return status, payload, attempt - 1
        delay = policy.delay_s(attempt, seed=seed)
        if hinted is not None:
            delay = min(hinted, policy.max_delay_s)
        _log.debug(
            "retrying predict after %s: attempt=%d/%d delay=%.3fs",
            outcome, attempt, policy.max_attempts, delay,
        )
        if delay > 0.0:
            sleep(delay)
        attempt += 1


def _percentile(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


@dataclass
class _LoadState:
    """Shared mutable tallies of one load-generation run."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    latencies_ms: "list[float]" = field(default_factory=list)
    statuses: "dict[int, int]" = field(default_factory=dict)
    transport_errors: int = 0
    labels: "dict[str, int]" = field(default_factory=dict)
    retries: int = 0
    recovered_after_retry: int = 0

    def record(
        self, status: int, latency_ms: float, payload: dict, retries: int = 0
    ) -> None:
        with self.lock:
            self.statuses[status] = self.statuses.get(status, 0) + 1
            self.retries += retries
            if status == 200:
                if retries:
                    self.recovered_after_retry += 1
                self.latencies_ms.append(latency_ms)
                name = payload.get("label_name", "?")
                self.labels[name] = self.labels.get(name, 0) + 1

    def record_transport_error(self, retries: int = 0) -> None:
        with self.lock:
            self.transport_errors += 1
            self.retries += retries


def run_load(
    base_url: str,
    sequences: np.ndarray,
    requests: int,
    concurrency: int = 8,
    screen: "bool | None" = None,
    deadline_ms: "float | None" = None,
    burst: bool = False,
    timeout_s: float = 60.0,
    retry: bool = False,
    retry_policy: "RetryPolicy | None" = None,
) -> dict:
    """Fire ``requests`` predictions and summarize the outcome.

    ``burst=True`` releases every request simultaneously from
    ``requests`` threads behind a barrier (the 429 load-shedding probe);
    otherwise ``concurrency`` workers each issue their share serially
    (the steady-state latency measurement).  ``retry=True`` routes each
    request through :func:`predict_with_retry`, so shed 429/503s are
    re-issued and the summary's ``retries`` / ``recovered_after_retry``
    fields report how much resilience the retries bought.
    """
    sequences = np.asarray(sequences, dtype=np.float32)
    if sequences.ndim == 3:
        sequences = sequences[None]
    if requests < 1 or concurrency < 1:
        raise ValueError("requests and concurrency must be >= 1")
    state = _LoadState()
    workers = requests if burst else min(concurrency, requests)
    barrier = threading.Barrier(workers) if burst else None

    def issue(request_index: int) -> None:
        sequence = sequences[request_index % len(sequences)]
        start = time.perf_counter()
        retries_used = 0
        try:
            if retry:
                status, payload, retries_used = predict_with_retry(
                    base_url, sequence, screen=screen,
                    deadline_ms=deadline_ms, timeout_s=timeout_s,
                    policy=retry_policy, seed=request_index,
                )
            else:
                status, payload = predict(
                    base_url, sequence, screen=screen,
                    deadline_ms=deadline_ms, timeout_s=timeout_s,
                )
        except OSError as exc:
            _log.debug("request %d transport error: %r", request_index, exc)
            state.record_transport_error(retries_used)
            return
        state.record(
            status, (time.perf_counter() - start) * 1e3, payload, retries_used
        )

    def worker(worker_index: int) -> None:
        if barrier is not None:
            barrier.wait()
            issue(worker_index)
            return
        for request_index in range(worker_index, requests, workers):
            issue(request_index)

    threads = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(workers)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - wall_start

    ordered = sorted(state.latencies_ms)
    ok = state.statuses.get(200, 0)
    return {
        "requests": requests,
        "concurrency": workers,
        "mode": "burst" if burst else "steady",
        "ok": ok,
        "shed_429": state.statuses.get(429, 0),
        "deadline_504": state.statuses.get(504, 0),
        "other_errors": sum(
            count for status, count in state.statuses.items()
            if status not in (200, 429, 504)
        ) + state.transport_errors,
        "statuses": {str(k): v for k, v in sorted(state.statuses.items())},
        "labels": dict(sorted(state.labels.items())),
        "retries": state.retries,
        "recovered_after_retry": state.recovered_after_retry,
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(ok / wall_s, 2) if wall_s > 0 else 0.0,
        "latency_ms": {
            "p50": round(_percentile(ordered, 50), 3),
            "p95": round(_percentile(ordered, 95), 3),
            "p99": round(_percentile(ordered, 99), 3),
            "mean": round(sum(ordered) / len(ordered), 3) if ordered else 0.0,
            "max": round(ordered[-1], 3) if ordered else 0.0,
        },
    }
