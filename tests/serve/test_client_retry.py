"""Client retries: Retry-After honoring, budgets, load-generator counts."""

import threading
import time

import numpy as np
import pytest

from repro.runtime.backoff import RetryPolicy
from repro.runtime.telemetry import metrics
from repro.serve import (
    EngineConfig,
    ServerConfig,
    build_server,
    predict_with_retry,
    run_load,
)
from repro.serve import client as client_module
from repro.serve.client import _retry_after_s

from .conftest import hold_first_forward

SEQUENCE = np.zeros((8, 16, 16), dtype=np.float32)
POLICY = RetryPolicy(max_attempts=4, base_delay_s=0.01, max_delay_s=5.0)


def _scripted(responses):
    """A fake ``_request`` yielding canned (status, payload, headers)."""
    calls = []

    def fake(url, body=None, timeout_s=30.0, request_id=None):
        index = min(len(calls), len(responses) - 1)
        calls.append(url)
        response = responses[index]
        if isinstance(response, Exception):
            raise response
        return response

    return fake, calls


def test_retry_honors_server_retry_after(monkeypatch):
    fake, calls = _scripted([
        (503, {"error": {"type": "CircuitOpenError"}}, {"Retry-After": "0.123"}),
        (503, {"error": {"type": "DrainingError"}}, {"Retry-After": "0.456"}),
        (200, {"label": 1, "label_name": "walking"}, {}),
    ])
    monkeypatch.setattr(client_module, "_request", fake)
    sleeps = []
    status, payload, retries = predict_with_retry(
        "http://x", SEQUENCE, policy=POLICY, sleep=sleeps.append
    )
    assert status == 200
    assert payload["label"] == 1
    assert retries == 2
    assert len(calls) == 3
    # The server's hint overrides the policy's computed backoff.
    assert sleeps == [0.123, 0.456]


def test_retry_after_is_capped_by_policy_max_delay(monkeypatch):
    fake, _ = _scripted([
        (429, {"error": {"type": "OverloadError"}}, {"Retry-After": "3600"}),
        (200, {"label": 0, "label_name": "walking"}, {}),
    ])
    monkeypatch.setattr(client_module, "_request", fake)
    sleeps = []
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.2)
    status, _, retries = predict_with_retry(
        "http://x", SEQUENCE, policy=policy, sleep=sleeps.append
    )
    assert status == 200 and retries == 1
    assert sleeps == [0.2]


def test_non_retryable_status_returns_immediately(monkeypatch):
    fake, calls = _scripted([
        (404, {"error": {"type": "ModelNotFoundError"}}, {}),
    ])
    monkeypatch.setattr(client_module, "_request", fake)
    status, payload, retries = predict_with_retry(
        "http://x", SEQUENCE, policy=POLICY, sleep=lambda _s: None
    )
    assert status == 404
    assert retries == 0
    assert len(calls) == 1


def test_budget_exhaustion_returns_last_shed_status(monkeypatch):
    fake, calls = _scripted([
        (503, {"error": {"type": "CircuitOpenError"}}, {}),
    ])
    monkeypatch.setattr(client_module, "_request", fake)
    status, payload, retries = predict_with_retry(
        "http://x", SEQUENCE, policy=POLICY, sleep=lambda _s: None
    )
    assert status == 503
    assert retries == POLICY.max_attempts - 1
    assert len(calls) == POLICY.max_attempts


def test_transport_errors_retry_then_reraise(monkeypatch):
    fake, calls = _scripted([ConnectionRefusedError("nope")])
    monkeypatch.setattr(client_module, "_request", fake)
    with pytest.raises(OSError):
        predict_with_retry(
            "http://x", SEQUENCE, policy=POLICY, sleep=lambda _s: None
        )
    assert len(calls) == POLICY.max_attempts


def test_transport_error_then_success(monkeypatch):
    fake, _ = _scripted([
        ConnectionResetError("mid-respawn"),
        (200, {"label": 2, "label_name": "sitting"}, {}),
    ])
    monkeypatch.setattr(client_module, "_request", fake)
    status, payload, retries = predict_with_retry(
        "http://x", SEQUENCE, policy=POLICY, sleep=lambda _s: None
    )
    assert status == 200 and retries == 1


def test_retry_after_header_parsing():
    assert _retry_after_s({"Retry-After": "2.5"}) == 2.5
    assert _retry_after_s({"retry-after": "1"}) == 1.0
    assert _retry_after_s({"Retry-After": "soon"}) is None
    assert _retry_after_s({}) is None
    assert _retry_after_s({"Retry-After": "-3"}) == 0.0


def test_burst_with_retries_recovers_shed_requests(
    published_registry, micro_dataset, monkeypatch
):
    """Against a tiny admission queue, a burst sheds 429s — and the
    retrying client wins them all back within its budget.

    The engine's first batch is held until a request has been shed, so
    the burst overflows the queue however fast inference drains it.
    """
    registry, _ = published_registry
    shed = metrics().counter("serve.load_shed_total")

    def until_shed() -> None:
        deadline = time.monotonic() + 10.0
        while shed.value == 0 and time.monotonic() < deadline:
            time.sleep(0.005)

    hold_first_forward(monkeypatch, until_shed)
    server = build_server(
        registry.root,
        EngineConfig(
            max_batch=4, queue_capacity=2,
            screen_by_default=False,
        ),
        ServerConfig(port=0),
    )
    with server:
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            summary = run_load(
                server.url, micro_dataset.x[:2], requests=12, burst=True,
                retry=True,
                retry_policy=RetryPolicy(
                    max_attempts=10, base_delay_s=0.05, max_delay_s=0.2
                ),
            )
        finally:
            server.shutdown()
            thread.join()
    assert summary["ok"] == 12
    assert summary["retries"] > 0
    assert summary["recovered_after_retry"] > 0


def test_steady_load_reports_zero_retries(live_server, micro_dataset):
    summary = run_load(
        live_server.url, micro_dataset.x[:4], requests=8, concurrency=4,
        screen=False, retry=True,
    )
    assert summary["ok"] == 8
    assert summary["retries"] == 0
    assert summary["recovered_after_retry"] == 0
