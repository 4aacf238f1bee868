"""Request-id propagation and the access log.

The acceptance contract: every response (success and error, health
probes included) carries an ``X-Repro-Request-Id`` header, and each id
appears in exactly one access-log line carrying per-stage span timings
for successful predictions.
"""

import json
import threading
import time

import pytest

from repro.serve import (
    EngineConfig,
    REQUEST_ID_HEADER,
    ServerConfig,
    build_server,
    normalize_request_id,
    read_access_log,
)
from repro.serve.client import _request
from repro.serve.trace import SPAN_STAGES, AccessLog

ENGINE_STAGES = {"enqueue", "batch_wait", "predict", "fanout"}


def _header(headers: dict) -> "str | None":
    for name, value in headers.items():
        if name.lower() == REQUEST_ID_HEADER.lower():
            return value
    return None


@pytest.fixture()
def traced_server(published_registry, tmp_path):
    """A live server writing a JSONL access log we can read back."""
    registry, _ = published_registry
    log_path = tmp_path / "access.jsonl"
    server = build_server(
        registry.root,
        EngineConfig(max_batch=4),
        ServerConfig(port=0, access_log_path=str(log_path)),
    )
    with server:
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        yield server, log_path
        server.shutdown()
        thread.join()


def _predict_body(micro_dataset) -> bytes:
    return json.dumps({"sequence": micro_dataset.x[0].tolist()}).encode()


def test_normalize_request_id():
    assert normalize_request_id("abc-123") == "abc-123"
    minted = normalize_request_id(None)
    assert len(minted) == 16 and minted != normalize_request_id(None)
    # Garbage inbound ids are replaced, never honored or truncated.
    assert normalize_request_id("") != ""
    assert normalize_request_id("has space") != "has space"
    assert normalize_request_id("ctrl\x01char") != "ctrl\x01char"
    oversized = "x" * 200
    assert normalize_request_id(oversized) != oversized


def test_predict_honors_inbound_request_id(traced_server, micro_dataset):
    server, _ = traced_server
    status, payload, headers = _request(
        server.url + "/v1/predict", _predict_body(micro_dataset),
        request_id="caller-id-7",
    )
    assert status == 200
    assert _header(headers) == "caller-id-7"
    assert payload["request_id"] == "caller-id-7"
    assert ENGINE_STAGES <= set(payload["spans_ms"])
    assert set(payload["spans_ms"]) <= set(SPAN_STAGES)


def test_predict_mints_request_id_when_absent(traced_server, micro_dataset):
    server, _ = traced_server
    status, payload, headers = _request(
        server.url + "/v1/predict", _predict_body(micro_dataset)
    )
    assert status == 200
    rid = _header(headers)
    assert rid and len(rid) == 16
    assert payload["request_id"] == rid


def test_probes_and_errors_carry_request_id(traced_server):
    server, _ = traced_server
    for path, expected_status in (
        ("/healthz", 200),
        ("/readyz", 200),
        ("/metrics", 200),
        ("/nope", 404),
    ):
        status, _, headers = _request(server.url + path)
        assert status == expected_status, path
        assert _header(headers), path
    # Validation failures (400) are responses too.
    status, _, headers = _request(
        server.url + "/v1/predict", json.dumps({"bogus": 1}).encode()
    )
    assert status == 400
    assert _header(headers)


def test_each_response_logs_exactly_one_line(traced_server, micro_dataset):
    server, log_path = traced_server
    seen_ids = []
    for index in range(3):
        _, _, headers = _request(
            server.url + "/v1/predict", _predict_body(micro_dataset),
            request_id=f"predict-{index}",
        )
        seen_ids.append(_header(headers))
    for path in ("/healthz", "/nope"):
        _, _, headers = _request(server.url + path)
        seen_ids.append(_header(headers))
    entries = read_access_log(log_path)
    logged = [entry["id"] for entry in entries]
    for rid in seen_ids:
        assert logged.count(rid) == 1, rid
    by_id = {entry["id"]: entry for entry in entries}
    for index in range(3):
        entry = by_id[f"predict-{index}"]
        assert entry["status"] == 200
        assert entry["model"]
        assert entry["batch_size"] >= 1
        assert ENGINE_STAGES <= set(entry["spans_ms"])
        assert entry["latency_ms"] > 0.0
    assert by_id[seen_ids[-1]]["status"] == 404
    assert by_id[seen_ids[-1]]["error"] == "NotFound"


def test_access_log_line_is_written_before_the_response(
    traced_server, micro_dataset, monkeypatch
):
    """A client that reads the access log as soon as its response arrives
    finds that response's line, however slow the log write is."""
    server, log_path = traced_server
    log = AccessLog.log

    def slow_log(self, entry):
        time.sleep(0.2)
        log(self, entry)

    monkeypatch.setattr(AccessLog, "log", slow_log)
    for path, body in (
        ("/healthz", None),
        ("/v1/predict", _predict_body(micro_dataset)),
    ):
        _, _, headers = _request(server.url + path, body)
        logged = [entry["id"] for entry in read_access_log(log_path)]
        assert _header(headers) in logged, path
