"""HTTP edge cases: 413, deterministic 504, liveness/readiness, Retry-After."""

import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

from repro.runtime.backoff import RetryPolicy
from repro.serve import (
    EngineConfig,
    FleetConfig,
    ServerConfig,
    build_server,
    fetch_json,
    predict,
)


@contextmanager
def serving(server):
    with server:
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            thread.join()


def _post_raw(url: str, raw: bytes):
    request = urllib.request.Request(
        url + "/v1/predict", data=raw,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), json.loads(exc.read())


def _get_raw(url: str, path: str):
    try:
        with urllib.request.urlopen(url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_oversized_body_is_413(published_registry, micro_dataset):
    registry, _ = published_registry
    server = build_server(
        registry.root,
        EngineConfig(screen_by_default=False),
        ServerConfig(port=0, max_body_bytes=1024),
    )
    with serving(server):
        body = json.dumps({"sequence": micro_dataset.x[0].tolist()}).encode()
        assert len(body) > 1024
        status, _, payload = _post_raw(server.url, body)
    assert status == 413
    assert payload["error"]["type"] == "PayloadTooLarge"


class _FrozenClock:
    """Deterministic stand-in for the engine's ``time`` module.

    Every perf-counter read advances the clock by an hour, so any
    request deadline has always elapsed by the time the batching worker
    looks at it — the 504 path fires deterministically, with no reliance
    on real scheduling delays.
    """

    def __init__(self):
        self._now_ns = 0
        self._lock = threading.Lock()

    def perf_counter_ns(self) -> int:
        with self._lock:
            self._now_ns += int(3600 * 1e9)
            return self._now_ns

    def perf_counter(self) -> float:
        return self.perf_counter_ns() / 1e9

    def monotonic(self) -> float:
        return self.perf_counter()


def test_deadline_504_is_deterministic_under_a_frozen_clock(
    published_registry, micro_dataset, monkeypatch
):
    registry, _ = published_registry
    monkeypatch.setattr("repro.serve.engine.time", _FrozenClock())
    server = build_server(
        registry.root,
        EngineConfig(max_batch=1, screen_by_default=False),
        ServerConfig(port=0),
    )
    with serving(server):
        status, payload = predict(
            server.url, micro_dataset.x[0], deadline_ms=1000.0
        )
    assert status == 504
    assert payload["error"]["type"] == "DeadlineExceededError"


def test_readyz_reports_per_replica_state(live_server):
    ready = fetch_json(live_server.url, "/readyz")
    assert ready["status"] == "ready"
    assert ready["ready"] == 1 and ready["total"] == 1
    assert ready["model_resolvable"] is True
    (replica,) = ready["replicas"]
    assert replica["slot"] == 0
    assert replica["state"] == "READY"
    assert replica["pid"] is not None


def test_empty_registry_is_live_but_not_ready(tmp_path):
    """The liveness/readiness split: a modelless server answers health
    probes (the process is fine) but refuses readiness."""
    server = build_server(
        tmp_path / "empty", EngineConfig(), ServerConfig(port=0)
    )
    with serving(server):
        health = fetch_json(server.url, "/healthz")
        assert health["status"] == "empty"
        assert "model" not in health
        status, body = _get_raw(server.url, "/readyz")
    assert status == 503
    assert body["status"] == "unready"
    assert body["model_resolvable"] is False


def test_fleet_readyz_lists_every_replica(published_registry):
    registry, _ = published_registry
    config = FleetConfig(
        replicas=2,
        engine=EngineConfig(screen_by_default=False),
        heartbeat_interval_s=0.05,
        respawn=RetryPolicy(max_attempts=3, base_delay_s=0.05,
                            max_delay_s=0.25),
    )
    server = build_server(registry.root, None, ServerConfig(port=0), config)
    with serving(server):
        ready = fetch_json(server.url, "/readyz")
        assert ready["total"] == 2
        assert ready["ready"] >= 1
        assert {replica["slot"] for replica in ready["replicas"]} == {0, 1}


def test_draining_fleet_returns_503_with_retry_after(
    published_registry, micro_dataset
):
    registry, _ = published_registry
    config = FleetConfig(
        replicas=1,
        engine=EngineConfig(screen_by_default=False),
        heartbeat_interval_s=0.05,
        respawn=RetryPolicy(max_attempts=3, base_delay_s=0.05,
                            max_delay_s=0.25),
    )
    server = build_server(registry.root, None, ServerConfig(port=0), config)
    with serving(server):
        server.engine.drain()
        body = json.dumps(
            {"sequence": micro_dataset.x[0].tolist()}
        ).encode()
        status, headers, payload = _post_raw(server.url, body)
        ready_status, ready_body = _get_raw(server.url, "/readyz")
    assert status == 503
    assert payload["error"]["type"] == "DrainingError"
    assert float(headers["Retry-After"]) > 0.0
    assert ready_status == 503
    assert ready_body["draining"] is True


def test_429_still_carries_retry_after(published_registry, micro_dataset):
    registry, _ = published_registry
    server = build_server(
        registry.root,
        EngineConfig(
            max_batch=1, queue_capacity=1,
            screen_by_default=False,
        ),
        ServerConfig(port=0),
    )
    shed_headers = []
    with serving(server):
        body = json.dumps(
            {"sequence": micro_dataset.x[0].tolist()}
        ).encode()

        def fire() -> None:
            status, headers, _ = _post_raw(server.url, body)
            if status == 429:
                shed_headers.append(headers)

        threads = [threading.Thread(target=fire) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert shed_headers, "burst never shed; queue_capacity=1 should 429"
    assert all(h.get("Retry-After") == "1" for h in shed_headers)
