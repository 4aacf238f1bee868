"""HTTP layer: routes, status mapping, load shedding, screening verdicts."""

import json
import shutil
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    EngineConfig,
    ServerConfig,
    build_server,
    fetch_json,
    predict,
    run_load,
)

from .conftest import NUM_FRAMES, add_blob, hold_first_forward


def test_healthz_reports_model_contract(live_server, published_registry):
    _, model_id = published_registry
    health = fetch_json(live_server.url, "/healthz")
    assert health["status"] == "ok"
    assert health["model"]["id"] == model_id
    assert health["model"]["num_frames"] == NUM_FRAMES
    assert health["model"]["frame_shape"] == [16, 16]
    assert health["model"]["screening"] is True
    assert model_id in health["models"]
    assert health["aliases"]["latest"] == model_id


def test_predict_round_trip_with_screening(live_server, micro_dataset):
    status, payload = predict(
        live_server.url, micro_dataset.x[0], screen=True
    )
    assert status == 200
    assert payload["label"] == payload["probabilities"].index(
        max(payload["probabilities"])
    )
    assert isinstance(payload["label_name"], str)
    assert payload["model"].startswith("m-")
    assert payload["screening"] is not None
    assert set(payload["screening"]) == {"score", "flagged", "threshold"}
    assert payload["timing_ms"]["infer"] > 0.0


def test_predict_flags_trigger_bearing_sequence(live_server, micro_dataset):
    """The acceptance criterion: a trigger-bearing request comes back
    with a positive screening verdict in the response body."""
    triggered = add_blob(micro_dataset.x[:1])[0]
    status, payload = predict(live_server.url, triggered, screen=True)
    assert status == 200
    assert payload["screening"]["flagged"] is True


def test_malformed_bodies_are_400(live_server):
    def post(raw: bytes) -> int:
        request = urllib.request.Request(
            live_server.url + "/v1/predict", data=raw,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status
        except urllib.error.HTTPError as exc:
            return exc.code

    assert post(b"not json") == 400
    assert post(b"[1, 2, 3]") == 400
    assert post(json.dumps({"sequence": [[[1.0]]], "bogus": 1}).encode()) == 400
    assert post(json.dumps({"sequence": "text"}).encode()) == 400
    assert post(
        json.dumps({"sequence": [[[1.0]]], "deadline_ms": -5}).encode()
    ) == 400


def test_wrong_shape_is_400(live_server):
    status, payload = predict(live_server.url, [[[0.0, 1.0], [1.0, 0.0]]])
    assert status == 400
    assert payload["error"]["type"] == "ValidationError"


def test_unknown_model_is_404(live_server, micro_dataset):
    status, payload = predict(
        live_server.url, micro_dataset.x[0], model="m-000000000000"
    )
    assert status == 404
    assert payload["error"]["type"] == "ModelNotFoundError"


def test_unknown_route_is_404(live_server):
    try:
        with urllib.request.urlopen(
            live_server.url + "/nope", timeout=10
        ) as response:
            status = response.status
    except urllib.error.HTTPError as exc:
        status = exc.code
    assert status == 404


def test_metrics_endpoint_exposes_serving_histograms(
    live_server, micro_dataset
):
    predict(live_server.url, micro_dataset.x[0], screen=False)
    snapshot = fetch_json(live_server.url, "/metrics")
    assert snapshot["serve.request_latency_s"]["type"] == "histogram"
    assert snapshot["serve.batch_size"]["count"] >= 1
    assert snapshot["serve.requests_total"]["value"] >= 1


def test_saturated_queue_returns_429(published_registry, micro_dataset):
    """An oversized synchronized burst against a tiny queue must shed, and
    every request must still get a status: a burst wider than the listen
    backlog must not cost requests their connection."""
    registry, _ = published_registry
    server = build_server(
        registry.root,
        EngineConfig(
            max_batch=1, queue_capacity=2,
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
                server.url, micro_dataset.x[:2], requests=40, burst=True
            )
        finally:
            server.shutdown()
            thread.join()
    assert summary["shed_429"] > 0
    assert summary["ok"] > 0
    assert summary["other_errors"] == 0
    assert summary["ok"] + summary["shed_429"] + summary["deadline_504"] == 40


def test_deadline_exceeded_returns_504(
    published_registry, micro_dataset, monkeypatch
):
    """A request whose forward is held past its deadline maps to 504."""
    registry, _ = published_registry
    answered = threading.Event()
    hold_first_forward(monkeypatch, lambda: answered.wait(30.0))
    server = build_server(
        registry.root,
        EngineConfig(screen_by_default=False),
        ServerConfig(port=0),
    )
    with server:
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            status, payload = predict(
                server.url, micro_dataset.x[0], deadline_ms=50.0
            )
        finally:
            answered.set()
            server.shutdown()
            thread.join()
    assert status == 504
    assert payload["error"]["type"] == "DeadlineExceededError"


def test_tampered_registry_maps_to_503(
    tmp_path, published_registry, micro_dataset
):
    """Manifest-checksum detection surfaces as a typed 503, not a crash."""
    source_registry, model_id = published_registry
    root = tmp_path / "tampered"
    shutil.copytree(source_registry.root, root)
    weights = root / "models" / model_id / "weights.npz"
    corrupted = bytearray(weights.read_bytes())
    corrupted[len(corrupted) // 2] ^= 0xFF
    weights.write_bytes(bytes(corrupted))

    server = build_server(root, EngineConfig(), ServerConfig(port=0))
    with server:
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            status, payload = predict(server.url, micro_dataset.x[0])
        finally:
            server.shutdown()
            thread.join()
    assert status == 503
    assert payload["error"]["type"] == "RegistryError"
    assert "checksum mismatch" in payload["error"]["message"]


def test_empty_registry_splits_liveness_from_readiness(tmp_path):
    """A modelless process is alive (healthz 200) but unready (readyz
    503) — the split lets orchestrators keep the pod while withholding
    traffic."""
    server = build_server(
        tmp_path / "empty", EngineConfig(), ServerConfig(port=0)
    )
    with server:
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            health = fetch_json(server.url, "/healthz")
            assert health["status"] == "empty"
            with pytest.raises(OSError, match="503"):
                fetch_json(server.url, "/readyz")
        finally:
            server.shutdown()
            thread.join()


def test_load_generator_summary_shape(live_server, micro_dataset):
    summary = run_load(
        live_server.url, micro_dataset.x[:4], requests=12, concurrency=4,
        screen=False,
    )
    assert summary["ok"] == 12
    assert summary["mode"] == "steady"
    for key in ("p50", "p95", "p99", "mean", "max"):
        assert summary["latency_ms"][key] > 0.0
    assert summary["latency_ms"]["p50"] <= summary["latency_ms"]["p99"]
    assert summary["throughput_rps"] > 0.0
    assert sum(summary["labels"].values()) == 12
