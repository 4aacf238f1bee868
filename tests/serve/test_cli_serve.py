"""CLI verbs: ``repro publish``, ``repro serve``, ``repro infer``."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.serve import ModelRegistry


def test_parser_registers_serving_verbs():
    parser = build_parser()
    publish = parser.parse_args(["publish", "--registry", "r"])
    assert publish.command == "publish"
    assert publish.preset == "fast"
    assert not publish.detector

    serve = parser.parse_args(["serve", "--registry", "r", "--port", "0"])
    assert serve.command == "serve"
    assert serve.max_batch == 8
    assert serve.queue_capacity == 64

    infer = parser.parse_args(["infer", "--url", "http://x", "--burst"])
    assert infer.command == "infer"
    assert infer.burst
    assert infer.screen is None


def test_parser_registers_fleet_and_chaos_flags():
    parser = build_parser()
    serve = parser.parse_args(["serve", "--registry", "r"])
    assert serve.replicas == 1  # single in-process engine by default
    fleet = parser.parse_args(
        ["serve", "--registry", "r", "--replicas", "3"]
    )
    assert fleet.replicas == 3

    publish = parser.parse_args(["publish", "--registry", "r", "--gc"])
    assert publish.gc and not publish.gc_dry_run

    infer = parser.parse_args(["infer", "--retry"])
    assert infer.retry and not infer.chaos

    chaos = parser.parse_args([
        "infer", "--chaos", "--registry", "r", "--chaos-fault", "slow",
        "--chaos-replicas", "2", "--chaos-slot", "1",
    ])
    assert chaos.chaos
    assert chaos.registry == "r"
    assert chaos.chaos_fault == "slow"
    assert chaos.chaos_replicas == 2
    assert chaos.chaos_slot == 1


def test_serve_has_no_batching_hold_flag():
    """Batches take what is already queued; there is no hold to tune."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["serve", "--registry", "r", "--max-delay-ms", "5"]
        )


def test_registry_flag_is_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["publish"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve"])


def _micro_preset():
    from repro.eval import FAST

    from ..conftest import make_micro_generation_config

    return FAST.scaled(
        generation=make_micro_generation_config(),
        num_frames=8,
        samples_per_class=4,
        attacker_samples_per_class=4,
        epochs=1,
    )


def test_publish_trains_and_publishes_with_detector(
    monkeypatch, tmp_path, capsys
):
    """`repro publish --detector` leaves a loadable screened artifact."""
    monkeypatch.setattr(
        "repro.eval.presets.preset_by_name", lambda name: _micro_preset()
    )
    registry_dir = tmp_path / "registry"
    assert main([
        "-q", "publish", "--registry", str(registry_dir),
        "--detector", "--detector-epochs", "1",
        "--alias", "latest", "--alias", "canary",
    ]) == 0
    model_id = capsys.readouterr().out.strip()
    assert model_id.startswith("m-")
    registry = ModelRegistry(registry_dir)
    assert registry.resolve("latest") == model_id
    assert registry.resolve("canary") == model_id
    loaded = registry.load(model_id)
    assert loaded.detector is not None
    assert loaded.sequence_shape == (8, 16, 16)
    assert loaded.manifest["preprocessing"]["preset"] == "fast"


def test_infer_cli_end_to_end(live_server, tmp_path, monkeypatch, capsys):
    """`repro infer` drives a live server and writes a percentile record."""
    runs_dir = tmp_path / "infer-runs"
    assert main([
        "-q", "infer", "--url", live_server.url,
        "--requests", "10", "--concurrency", "4", "--no-screen",
        "--runs-dir", str(runs_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "infer: 10 requests" in out
    assert "p50" in out and "p99" in out
    assert "throughput" in out
    records = sorted(runs_dir.glob("*-infer.json"))
    assert len(records) == 1
    record = json.loads(records[0].read_text())
    assert record["outcome"]["ok"] == 10
    assert record["outcome"]["latency_ms"]["p50"] > 0.0
    assert record["outcome"]["throughput_rps"] > 0.0
    # The server's metrics snapshot rides along in the record.
    assert record["metrics"]["serve.request_latency_s"]["count"] >= 10
    assert record["config"]["url"] == live_server.url


def test_infer_cli_with_input_file(live_server, tmp_path, capsys):
    sequences = np.random.default_rng(0).random((3, 8, 16, 16))
    path = tmp_path / "sequences.npy"
    np.save(path, sequences)
    assert main([
        "-q", "infer", "--url", live_server.url, "--requests", "3",
        "--input", str(path), "--runs-dir", str(tmp_path / "runs"),
    ]) == 0
    assert "infer: 3 requests" in capsys.readouterr().out


def test_infer_cli_unreachable_server(tmp_path):
    assert main([
        "-q", "infer", "--url", "http://127.0.0.1:1",
        "--requests", "1", "--runs-dir", str(tmp_path),
    ]) == 1


def test_infer_chaos_cli(published_registry, tmp_path, capsys):
    """`repro infer --chaos` self-hosts a fleet, survives a kill -9, and
    writes a chaos run record."""
    registry, _ = published_registry
    runs_dir = tmp_path / "chaos-runs"
    assert main([
        "-q", "infer", "--chaos", "--registry", str(registry.root),
        "--chaos-replicas", "2", "--requests", "24", "--concurrency", "4",
        "--runs-dir", str(runs_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "chaos: ok" in out
    records = sorted(runs_dir.glob("*-chaos.json"))
    assert len(records) == 1
    record = json.loads(records[0].read_text())
    assert record["outcome"]["status"] == "ok"
    assert record["outcome"]["load"]["ok"] == 24
    assert record["outcome"]["recovery"]["recovered"] is True
    assert record["config"]["fault"] == "kill"
    assert record["metrics"].get("fleet.replica_deaths", 0) >= 1


def test_infer_chaos_requires_registry(tmp_path):
    assert main([
        "-q", "infer", "--chaos", "--requests", "4",
        "--runs-dir", str(tmp_path),
    ]) == 2


def test_serve_cli_subprocess_round_trip(published_registry, tmp_path):
    """`repro serve` as a real process: prints its URL, answers requests,
    exits cleanly on SIGTERM."""
    registry, _ = published_registry
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--registry", str(registry.root), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = ""
        deadline = time.time() + 60
        while time.time() < deadline:
            line = process.stdout.readline()
            if "serving registry" in line:
                break
        assert "serving registry" in line, line
        url = line.strip().rsplit(" at ", 1)[1]

        from repro.serve import fetch_json

        health = fetch_json(url, "/healthz")
        assert health["status"] == "ok"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
