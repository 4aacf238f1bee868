"""Chaos harness: fault drills against a live fleet-backed server."""

import threading

import pytest

from repro.runtime.backoff import RetryPolicy
from repro.serve import (
    ChaosPlan,
    EngineConfig,
    FleetConfig,
    ServerConfig,
    assert_recovery,
    build_server,
    run_chaos,
)


@pytest.fixture()
def fleet_server(published_registry):
    """A 3-replica fleet behind the HTTP front door on an ephemeral port."""
    registry, _ = published_registry
    config = FleetConfig(
        replicas=3,
        engine=EngineConfig(max_batch=4, screen_by_default=False),
        heartbeat_interval_s=0.05,
        heartbeat_miss_dead=6,
        respawn=RetryPolicy(max_attempts=5, base_delay_s=0.05, max_delay_s=0.25),
        reload_poll_s=0.2,
    )
    server = build_server(registry.root, None, ServerConfig(port=0), config)
    with server:
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        yield server
        server.shutdown()
        thread.join()


def test_plan_validation():
    with pytest.raises(ValueError, match="fault"):
        ChaosPlan(fault="meteor")
    with pytest.raises(ValueError, match="requests"):
        ChaosPlan(requests=0)


def test_kill_drill_meets_the_recovery_slo(fleet_server, micro_dataset):
    """The acceptance drill: kill -9 one replica mid-load; every request
    still succeeds (retries win back the in-flight 503s), the replica
    respawns as a new pid, and the post-recovery probe is clean."""
    plan = ChaosPlan(
        fault="kill",
        target_slot=0,
        inject_after_s=0.15,
        requests=60,
        concurrency=6,
        post_requests=20,
        recovery_ready=3,
    )
    report = run_chaos(
        fleet_server.engine, fleet_server.url, micro_dataset.x[:4], plan
    )
    assert_recovery(report)
    assert report["load"]["ok"] == plan.requests
    assert report["load"]["deadline_504"] == 0
    assert report["recovery"]["recovered"] is True
    assert report["recovery"]["respawned"] is True
    assert report["recovery"]["pid_after"] != report["recovery"]["pid_before"]
    assert report["post"]["ok"] == plan.post_requests
    assert report["post"]["latency_ms"]["p99"] > 0.0
    assert report["fleet_counters"].get("fleet.replica_deaths", 0) >= 1
    assert report["fleet"]["ready"] == 3


def test_slow_fault_degrades_without_losing_requests(
    fleet_server, micro_dataset
):
    plan = ChaosPlan(
        fault="slow",
        target_slot=1,
        slow_ms=150.0,
        inject_after_s=0.1,
        requests=30,
        concurrency=6,
        post_requests=0,
    )
    report = run_chaos(
        fleet_server.engine, fleet_server.url, micro_dataset.x[:4], plan
    )
    assert_recovery(report)
    assert report["load"]["ok"] == plan.requests
    assert report["recovery"]["respawned"] is None  # slow != dead


def test_assert_recovery_rejects_lossy_reports():
    report = {
        "plan": {"requests": 10, "post_requests": 0, "target_slot": 0},
        "load": {
            "ok": 8, "deadline_504": 1, "other_errors": 1,
            "statuses": {"200": 8, "503": 1, "504": 1},
        },
        "recovery": {
            "recovered": False, "wait_s": 30.0, "respawned": False,
            "pid_before": 1, "pid_after": 1,
        },
        "post": None,
    }
    with pytest.raises(AssertionError, match="chaos SLO violated"):
        assert_recovery(report)
