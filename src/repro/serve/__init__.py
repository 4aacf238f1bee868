"""Online inference service (registry, micro-batching, fleet, HTTP).

The serving stack has six layers, each usable on its own:

``repro.serve.registry``
    Immutable, checksum-manifested model artifacts with atomic publish,
    alias resolution (``latest``, pinned ids), and alias-aware ``gc()``.
``repro.serve.engine``
    Dynamic micro-batching over a warm-model LRU cache: concurrent
    requests coalesce into one forward pass, with admission control,
    per-request deadlines, and optional Section VII trigger screening.
``repro.serve.fleet``
    N engines as supervised, crash-isolated worker processes behind one
    ``submit()``: health state machines, least-loaded routing, circuit
    breaking, bounded-backoff respawn, graceful drain, and pre-warmed
    hot reload on ``latest`` flips.
``repro.serve.http``
    A stdlib ``ThreadingHTTPServer`` exposing ``POST /v1/predict``,
    ``GET /healthz`` (liveness), ``GET /readyz`` (per-replica
    readiness), and ``GET /metrics`` with typed JSON errors.
``repro.serve.client``
    A stdlib client (with Retry-After-honoring idempotent retries) plus
    a small concurrent load generator reporting p50/p95/p99 latency,
    throughput, and retry counts.
``repro.serve.trace``
    Request identity: ``X-Repro-Request-Id`` minting/propagation, the
    JSONL access log (one line per response with per-stage span
    timings).
``repro.serve.chaos``
    The fault-drill harness: kill -9 / hang / slow a replica under
    load and assert the fleet's recovery SLO.
"""

from .chaos import ChaosPlan, assert_recovery, run_chaos
from .client import (
    DEFAULT_RETRY_POLICY,
    fetch_json,
    predict,
    predict_with_retry,
    run_load,
)
from .engine import EngineConfig, InferenceEngine, Prediction
from .fleet import FleetConfig, ReplicaFleet, ReplicaState
from .http import InferenceServer, ServerConfig, build_server
from .registry import LoadedModel, ModelRegistry, REGISTRY_SCHEMA_VERSION
from .trace import (
    REQUEST_ID_HEADER,
    AccessLog,
    new_request_id,
    normalize_request_id,
    read_access_log,
)

__all__ = [
    "AccessLog",
    "ChaosPlan",
    "DEFAULT_RETRY_POLICY",
    "EngineConfig",
    "FleetConfig",
    "InferenceEngine",
    "InferenceServer",
    "LoadedModel",
    "ModelRegistry",
    "Prediction",
    "REGISTRY_SCHEMA_VERSION",
    "REQUEST_ID_HEADER",
    "ReplicaFleet",
    "ReplicaState",
    "ServerConfig",
    "assert_recovery",
    "build_server",
    "fetch_json",
    "new_request_id",
    "normalize_request_id",
    "predict",
    "predict_with_retry",
    "read_access_log",
    "run_chaos",
    "run_load",
]
