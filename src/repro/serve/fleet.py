"""Supervised replica fleet: crash-isolated engine workers behind one router.

One :class:`~repro.serve.engine.InferenceEngine` in one process is a single
point of failure — a crash, hang, or cold model reload takes the whole
front door down.  :class:`ReplicaFleet` runs N engines as worker
*processes*, started through the :mod:`repro.runtime.supervisor` core that
:mod:`repro.runtime.pool` also uses, with explicit assignment over
per-replica pipes, death detection and bounded respawn with seeded
backoff.  It presents the same ``submit()`` surface as a single engine, so
the HTTP layer fronts either interchangeably; its ``submit_body()`` also
takes a whole request body and leaves the decode to the serving replica.

Per-replica health is an explicit state machine::

    STARTING ──started──▶ READY ◀──recovered── DEGRADED
                            │                      │
                            └──errors/latency──────┘
            READY/DEGRADED ──death/heartbeat-timeout──▶ DEAD ──respawn──▶ STARTING
            any ──drain()──▶ DRAINING ──flushed──▶ DEAD

driven by heartbeat pings and a rolling per-replica error-rate window.
Dispatch is least-loaded over READY replicas only; a replica that dies
holding requests fails exactly those in-flight requests
(:class:`~repro.runtime.errors.ReplicaDiedError` → 503) and is respawned
under a bounded, seeded-backoff budget.  When *no* replica can take a
request — all dead, or a model's circuit breaker tripped open after
consecutive failures — the fleet sheds with
:class:`~repro.runtime.errors.CircuitOpenError` (503 + Retry-After)
instead of queueing unbounded work it cannot serve.

Hot reload: the fleet watches the registry's ``latest`` alias; when it
flips, every replica pre-warms the new model and only once all READY
replicas have acknowledged does the fleet swap its pinned resolution — so
zero requests ever hit a cold or half-loaded model.

Graceful drain (SIGTERM path): ``stop()`` stops admitting
(:class:`~repro.runtime.errors.DrainingError` → 503), flushes in-flight
requests up to :data:`DRAIN_TIMEOUT_S`, then shuts the replicas down.

Telemetry (parent-side): ``fleet.request``/``fleet.reload`` spans,
``fleet.requests_total`` / ``fleet.respawns_total`` /
``fleet.replica_deaths`` / ``fleet.breaker_trips`` /
``fleet.reloads_total`` / ``fleet.heartbeat_misses`` counters, a
``fleet.request_latency_s`` histogram, and ``fleet.replicas_ready`` /
``fleet.replicas_live`` / ``fleet.inflight`` gauges — all visible at
``GET /metrics`` and folded into ``repro infer`` run records, so
``repro stats`` shows fleet health.  ``fleet.requests_total`` counts the
admitted requests whose sequence decodes, and the latency histogram the
round trips of well-formed ones, wherever the body was decoded.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..runtime.backoff import RetryPolicy
from ..runtime.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DrainingError,
    ModelNotFoundError,
    OverloadError,
    RegistryError,
    ReplicaDiedError,
    ReproError,
    ServeError,
)
from ..runtime.logging import get_logger
from ..runtime.supervisor import Child, Supervisor, stop_children
from ..runtime.telemetry import MetricsRegistry, metrics, span
from ..runtime.threads import blas_threads
from .engine import (
    DEFAULT_TIMEOUT_S,
    SERVE_LATENCY_BUCKETS,
    EngineConfig,
    InferenceEngine,
    Prediction,
    check_deadline,
)
from .http import parse_predict_body
from .registry import ModelRegistry

__all__ = [
    "FleetConfig",
    "ReplicaFleet",
    "ReplicaState",
    "REPLICA_STATES",
]

_log = get_logger("serve.fleet")

#: Unanswered pings before a READY replica is marked DEGRADED.
HEARTBEAT_MISS_DEGRADED = 2
#: Rolling per-replica outcome window (recent request results).
WINDOW = 32
#: Outcomes needed before the window can degrade a replica.
MIN_WINDOW = 8
#: Window error-rate at/above which a replica is DEGRADED.
DEGRADE_ERROR_RATE = 0.5
#: Minimum time a replica stays DEGRADED before re-promotion.
DEGRADED_COOLDOWN_S = 0.5
#: Dispatch bound; beyond it a replica is skipped (and with every
#: replica saturated the request is shed with 429).
MAX_INFLIGHT_PER_REPLICA = 16
#: Consecutive server-fault failures per model that trip the breaker.
BREAKER_FAILURES = 5
#: How long a tripped breaker sheds before admitting a probe request.
BREAKER_COOLDOWN_S = 1.0
#: Alias watched for hot reload (pre-warm-then-swap on flips).
RELOAD_ALIAS = "latest"
#: How long ``stop()`` waits for in-flight requests to flush.
DRAIN_TIMEOUT_S = 10.0
#: How long ``start()`` waits for the first replica to come up.
START_TIMEOUT_S = 60.0
#: A whole request body goes to a replica for its decode only while it
#: has at most this many bytes per value of its model's input.  A client
#: writes a float32 value in at most about 25 bytes
#: (``-1.1754943508222875e-38, ``); the front door decodes a longer body
#: itself, so no replica's loop, which answers the heartbeat, waits on a
#: decode much longer than a well-formed body's.
SHIPPED_BYTES_PER_VALUE = 32


class ReplicaState:
    """Replica lifecycle states (ordinals double as gauge values)."""

    STARTING = "STARTING"
    READY = "READY"
    DEGRADED = "DEGRADED"
    DRAINING = "DRAINING"
    DEAD = "DEAD"


REPLICA_STATES = (
    ReplicaState.STARTING,
    ReplicaState.READY,
    ReplicaState.DEGRADED,
    ReplicaState.DRAINING,
    ReplicaState.DEAD,
)

#: Errors that indicate a sick *replica/fleet*, not a bad request; only
#: these count toward the rolling window and the circuit breaker.
_SERVER_FAULTS = (ReplicaDiedError, RegistryError, ServeError)
#: ...excluding these: the request (or its deadline) was the problem.
_CLIENT_FAULTS = (
    ModelNotFoundError,
    OverloadError,
    DeadlineExceededError,
    DrainingError,
    CircuitOpenError,
)


@dataclass(frozen=True)
class FleetConfig:
    """Size, engine, heartbeat, respawn and reload-poll knobs of the fleet.

    Requests without a deadline wait up to ``DEFAULT_TIMEOUT_S``.
    """

    #: Engine replicas (worker processes).
    replicas: int = 2
    #: Per-replica engine configuration (each child runs its own engine).
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Heartbeat ping cadence from the monitor thread.
    heartbeat_interval_s: float = 0.25
    #: Unanswered pings before the replica is declared hung and killed.
    heartbeat_miss_dead: int = 8
    #: Bounded respawn schedule per slot (seeded backoff, like the pool).
    respawn: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=5, base_delay_s=0.1, max_delay_s=2.0,
    ))
    #: How often the monitor re-resolves the reload alias.
    reload_poll_s: float = 0.5

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.heartbeat_interval_s <= 0.0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if self.heartbeat_miss_dead < HEARTBEAT_MISS_DEGRADED:
            raise ValueError(
                f"heartbeat_miss_dead must be >= {HEARTBEAT_MISS_DEGRADED} "
                "(the DEGRADED miss count)"
            )


def _check_sequence(
    sequence: np.ndarray,
    model_id: str,
    expected: "tuple[int, ...]",
    deadline_s: "float | None",
) -> None:
    """Raise ``ValueError`` unless ``sequence`` has ``model_id``'s input
    shape ``expected`` and finite values, and ``deadline_s`` is positive
    and no longer than a wait can hold."""
    if sequence.shape != expected:
        raise ValueError(
            f"sequence shape {sequence.shape} does not match model "
            f"{model_id} input {expected}"
        )
    if not np.isfinite(sequence).all():
        raise ValueError("sequence contains non-finite values")
    if deadline_s is not None:
        check_deadline(deadline_s)


# ----------------------------------------------------------------------
# Replica child process
# ----------------------------------------------------------------------
def _replica_main(
    conn, slot: int, registry_root: str, engine_config: EngineConfig
) -> None:
    """Worker loop: one micro-batching engine served over a pipe.

    Messages in: ``("predict", req_id, sequence, model_id, screen,
    deadline_s, request_id)`` -- ``sequence`` an array, or ``(body,
    shape)``: a whole request body to decode here and its model's input
    shape -- ``("ping", seq)``, ``("warm", ref)``,
    ``("fault", kind, arg)`` (chaos injection), ``None`` (stop).
    Messages out: ``("started", warmed_id, blas_threads)``,
    ``("result", req_id, ok, prediction, error_type, error_msg)``,
    ``("pong", seq, stats)`` —
    where ``stats`` piggybacks this process's full ``MetricsRegistry``
    snapshot, the transport that lets the parent aggregate worker-side
    engine histograms — ``("warmed", model_id)`` /
    ``("warm_failed", ref, reason)``.
    """
    # Replicas must not inherit the parent's terminal signal handling:
    # drain is coordinated by the supervisor, not per-child signals.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # Under the fork start method the child inherits the parent's global
    # registry state; reset so merged fleet metrics never double-count
    # parent-side observations.
    metrics().reset()
    registry = ModelRegistry(registry_root)
    engine = InferenceEngine(registry, engine_config).start()
    send_lock = threading.Lock()
    faults = {"slow_ms": 0.0}

    def _send(message: tuple) -> None:
        try:
            with send_lock:
                conn.send(message)
        except (OSError, BrokenPipeError, ValueError):
            pass  # parent gone; the loop's recv will see EOF next

    warmed = None
    try:
        warmed = engine.warm(RELOAD_ALIAS).model_id
    except ReproError as exc:
        _log.info("replica %d has no warm model yet: %s", slot, exc)
    _send(("started", warmed, blas_threads()))

    # Each predict runs in its own thread so concurrent requests coalesce
    # inside the child's micro-batching engine; the limiter bounds thread
    # growth well above the router's per-replica in-flight cap.
    limiter = threading.Semaphore(4 * 64)

    def _predict(
        req_id, sequence, model_id, screen, deadline_s, request_id=None
    ) -> None:
        try:
            if isinstance(sequence, tuple):
                # A whole request body: decode and check it as the front
                # door and the fleet would, so a malformed one never
                # reaches the engine or its metrics.
                body, expected = sequence
                sequence = parse_predict_body(body)["sequence"]
                _check_sequence(sequence, model_id, expected, deadline_s)
            if faults["slow_ms"] > 0.0:
                time.sleep(faults["slow_ms"] / 1e3)
            prediction = engine.submit(
                sequence, model=model_id, screen=screen,
                deadline_s=deadline_s, request_id=request_id,
            )
            _send(("result", req_id, True, prediction, None, None))
        except BaseException as exc:  # noqa: BLE001 - process boundary
            _send(("result", req_id, False, None, type(exc).__name__, str(exc)))
        finally:
            limiter.release()

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        kind = message[0]
        if kind == "predict":
            limiter.acquire()
            threading.Thread(
                target=_predict, args=message[1:], daemon=True
            ).start()
        elif kind == "ping":
            # Piggyback a full metrics snapshot on each pong: this is the
            # only channel worker-side engine histograms have to reach the
            # parent's fleet-wide ``GET /metrics`` merge.
            _send(("pong", message[1], {
                "queue_depth": engine.queue_depth(),
                "metrics": metrics().snapshot(),
            }))
        elif kind == "warm":
            ref = message[1]
            try:
                loaded = engine.warm(ref)
                _send(("warmed", loaded.model_id))
            except ReproError as exc:
                _send(("warm_failed", ref, f"{type(exc).__name__}: {exc}"))
        elif kind == "fault":
            _, fault_kind, arg = message
            if fault_kind == "hang":
                time.sleep(float(arg))  # wedge the event loop: miss pings
            elif fault_kind == "slow":
                faults["slow_ms"] = float(arg)
            elif fault_kind == "crash":
                os._exit(int(arg))
    engine.stop()


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
class _Outcome(NamedTuple):
    """One round trip to a replica: its answer, or the error it ended in.

    ``completed`` is False when no answer came back (a closed pipe, the
    fleet's own timeout).
    """

    prediction: "Prediction | None"
    error: "Exception | None"
    elapsed_s: float
    completed: bool


class _FleetPending:
    """One request parked on a replica, awaited by the submitting thread."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result: "Prediction | None" = None
        self.error: "Exception | None" = None

    def finish(self, result, error) -> None:
        self.result = result
        self.error = error
        self.event.set()


def _rebuild_error(name: "str | None", message: "str | None") -> Exception:
    """Child exception ``(type name, message)`` -> a typed parent exception.

    Several ``ReproError`` subclasses have multi-argument constructors, so
    the child ships ``(name, str)`` rather than a pickle; the rebuilt
    instance keeps the subclass (the HTTP status mapping keys off
    ``isinstance``) without re-running its constructor.
    """
    from ..runtime import errors as errors_module

    if name in ("ValueError", "TypeError", "KeyError"):
        return ValueError(message or "invalid request")
    cls = getattr(errors_module, name or "", None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        exc = cls.__new__(cls)
        Exception.__init__(exc, message or name)
        return exc
    return ServeError(f"{name}: {message}")


class _Replica:
    """Parent-side handle: child process, health, and in-flight requests."""

    def __init__(self, slot: int, generation: int, child: Child):
        self.slot = slot
        self.generation = generation
        self.child = child
        self.lock = threading.Lock()
        self.state = ReplicaState.STARTING
        self.state_since = time.monotonic()
        self.spawned_at = time.monotonic()
        self.inflight: "dict[int, _FleetPending]" = {}
        self.pings_unanswered = 0
        self.last_pong = time.monotonic()
        self.window: "deque[tuple[bool, float]]" = deque(maxlen=WINDOW)
        self.warmed_models: "set[str]" = set()
        #: The child's BLAS thread count (None until it has started).
        self.blas_threads: "int | None" = None
        self.receiver: "threading.Thread | None" = None
        #: Last metrics snapshot piggybacked on a pong (None until the
        #: first heartbeat round-trips).
        self.metrics_snapshot: "dict | None" = None

    @property
    def pid(self) -> "int | None":
        return self.child.process.pid

    def describe(self, respawns: int) -> dict:
        with self.lock:
            inflight = len(self.inflight)
        return {
            "slot": self.slot,
            "state": self.state,
            "pid": self.pid,
            "generation": self.generation,
            "inflight": inflight,
            "respawns": respawns,
            "uptime_s": round(time.monotonic() - self.spawned_at, 3),
            "warmed": sorted(self.warmed_models),
            "blas_threads": self.blas_threads,
        }


class _Slot:
    """A fixed fleet position: its live replica plus respawn bookkeeping."""

    __slots__ = ("index", "replica", "attempts", "next_spawn_at")

    def __init__(self, index: int):
        self.index = index
        self.replica: "_Replica | None" = None
        self.attempts = 0
        self.next_spawn_at = 0.0


class _Breaker:
    """Per-model circuit breaker: consecutive server faults trip it open."""

    __slots__ = ("failures", "open_until", "half_open_probe")

    def __init__(self):
        self.failures = 0
        self.open_until = 0.0
        self.half_open_probe = False


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------
class ReplicaFleet:
    """N crash-isolated engine replicas behind one ``submit()`` front door.

    Engine-compatible surface: ``start()`` / ``stop()`` / context manager,
    ``submit()``, ``queue_depth()``, ``replica_states()``, and
    a ``registry`` attribute — so :class:`~repro.serve.http.InferenceServer`
    fronts a fleet exactly like a single engine — plus ``submit_body()``,
    which the front door uses for a plainly shaped request body.
    """

    def __init__(self, registry: ModelRegistry, config: "FleetConfig | None" = None):
        self.registry = registry
        self.config = config or FleetConfig()
        self._supervisor: "Supervisor | None" = None
        self._slots = [_Slot(index) for index in range(self.config.replicas)]
        self._running = False
        self._draining = False
        self._monitor: "threading.Thread | None" = None
        self._wake = threading.Event()
        self._req_ids = itertools.count(1)
        self._req_lock = threading.Lock()
        self._contracts: "dict[str, tuple[int, ...]]" = {}
        self._breakers: "dict[str, _Breaker]" = {}
        self._breaker_lock = threading.Lock()
        self._alias_pin: "dict[str, str]" = {}
        self._reload_target: "str | None" = None
        self._last_reload_check = 0.0
        # Accumulated metrics of replicas that died: their final pong
        # snapshot is folded in here so fleet totals survive respawns
        # (a respawned replica restarts its counters from zero).
        self._retired_metrics = MetricsRegistry()
        self._retired_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicaFleet":
        if self._running:
            raise ServeError("fleet already started")
        self._running = True
        self._draining = False
        try:
            self._alias_pin[RELOAD_ALIAS] = self.registry.resolve(RELOAD_ALIAS)
        except ReproError:
            pass  # empty registry; pin once the alias first resolves
        self._supervisor = Supervisor(self.config.replicas)
        now = time.monotonic()
        for slot in self._slots:
            self._spawn(slot, now)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()
        if not self.wait_until_ready(1, START_TIMEOUT_S):
            self.stop()
            raise ServeError(f"no replica became READY within {START_TIMEOUT_S}s")
        return self

    def stop(self) -> None:
        """Graceful drain then shutdown: stop admitting, flush, exit."""
        if not self._running:
            return
        self.drain()
        self._running = False
        self._wake.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        replicas = [slot.replica for slot in self._slots if slot.replica is not None]
        for replica in replicas:
            self._set_state(replica, ReplicaState.DEAD)
        stop_children([replica.child for replica in replicas])
        for replica in replicas:
            if replica.receiver is not None:
                replica.receiver.join(timeout=2.0)
        for slot in self._slots:
            slot.replica = None
        self._update_gauges()

    def drain(self, timeout_s: "float | None" = None) -> bool:
        """Stop admitting and wait for in-flight requests to flush.

        Returns True when the fleet flushed fully within the timeout.
        """
        self._draining = True
        for slot in self._slots:
            replica = slot.replica
            if replica is not None and replica.state in (
                ReplicaState.READY, ReplicaState.DEGRADED, ReplicaState.STARTING,
            ):
                self._set_state(replica, ReplicaState.DRAINING)
        deadline = time.monotonic() + (
            DRAIN_TIMEOUT_S if timeout_s is None else timeout_s
        )
        while time.monotonic() < deadline:
            if self.queue_depth() == 0:
                return True
            time.sleep(0.02)
        remaining = self.queue_depth()
        if remaining:
            _log.warning("drain timed out with %d requests in flight", remaining)
        return remaining == 0

    def __enter__(self) -> "ReplicaFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Engine-compatible surface
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        total = 0
        for slot in self._slots:
            replica = slot.replica
            if replica is not None:
                with replica.lock:
                    total += len(replica.inflight)
        return total

    def replica_states(self) -> "list[dict]":
        return [
            slot.replica.describe(slot.attempts)
            if slot.replica is not None
            else {
                "slot": slot.index,
                "state": ReplicaState.DEAD,
                "pid": None,
                "generation": slot.attempts,
                "inflight": 0,
                "respawns": slot.attempts,
                "uptime_s": 0.0,
                "warmed": [],
                "blas_threads": None,
            }
            for slot in self._slots
        ]

    def ready_count(self) -> int:
        return sum(
            1
            for slot in self._slots
            if slot.replica is not None
            and slot.replica.state == ReplicaState.READY
        )

    def wait_until_ready(self, count: int, timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.ready_count() >= count:
                return True
            time.sleep(0.02)
        return self.ready_count() >= count

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        sequence: np.ndarray,
        model: str = "latest",
        screen: "bool | None" = None,
        deadline_s: "float | None" = None,
        request_id: "str | None" = None,
    ) -> Prediction:
        """Route one request to the least-loaded READY replica.

        ``request_id`` rides the pipe envelope into the chosen replica's
        engine and returns on the :class:`Prediction`, which also gains
        the serving slot and a ``dispatch`` span (routing + pipe
        round-trip overhead on top of the engine's own stages).

        Raises ``ValueError`` on shape mismatches,
        :class:`DrainingError` while draining, :class:`CircuitOpenError`
        when no replica is dispatchable or the model's breaker is open,
        :class:`OverloadError` when every READY replica is saturated, and
        :class:`ReplicaDiedError` when the chosen replica dies holding
        the request.
        """
        self._admit()
        self._count_request()
        model_id = self._resolve(model)
        sequence = np.asarray(sequence, dtype=np.float32)
        self._validate(sequence, model_id, deadline_s)
        return self._dispatch(model_id, sequence, screen, deadline_s, request_id)

    def submit_body(
        self,
        body: bytes,
        model: str = "latest",
        screen: "bool | None" = None,
        deadline_s: "float | None" = None,
        request_id: "str | None" = None,
    ) -> Prediction:
        """Route a whole ``POST /v1/predict`` body; its replica decodes it.

        ``model``, ``screen`` and ``deadline_s`` are the body's envelope,
        already checked by :func:`~repro.serve.http.split_predict_body`.
        Routing is :meth:`submit`'s; the replica decodes and checks the
        sequence.  Replies and metrics are the ones the front door's own
        decode and :meth:`submit` would give: whenever such a request
        does not succeed, this fleet decodes and checks the body here,
        so a malformed one gets its 400 ahead of any refusal, counts in
        no ``fleet.*`` metric a decoding front door would not count it
        in, and gives back the breaker's half-open probe it took.  A body
        of more than :data:`SHIPPED_BYTES_PER_VALUE` bytes per input value
        is decoded here and goes the way of :meth:`submit`.
        """
        admitted, model_id, probe, outcome = False, None, False, None
        try:
            self._admit()
            admitted = True
            model_id = self._resolve(model)
            expected = self._contract(model_id)
            if len(body) <= SHIPPED_BYTES_PER_VALUE * math.prod(expected):
                probe = self._check_breaker(model_id)
                replica = self._pick_replica()
                outcome = self._round_trip(
                    replica, model_id, (body, expected), screen, deadline_s,
                    request_id,
                )
        except Exception:
            self._decode_here(body, admitted, model_id, deadline_s, probe)
            raise
        if outcome is None:
            # Longer than a client writes this model's input: decoding it
            # could hold a replica's heartbeat replies off, so decode here.
            sequence = self._decode_here(body, True, model_id, deadline_s, False)
            return self._dispatch(
                model_id, sequence, screen, deadline_s, request_id
            )
        if outcome.error is None:
            self._count_request()
        else:
            self._decode_here(body, True, model_id, deadline_s, probe)
        return self._finish(replica, model_id, outcome)

    def _admit(self) -> None:
        if not self._running:
            raise ServeError("fleet is not running")
        if self._draining:
            raise DrainingError("fleet is draining; not admitting requests")

    @staticmethod
    def _count_request() -> None:
        metrics().counter("fleet.requests_total").inc()

    def _decode_here(
        self,
        body: bytes,
        admitted: bool,
        model_id: "str | None",
        deadline_s: "float | None",
        probe: bool,
    ) -> np.ndarray:
        """Decode and check ``body`` in this process, as the front door
        and :meth:`submit` would: raise its decode error; count it once
        it decodes, if it was ``admitted``; then, once ``model_id``'s
        contract is known, raise its shape, finiteness or deadline error.
        A body found malformed gives back its half-open ``probe``."""
        try:
            sequence = parse_predict_body(body)["sequence"]
            if admitted:
                self._count_request()
            if model_id in self._contracts:
                self._validate(sequence, model_id, deadline_s)
        except Exception:
            self._return_probe(model_id, probe)
            raise
        return sequence

    def _dispatch(
        self,
        model_id: str,
        sequence: np.ndarray,
        screen: "bool | None",
        deadline_s: "float | None",
        request_id: "str | None",
    ) -> Prediction:
        """Route a checked sequence: breaker, replica, round trip."""
        self._check_breaker(model_id)
        replica = self._pick_replica()
        outcome = self._round_trip(
            replica, model_id, sequence, screen, deadline_s, request_id
        )
        return self._finish(replica, model_id, outcome)

    def _round_trip(
        self,
        replica: "_Replica",
        model_id: str,
        sequence: "np.ndarray | tuple[bytes, tuple[int, ...]]",
        screen: "bool | None",
        deadline_s: "float | None",
        request_id: "str | None",
    ) -> "_Outcome":
        """Hand one request to ``replica`` and wait for its answer;
        recording the outcome is left to :meth:`_finish`."""
        timeout_s = deadline_s if deadline_s is not None else DEFAULT_TIMEOUT_S
        with self._req_lock:
            req_id = next(self._req_ids)
        pending = _FleetPending()
        with replica.lock:
            replica.inflight[req_id] = pending
        start = time.monotonic()
        try:
            try:
                replica.child.send(
                    ("predict", req_id, sequence, model_id, screen,
                     deadline_s, request_id)
                )
            except (OSError, BrokenPipeError, ValueError):
                return _Outcome(None, ReplicaDiedError(
                    f"replica {replica.slot} pipe closed before dispatch"
                ), 0.0, False)
            with span("fleet.request", replica=replica.slot, model=model_id):
                # Grace on top of the request deadline: the child enforces
                # the deadline itself and its 504 must win over the fleet's
                # timer.
                completed = pending.event.wait(timeout_s + 0.25)
            elapsed = time.monotonic() - start
        finally:
            # Also when the wait raises: a stale entry would count
            # against the replica's in-flight cap for good.
            with replica.lock:
                replica.inflight.pop(req_id, None)
        if not completed:
            return _Outcome(None, DeadlineExceededError(
                f"no result within {timeout_s * 1e3:.0f} ms "
                f"(replica {replica.slot})"
            ), elapsed, False)
        return _Outcome(pending.result, pending.error, elapsed, True)

    def _finish(
        self, replica: "_Replica", model_id: str, outcome: "_Outcome"
    ) -> Prediction:
        """Record a round trip's outcome; raise its error or stamp the
        prediction with its slot and ``dispatch`` span."""
        if outcome.completed:
            metrics().histogram(
                "fleet.request_latency_s", SERVE_LATENCY_BUCKETS
            ).observe(outcome.elapsed_s)
        self._record_outcome(replica, model_id, outcome.error, outcome.elapsed_s)
        if outcome.error is not None:
            raise outcome.error
        prediction = outcome.prediction
        assert prediction is not None
        prediction.replica = replica.slot
        engine_ms = sum(prediction.spans_ms.values())
        prediction.spans_ms["dispatch"] = max(
            outcome.elapsed_s * 1e3 - engine_ms, 0.0
        )
        return prediction

    # -- routing -------------------------------------------------------
    def _live_replicas(self) -> "list[_Replica]":
        return [slot.replica for slot in self._slots if slot.replica is not None]

    def _pick_replica(self) -> "_Replica":
        candidates = []
        starting = 0
        for slot in self._slots:
            replica = slot.replica
            if replica is None:
                continue
            if replica.state == ReplicaState.STARTING:
                starting += 1
                continue
            if replica.state != ReplicaState.READY:
                continue
            with replica.lock:
                load = len(replica.inflight)
            candidates.append((load, replica))
        if not candidates:
            retry_after = (
                self.config.heartbeat_interval_s
                if starting
                else self.config.respawn.max_delay_s
            )
            raise CircuitOpenError(
                "no READY replica "
                f"({starting} starting, {len(self._live_replicas())} live)",
                retry_after_s=retry_after,
            )
        load, replica = min(candidates, key=lambda pair: pair[0])
        if load >= MAX_INFLIGHT_PER_REPLICA:
            metrics().counter("fleet.load_shed_total").inc()
            raise OverloadError(
                f"every READY replica is at its in-flight cap "
                f"({MAX_INFLIGHT_PER_REPLICA}); retry later"
            )
        return replica

    def _resolve(self, ref: str) -> str:
        pinned = self._alias_pin.get(ref)
        if pinned is not None:
            return pinned
        return self.registry.resolve(ref)

    def _contract(self, model_id: str) -> "tuple[int, ...]":
        """The sequence shape ``model_id`` takes, read once from its manifest."""
        expected = self._contracts.get(model_id)
        if expected is None:
            preprocessing = self.registry.manifest(model_id)["preprocessing"]
            expected = self._contracts[model_id] = (
                int(preprocessing["num_frames"]),
                *(int(v) for v in preprocessing["frame_shape"]),
            )
        return expected

    def _validate(
        self, sequence: np.ndarray, model_id: str, deadline_s: "float | None"
    ) -> None:
        _check_sequence(sequence, model_id, self._contract(model_id), deadline_s)

    # -- circuit breaker -----------------------------------------------
    def _breaker(self, model_id: str) -> _Breaker:
        with self._breaker_lock:
            breaker = self._breakers.get(model_id)
            if breaker is None:
                breaker = self._breakers[model_id] = _Breaker()
            return breaker

    def _check_breaker(self, model_id: str) -> bool:
        """Shed while ``model_id``'s breaker is open; True when this
        request is admitted as its half-open probe."""
        breaker = self._breaker(model_id)
        with self._breaker_lock:
            if breaker.open_until <= time.monotonic():
                return False
            if not breaker.half_open_probe:
                # One probe request is admitted during cooldown; its
                # outcome closes or re-opens the breaker.
                breaker.half_open_probe = True
                return True
            retry_after = max(breaker.open_until - time.monotonic(), 0.05)
        raise CircuitOpenError(
            f"circuit breaker open for model {model_id} "
            f"({BREAKER_FAILURES} consecutive failures)",
            retry_after_s=retry_after,
        )

    def _return_probe(self, model_id: "str | None", probe: bool) -> None:
        """Give back the half-open probe a malformed request took."""
        if probe:
            breaker = self._breaker(model_id)
            with self._breaker_lock:
                breaker.half_open_probe = False

    def _record_outcome(
        self,
        replica: "_Replica",
        model_id: str,
        error: "Exception | None",
        elapsed_s: float,
    ) -> None:
        server_fault = (
            error is not None
            and isinstance(error, _SERVER_FAULTS)
            and not isinstance(error, _CLIENT_FAULTS)
        )
        if error is None or server_fault:
            with replica.lock:
                replica.window.append((error is None, elapsed_s))
        breaker = self._breaker(model_id)
        with self._breaker_lock:
            if error is None:
                if breaker.open_until > 0.0 or breaker.failures:
                    breaker.failures = 0
                    breaker.open_until = 0.0
                    breaker.half_open_probe = False
                return
            if not server_fault:
                return
            breaker.failures += 1
            breaker.half_open_probe = False
            if breaker.failures >= BREAKER_FAILURES:
                breaker.open_until = time.monotonic() + BREAKER_COOLDOWN_S
                metrics().counter("fleet.breaker_trips").inc()
                _log.warning(
                    "circuit breaker open for model %s after %d failures",
                    model_id, breaker.failures,
                )

    # ------------------------------------------------------------------
    # Spawn / receive / death
    # ------------------------------------------------------------------
    def _spawn(self, slot: _Slot, now: float) -> None:
        try:
            child = self._supervisor.spawn(
                _replica_main,
                (slot.index, str(self.registry.root), self.config.engine),
                f"repro-replica-{slot.index}",
            )
        except OSError as exc:
            _log.warning("replica %d spawn failed: %s", slot.index, exc)
            slot.next_spawn_at = now + self.config.respawn.delay_s(
                max(slot.attempts, 1), seed=slot.index
            )
            return
        replica = _Replica(slot.index, slot.attempts, child)
        replica.receiver = threading.Thread(
            target=self._receive_loop,
            args=(replica,),
            name=f"fleet-recv-{slot.index}",
            daemon=True,
        )
        slot.replica = replica
        replica.receiver.start()
        self._update_gauges()
        _log.info(
            "replica %d spawned pid=%d generation=%d",
            slot.index, replica.pid, replica.generation,
        )

    def _receive_loop(self, replica: "_Replica") -> None:
        """Drain one replica's pipe: results, pongs, warm acks."""
        while True:
            try:
                message = replica.child.conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "result":
                _, req_id, ok, prediction, error_type, error_msg = message
                with replica.lock:
                    pending = replica.inflight.get(req_id)
                if pending is None:
                    continue  # caller already timed out and moved on
                if ok:
                    pending.finish(prediction, None)
                else:
                    pending.finish(None, _rebuild_error(error_type, error_msg))
            elif kind == "pong":
                replica.pings_unanswered = 0
                replica.last_pong = time.monotonic()
                stats = message[2] if len(message) > 2 else {}
                snapshot = stats.get("metrics") if isinstance(stats, dict) else None
                if snapshot is not None:
                    replica.metrics_snapshot = snapshot
            elif kind == "started":
                _, warmed, replica.blas_threads = message
                if warmed:
                    replica.warmed_models.add(warmed)
                if replica.state == ReplicaState.STARTING:
                    self._set_state(replica, ReplicaState.READY)
            elif kind == "warmed":
                replica.warmed_models.add(message[1])
            elif kind == "warm_failed":
                _log.warning(
                    "replica %d failed to warm %s: %s",
                    replica.slot, message[1], message[2],
                )
        self._fail_inflight(replica)

    def _fail_inflight(self, replica: "_Replica") -> None:
        with replica.lock:
            doomed = list(replica.inflight.items())
            replica.inflight.clear()
        for _, pending in doomed:
            pending.finish(
                None,
                ReplicaDiedError(
                    f"replica {replica.slot} died holding this request"
                ),
            )
        if doomed:
            _log.warning(
                "replica %d death failed %d in-flight requests",
                replica.slot, len(doomed),
            )

    def _on_death(self, slot: _Slot, replica: "_Replica", reason: str) -> None:
        _log.warning(
            "replica %d (pid %s) dead: %s", replica.slot, replica.pid, reason
        )
        metrics().counter("fleet.replica_deaths").inc()
        self._retire_metrics(replica)
        self._set_state(replica, ReplicaState.DEAD)
        replica.child.kill()  # closes the pipe: the receiver fails in-flight
        self._fail_inflight(replica)
        slot.replica = None
        slot.attempts += 1
        if self.config.respawn.retries_remaining(slot.attempts):
            delay = self.config.respawn.delay_s(slot.attempts, seed=slot.index)
            slot.next_spawn_at = time.monotonic() + delay
            _log.info(
                "replica %d respawn %d/%d scheduled in %.3fs",
                slot.index, slot.attempts,
                self.config.respawn.max_attempts, delay,
            )
        else:
            slot.next_spawn_at = float("inf")
            _log.error(
                "replica %d respawn budget exhausted (%d attempts)",
                slot.index, slot.attempts,
            )
        self._update_gauges()

    # ------------------------------------------------------------------
    # Monitor: heartbeats, health transitions, respawn, hot reload
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        poll = self.config.heartbeat_interval_s / 2.0
        next_ping = 0.0
        while self._running:
            now = time.monotonic()
            ping_due = now >= next_ping
            if ping_due:
                next_ping = now + self.config.heartbeat_interval_s
            for slot in self._slots:
                replica = slot.replica
                if replica is None:
                    if (
                        not self._draining
                        and now >= slot.next_spawn_at
                        and self.config.respawn.retries_remaining(slot.attempts)
                    ):
                        metrics().counter("fleet.respawns_total").inc()
                        self._spawn(slot, now)
                    continue
                if not replica.child.process.is_alive():
                    self._on_death(
                        slot, replica,
                        f"process exited (exitcode {replica.child.process.exitcode})",
                    )
                    continue
                if ping_due:
                    self._heartbeat(slot, replica, now)
                self._window_health(replica, now)
            self._check_reload(now)
            self._update_gauges()
            self._wake.wait(poll)
            self._wake.clear()

    def _heartbeat(self, slot: _Slot, replica: "_Replica", now: float) -> None:
        if replica.state == ReplicaState.DRAINING:
            return
        replica.pings_unanswered += 1
        try:
            replica.child.send(("ping", replica.pings_unanswered))
        except (OSError, BrokenPipeError, ValueError):
            self._on_death(slot, replica, "heartbeat pipe closed")
            return
        misses = replica.pings_unanswered - 1  # the one just sent is pending
        if replica.state == ReplicaState.STARTING:
            # Startup (engine creation + model warm) runs before the
            # child's recv loop, so unanswered pings are expected; judge
            # a starting replica by the start timeout, not the heartbeat
            # budget.  Queued pings are answered once the loop begins.
            if now - replica.spawned_at > START_TIMEOUT_S:
                self._on_death(
                    slot, replica, f"never became READY within {START_TIMEOUT_S}s"
                )
            return
        if misses >= self.config.heartbeat_miss_dead:
            metrics().counter("fleet.heartbeat_misses").inc()
            self._on_death(
                slot, replica, f"heartbeat timeout ({misses} missed pings)"
            )
        elif (
            misses >= HEARTBEAT_MISS_DEGRADED
            and replica.state == ReplicaState.READY
        ):
            metrics().counter("fleet.heartbeat_misses").inc()
            _log.warning(
                "replica %d missed %d heartbeats; DEGRADED",
                replica.slot, misses,
            )
            self._set_state(replica, ReplicaState.DEGRADED)

    def _window_health(self, replica: "_Replica", now: float) -> None:
        with replica.lock:
            outcomes = list(replica.window)
        if replica.state == ReplicaState.READY and len(outcomes) >= MIN_WINDOW:
            errors = sum(1 for ok, _ in outcomes if not ok)
            error_rate = errors / len(outcomes)
            mean_latency = sum(latency for _, latency in outcomes) / len(outcomes)
            if error_rate >= DEGRADE_ERROR_RATE:
                _log.warning(
                    "replica %d DEGRADED (error rate %.2f, mean latency %.3fs)",
                    replica.slot, error_rate, mean_latency,
                )
                with replica.lock:
                    replica.window.clear()
                self._set_state(replica, ReplicaState.DEGRADED)
        elif replica.state == ReplicaState.DEGRADED:
            cooled = now - replica.state_since >= DEGRADED_COOLDOWN_S
            if cooled and replica.pings_unanswered <= 1:
                _log.info("replica %d recovered; READY", replica.slot)
                with replica.lock:
                    replica.window.clear()
                self._set_state(replica, ReplicaState.READY)

    def _check_reload(self, now: float) -> None:
        if now - self._last_reload_check < self.config.reload_poll_s:
            return
        self._last_reload_check = now
        alias = RELOAD_ALIAS
        try:
            resolved = self.registry.resolve(alias)
        except ReproError:
            return
        pinned = self._alias_pin.get(alias)
        if pinned is None:
            self._alias_pin[alias] = resolved
            return
        if resolved != pinned and resolved != self._reload_target:
            self._reload_target = resolved
            _log.info(
                "alias %r flipped %s -> %s; pre-warming fleet",
                alias, pinned, resolved,
            )
            for replica in self._live_replicas():
                try:
                    replica.child.send(("warm", resolved))
                except (OSError, BrokenPipeError, ValueError):
                    continue
        target = self._reload_target
        if target is None:
            return
        ready = [
            replica for replica in self._live_replicas()
            if replica.state == ReplicaState.READY
        ]
        if ready and all(target in replica.warmed_models for replica in ready):
            with span("fleet.reload", model=target):
                self._alias_pin[alias] = target
            self._reload_target = None
            metrics().counter("fleet.reloads_total").inc()
            _log.info(
                "alias %r swapped to pre-warmed model %s "
                "(%d replicas confirmed)", alias, target, len(ready),
            )

    # ------------------------------------------------------------------
    # Chaos / introspection hooks
    # ------------------------------------------------------------------
    def replica_pid(self, slot: int) -> "int | None":
        replica = self._slots[slot].replica
        return replica.pid if replica is not None else None

    def kill_replica(self, slot: int) -> "int | None":
        """SIGKILL one replica (chaos injection); returns the killed pid."""
        replica = self._slots[slot].replica
        if replica is None or replica.pid is None:
            return None
        pid = replica.pid
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return None
        self._wake.set()
        return pid

    def inject_fault(self, slot: int, kind: str, arg: float) -> bool:
        """Send a chaos fault (``hang``/``slow``/``crash``) to a replica."""
        if kind not in ("hang", "slow", "crash"):
            raise ValueError(f"unknown fault kind {kind!r}")
        replica = self._slots[slot].replica
        if replica is None:
            return False
        try:
            replica.child.send(("fault", kind, arg))
        except (OSError, BrokenPipeError, ValueError):
            return False
        return True

    def _retire_metrics(self, replica: "_Replica") -> None:
        """Fold a dead replica's last snapshot into the retired ledger.

        The snapshot is at most one heartbeat interval stale, so up to
        ~``heartbeat_interval_s`` of final observations are lost with the
        process — an accepted undercount, never an overcount.
        """
        snapshot = replica.metrics_snapshot
        if not snapshot:
            return
        replica.metrics_snapshot = None
        try:
            with self._retired_lock:
                self._retired_metrics.merge_snapshot(snapshot)
        except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
            _log.warning(
                "discarding unmergeable metrics from dead replica %d: %s",
                replica.slot, exc,
            )

    def metrics_snapshot(self) -> dict:
        """Fleet-wide metrics: the merged view plus a per-replica breakdown.

        ``merged`` sums live replicas' latest pong snapshots with the
        retired ledger of dead generations; ``per_replica`` keys live
        slots (plus ``"retired"`` when any replica has died) to their raw
        snapshots.  The HTTP layer folds ``merged`` into its own
        registry snapshot for ``GET /metrics``.
        """
        merged = MetricsRegistry()
        per_replica: "dict[str, dict]" = {}
        with self._retired_lock:
            retired = self._retired_metrics.snapshot()
        if retired:
            merged.merge_snapshot(retired)
            per_replica["retired"] = retired
        for replica in self._live_replicas():
            snapshot = replica.metrics_snapshot
            if not snapshot:
                continue
            per_replica[str(replica.slot)] = snapshot
            try:
                merged.merge_snapshot(snapshot)
            except (TypeError, ValueError) as exc:  # pragma: no cover
                _log.warning(
                    "skipping unmergeable metrics from replica %d: %s",
                    replica.slot, exc,
                )
        return {"merged": merged.snapshot(), "per_replica": per_replica}

    def describe(self) -> dict:
        """Fleet-level health summary (the ``/readyz`` payload core)."""
        states = self.replica_states()
        return {
            "replicas": states,
            "ready": sum(1 for s in states if s["state"] == ReplicaState.READY),
            "total": len(states),
            "draining": self._draining,
            "inflight": self.queue_depth(),
            "alias_pins": dict(self._alias_pin),
            "reload_in_progress": self._reload_target,
        }

    def _set_state(self, replica: "_Replica", state: str) -> None:
        if replica.state == state:
            return
        _log.debug(
            "replica %d %s -> %s", replica.slot, replica.state, state
        )
        replica.state = state
        replica.state_since = time.monotonic()
        metrics().gauge(f"fleet.replica.{replica.slot}.state").set(
            REPLICA_STATES.index(state)
        )
        self._update_gauges()

    def _update_gauges(self) -> None:
        live = self._live_replicas()
        metrics().gauge("fleet.replicas_live").set(len(live))
        metrics().gauge("fleet.replicas_ready").set(
            sum(1 for r in live if r.state == ReplicaState.READY)
        )
        metrics().gauge("fleet.inflight").set(self.queue_depth())
