"""Dynamic micro-batching inference engine.

Concurrent callers block in :meth:`InferenceEngine.submit`; a single
worker thread drains the shared admission queue, stacking the next
request and up to ``max_batch - 1`` same-model requests already queued
behind it into one forward pass, then fans the per-sequence results back
out.  The worker never holds a batch open for stragglers: requests that
arrive during a forward pass queue up and form the next batch.  Batching
is what makes a NumPy CNN-LSTM servable: the conv/GEMM kernels amortize
across the batch axis, so eight coalesced requests cost far less than
eight serial forwards.

Admission control is load-shedding, not buffering: when the bounded queue
is full, :meth:`submit` raises :class:`~repro.runtime.errors.OverloadError`
immediately (the HTTP layer turns that into a 429) instead of letting the
queue — and every queued request's latency — grow without bound.
Per-request deadlines are honored on both sides: the worker drops
already-expired requests before wasting a forward pass on them, and a
waiting caller gives up with
:class:`~repro.runtime.errors.DeadlineExceededError` (HTTP 504).

Models come from a :class:`~repro.serve.registry.ModelRegistry` through a
warm LRU cache, and when a published artifact carries a Section VII
:class:`~repro.defense.detector.TriggerDetector`, each screened request's
sequence also passes through the detector — the paper's defense running
online, in the only place a physical backdoor actually fires.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from ..models.cnn_lstm import softmax
from ..runtime.errors import DeadlineExceededError, OverloadError, ServeError
from ..runtime.logging import get_logger
from ..runtime.telemetry import metrics, span, telemetry
from ..runtime.threads import blas_threads
from .registry import LoadedModel, ModelRegistry

_log = get_logger("serve.engine")

#: Request-latency histogram bounds (seconds) — much finer than the
#: pipeline-wide defaults, since served predictions live in the
#: millisecond-to-second range.
SERVE_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Batch-size histogram bounds; the mode sitting above 1 under concurrent
#: load is the observable proof that micro-batching coalesces requests.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: How long a request without an explicit deadline waits for its result.
DEFAULT_TIMEOUT_S = 30.0


def check_deadline(deadline_s: float) -> None:
    """Raise ``ValueError`` unless ``deadline_s`` is positive and no
    longer than a wait can hold (``threading.TIMEOUT_MAX`` s)."""
    if not deadline_s > 0.0:  # NaN included
        raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
    if not deadline_s <= threading.TIMEOUT_MAX:
        raise ValueError(
            f"deadline_s must be at most {threading.TIMEOUT_MAX:.0f}, "
            f"got {deadline_s}"
        )


@dataclass(frozen=True)
class EngineConfig:
    """Micro-batching and admission-control knobs."""

    #: Most sequences stacked into one forward pass.
    max_batch: int = 8
    #: Admission queue bound; a full queue sheds load with ``429``.
    queue_capacity: int = 64
    #: Warm models kept resident (LRU-evicted beyond this).
    model_cache_size: int = 2
    #: Run the trigger detector on requests that don't say either way
    #: (only effective when the served artifact ships a detector).
    screen_by_default: bool = True
    #: Trigger-presence probability at/above which a request is flagged.
    screen_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.model_cache_size < 1:
            raise ValueError(
                f"model_cache_size must be >= 1, got {self.model_cache_size}"
            )
        if not 0.0 <= self.screen_threshold <= 1.0:
            raise ValueError(
                f"screen_threshold must be in [0, 1], got {self.screen_threshold}"
            )


@dataclass
class Prediction:
    """One request's result, as returned to the caller."""

    model_id: str
    label: int
    label_name: str
    probabilities: "list[float]"
    #: ``{"score", "flagged", "threshold"}`` when screening ran, None when
    #: the request opted out or the artifact has no detector.
    screening: "dict | None"
    #: How many requests shared the forward pass that produced this one.
    batch_size: int
    queue_ms: float
    infer_ms: float
    #: Request id from the envelope (None when the caller sent none).
    request_id: "str | None" = None
    #: Fleet slot that served this request (0 for the in-process engine;
    #: the fleet router overwrites it with the real slot).
    replica: int = 0
    #: Per-stage span timeline in ms (``batch_wait``/``predict``/
    #: ``fanout`` from the engine; the fleet adds ``dispatch`` and the
    #: HTTP layer adds ``enqueue``).
    spans_ms: "dict[str, float]" = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "model": self.model_id,
            "label": self.label,
            "label_name": self.label_name,
            "probabilities": self.probabilities,
            "screening": self.screening,
            "batch_size": self.batch_size,
            "request_id": self.request_id,
            "replica": self.replica,
            "timing_ms": {
                "queue": round(self.queue_ms, 3),
                "infer": round(self.infer_ms, 3),
            },
            "spans_ms": {
                stage: round(duration, 3)
                for stage, duration in self.spans_ms.items()
            },
        }


class _Pending:
    """One in-flight request parked on the admission queue."""

    __slots__ = (
        "sequence", "model_id", "screen", "enqueued_ns", "deadline_ns",
        "event", "result", "error", "request_id",
    )

    def __init__(
        self,
        sequence: np.ndarray,
        model_id: str,
        screen: bool,
        deadline_ns: "int | None",
        request_id: "str | None" = None,
    ):
        self.sequence = sequence
        self.model_id = model_id
        self.screen = screen
        self.enqueued_ns = time.perf_counter_ns()
        self.deadline_ns = deadline_ns
        self.request_id = request_id
        self.event = threading.Event()
        self.result: "Prediction | None" = None
        self.error: "Exception | None" = None

    def finish(self, result: "Prediction | None", error: "Exception | None") -> None:
        self.result = result
        self.error = error
        self.event.set()


@dataclass
class _ModelCache:
    """Warm-model LRU keyed by model id."""

    registry: ModelRegistry
    capacity: int
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _models: "OrderedDict[str, LoadedModel]" = field(default_factory=OrderedDict)

    def get(self, model_id: str) -> LoadedModel:
        with self._lock:
            loaded = self._models.get(model_id)
            if loaded is not None:
                self._models.move_to_end(model_id)
                metrics().counter("serve.model_cache_hits").inc()
                return loaded
        # Load outside the lock: a cold load is hundreds of ms of IO and
        # must not serialize against cache hits for already-warm models.
        metrics().counter("serve.model_cache_misses").inc()
        loaded = self.registry.load(model_id)
        with self._lock:
            self._models[model_id] = loaded
            self._models.move_to_end(model_id)
            while len(self._models) > self.capacity:
                evicted, _ = self._models.popitem(last=False)
                metrics().counter("serve.model_cache_evictions").inc()
                _log.info("evicted warm model %s", evicted)
        return loaded


class InferenceEngine:
    """Micro-batching executor over a model registry.

    Use as a context manager (or call :meth:`start` / :meth:`stop`); the
    worker thread drains remaining admitted requests on shutdown, so no
    caller is left waiting on a dead engine.
    """

    def __init__(self, registry: ModelRegistry, config: "EngineConfig | None" = None):
        self.registry = registry
        self.config = config or EngineConfig()
        self._cache = _ModelCache(registry, self.config.model_cache_size)
        self._queue: "deque[_Pending]" = deque()
        self._wakeup = threading.Condition()
        self._running = False
        self._thread: "threading.Thread | None" = None
        self._started_at: "float | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceEngine":
        if self._thread is not None:
            raise ServeError("engine already started")
        self._running = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._worker, name="serve-engine", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        with self._wakeup:
            self._running = False
            self._wakeup.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "InferenceEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def warm(self, ref: str = "latest") -> LoadedModel:
        """Resolve + load ``ref`` into the warm cache (e.g. at startup)."""
        return self._cache.get(self.registry.resolve(ref))

    def queue_depth(self) -> int:
        with self._wakeup:
            return len(self._queue)

    def replica_states(self) -> "list[dict]":
        """Single-replica view of the fleet health contract.

        :class:`~repro.serve.fleet.ReplicaFleet` exposes the same method,
        so ``/readyz`` renders per-replica state JSON without caring
        whether one in-process engine or a supervised fleet is behind it.
        """
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        with self._cache._lock:
            warmed = sorted(self._cache._models)
        return [{
            "slot": 0,
            "state": "READY" if self._running else "DEAD",
            "pid": os.getpid(),
            "generation": 0,
            "inflight": self.queue_depth(),
            "respawns": 0,
            "uptime_s": round(uptime, 3),
            "warmed": warmed,
            "blas_threads": blas_threads(),
        }]

    def describe(self) -> dict:
        """Health summary matching ``ReplicaFleet.describe()``."""
        states = self.replica_states()
        return {
            "replicas": states,
            "ready": sum(1 for s in states if s["state"] == "READY"),
            "total": len(states),
            "draining": False,
            "inflight": self.queue_depth(),
            "alias_pins": {},
            "reload_in_progress": None,
        }

    def submit(
        self,
        sequence: np.ndarray,
        model: str = "latest",
        screen: "bool | None" = None,
        deadline_s: "float | None" = None,
        request_id: "str | None" = None,
    ) -> Prediction:
        """Classify one heatmap sequence; blocks until a result or error.

        ``request_id`` is the tracing envelope id (minted at the HTTP
        front door); it rides through the batch and comes back on the
        :class:`Prediction` so responses and access-log lines correlate.

        Raises ``ValueError`` on a shape mismatch, ``ModelNotFoundError``
        for an unknown ref, :class:`OverloadError` when the queue is full,
        and :class:`DeadlineExceededError` when ``deadline_s`` elapses.
        """
        if not self._running:
            raise ServeError("engine is not running")
        metrics().counter("serve.requests_total").inc()
        model_id = self.registry.resolve(model)
        loaded = self._cache.get(model_id)
        sequence = np.asarray(sequence, dtype=np.float32)
        if sequence.shape != loaded.sequence_shape:
            raise ValueError(
                f"sequence shape {sequence.shape} does not match model "
                f"{model_id} input {loaded.sequence_shape}"
            )
        if not np.isfinite(sequence).all():
            raise ValueError("sequence contains non-finite values")
        if screen is None:
            screen = self.config.screen_by_default
        deadline_ns = None
        timeout_s = DEFAULT_TIMEOUT_S
        if deadline_s is not None:
            check_deadline(deadline_s)
            timeout_s = deadline_s
            deadline_ns = time.perf_counter_ns() + int(deadline_s * 1e9)
        pending = _Pending(
            sequence, model_id, bool(screen), deadline_ns, request_id
        )
        with self._wakeup:
            # Re-checked under the lock: a request appended after stop()
            # could outlive the worker and wait out its whole timeout.
            if not self._running:
                raise ServeError("engine is not running")
            if len(self._queue) >= self.config.queue_capacity:
                metrics().counter("serve.load_shed_total").inc()
                raise OverloadError(
                    f"admission queue full ({self.config.queue_capacity} "
                    f"requests); retry later"
                )
            self._queue.append(pending)
            metrics().gauge("serve.queue_depth").set(len(self._queue))
            self._wakeup.notify_all()
        if not pending.event.wait(timeout_s):
            metrics().counter("serve.deadline_exceeded_total").inc()
            raise DeadlineExceededError(
                f"no result within {timeout_s * 1e3:.0f} ms"
            )
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _collect_batch(self) -> "list[_Pending]":
        """Block for the next request, then take what is already queued.

        Every request queued behind the first with the same model id
        joins its batch, up to ``max_batch``; model ids never mix within
        one stacked forward.  Nothing waits for stragglers: a request
        that arrives during a forward pass joins the next batch.
        """
        with self._wakeup:
            while not self._queue:
                if not self._running:
                    return []
                self._wakeup.wait()
            first = self._queue.popleft()
            batch = [first]
            index = 0
            while index < len(self._queue) and len(batch) < self.config.max_batch:
                if self._queue[index].model_id == first.model_id:
                    batch.append(self._queue[index])
                    del self._queue[index]
                else:
                    index += 1
            metrics().gauge("serve.queue_depth").set(len(self._queue))
        return batch

    def _worker(self) -> None:
        while True:
            batch = self._collect_batch()
            if not batch:
                with self._wakeup:
                    if not self._running and not self._queue:
                        return
                continue
            self._run_batch(batch)

    def _run_batch(self, batch: "list[_Pending]") -> None:
        now_ns = time.perf_counter_ns()
        live: "list[_Pending]" = []
        for pending in batch:
            if pending.deadline_ns is not None and now_ns >= pending.deadline_ns:
                metrics().counter("serve.deadline_exceeded_total").inc()
                pending.finish(None, DeadlineExceededError(
                    "deadline elapsed while queued"
                ))
            else:
                live.append(pending)
        if not live:
            return
        try:
            loaded = self._cache.get(live[0].model_id)
            start_ns = time.perf_counter_ns()
            with span("serve.batch", model=loaded.model_id, size=len(live)):
                x = np.stack([pending.sequence for pending in live])
                logits = loaded.model.predict_logits(x, batch_size=len(live))
                probabilities = softmax(logits, axis=1)
                scores = self._screen_scores(loaded, live, x)
            infer_ms = (time.perf_counter_ns() - start_ns) / 1e6
            metrics().histogram("serve.batch_size", BATCH_SIZE_BUCKETS).observe(
                len(live)
            )
            metrics().histogram(
                "serve.infer_latency_s", SERVE_LATENCY_BUCKETS
            ).observe(infer_ms / 1e3)
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            metrics().counter("serve.batch_failures").inc()
            _log.error("batch of %d failed: %r", len(live), exc)
            for pending in live:
                pending.finish(None, exc)
            return
        done_ns = time.perf_counter_ns()
        latency_histogram = metrics().histogram(
            "serve.request_latency_s", SERVE_LATENCY_BUCKETS
        )
        for index, pending in enumerate(live):
            probs = probabilities[index]
            label = int(probs.argmax())
            screening = None
            if scores is not None and pending.screen:
                score = float(scores[index])
                flagged = score >= self.config.screen_threshold
                if flagged:
                    metrics().counter("serve.triggered_flagged_total").inc()
                screening = {
                    "score": score,
                    "flagged": flagged,
                    "threshold": self.config.screen_threshold,
                }
            queue_ms = (done_ns - pending.enqueued_ns) / 1e6 - infer_ms
            latency_histogram.observe((done_ns - pending.enqueued_ns) / 1e9)
            metrics().counter("serve.predictions_total").inc()
            batch_wait_ms = max((start_ns - pending.enqueued_ns) / 1e6, 0.0)
            fanout_ms = max((time.perf_counter_ns() - done_ns) / 1e6, 0.0)
            telemetry().record_span(
                "serve.request",
                pending.enqueued_ns,
                time.perf_counter_ns(),
                request_id=pending.request_id,
                model=loaded.model_id,
                batch_size=len(live),
            )
            pending.finish(
                Prediction(
                    model_id=loaded.model_id,
                    label=label,
                    label_name=loaded.labels[label],
                    probabilities=[float(p) for p in probs],
                    screening=screening,
                    batch_size=len(live),
                    queue_ms=max(queue_ms, 0.0),
                    infer_ms=infer_ms,
                    request_id=pending.request_id,
                    spans_ms={
                        "batch_wait": batch_wait_ms,
                        "predict": infer_ms,
                        "fanout": fanout_ms,
                    },
                ),
                None,
            )

    def _screen_scores(
        self,
        loaded: LoadedModel,
        live: "list[_Pending]",
        x: np.ndarray,
    ) -> "np.ndarray | None":
        """Trigger-presence scores aligned with ``live`` (None = no-op).

        Only the subset of the batch that asked for screening pays for the
        detector forward; unscreened rows get a placeholder that is never
        read back.
        """
        if loaded.detector is None:
            return None
        wanted = [i for i, pending in enumerate(live) if pending.screen]
        if not wanted:
            return None
        with span("serve.screen", size=len(wanted)):
            subset_scores = loaded.detector.scores(x[wanted])
        metrics().counter("serve.screened_total").inc(len(wanted))
        scores = np.zeros(len(live))
        scores[wanted] = subset_scores
        return scores
