"""Inference engine: micro-batching, admission control, screening, LRU."""

import threading
import time

import numpy as np
import pytest

from repro.datasets.activities import ACTIVITY_NAMES
from repro.models import CNNLSTMClassifier
from repro.runtime.errors import (
    DeadlineExceededError,
    OverloadError,
    ServeError,
)
from repro.runtime.telemetry import metrics
from repro.serve import EngineConfig, InferenceEngine, ModelRegistry

from ..conftest import MICRO_MODEL_CONFIG
from .conftest import NUM_FRAMES, add_blob, hold_first_forward, wait_for_queued


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_batch=0)
    with pytest.raises(ValueError):
        EngineConfig(queue_capacity=0)
    with pytest.raises(ValueError):
        EngineConfig(screen_threshold=1.5)


def test_single_prediction_round_trip(engine, micro_dataset):
    prediction = engine.submit(micro_dataset.x[0], screen=False)
    assert prediction.label_name == ACTIVITY_NAMES[prediction.label]
    assert len(prediction.probabilities) == len(ACTIVITY_NAMES)
    assert abs(sum(prediction.probabilities) - 1.0) < 1e-5
    assert prediction.batch_size >= 1
    assert prediction.screening is None  # opted out


def _submit_in_threads(engine, sequences):
    """Start one submitting thread per sequence; returns the threads and
    the dict their predictions land in, keyed by sequence index."""
    results: "dict[int, object]" = {}

    def call(index: int) -> None:
        results[index] = engine.submit(sequences[index], screen=False)

    threads = [
        threading.Thread(target=call, args=(index,))
        for index in range(len(sequences))
    ]
    for thread in threads:
        thread.start()
    return threads, results


def _join(threads) -> None:
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def test_worker_never_waits_on_a_timeout(published_registry, micro_dataset):
    """The worker takes what is already queued and never holds a batch
    open: its only waits are untimed ones on an empty queue."""
    registry, _ = published_registry
    engine = InferenceEngine(registry, EngineConfig(max_batch=4))
    timeouts: "list[float | None]" = []
    waiting = threading.Event()
    wait = engine._wakeup.wait

    def recording_wait(timeout=None):
        timeouts.append(timeout)
        waiting.set()
        return wait(timeout)

    engine._wakeup.wait = recording_wait
    with engine:
        assert waiting.wait(30.0)
        for index in range(3):
            prediction = engine.submit(micro_dataset.x[index], screen=False)
            assert prediction.batch_size == 1
    assert timeouts
    assert all(timeout is None for timeout in timeouts), timeouts


def test_concurrent_requests_coalesce_into_batches(
    engine, micro_dataset, monkeypatch
):
    """The tentpole property: requests queued during a forward pass share
    the next ones (the batch-size histogram's mass must not all sit at
    1).  The first forward is held until the other seven are queued, so
    they form batches of 4 and 3 (``max_batch`` is 4)."""
    started = hold_first_forward(
        monkeypatch, lambda: wait_for_queued(engine, 7)
    )
    sequences = [micro_dataset.x[index % len(micro_dataset)] for index in range(8)]
    first, results = _submit_in_threads(engine, sequences[:1])
    assert started.wait(30.0)
    rest, queued = _submit_in_threads(engine, sequences[1:])
    _join(first + rest)
    assert results[0].batch_size == 1
    assert sorted(queued[i].batch_size for i in range(7)) == [3, 3, 3, 4, 4, 4, 4]
    snapshot = metrics().snapshot()["serve.batch_size"]
    assert snapshot["count"] == 3
    # Mean batch size above 1 <=> at least one multi-request forward pass.
    assert snapshot["mean"] > 1.0


def test_batched_results_match_solo_results(engine, micro_dataset, monkeypatch):
    """Coalescing must not change any caller's answer."""
    solo = [
        engine.submit(micro_dataset.x[index], screen=False)
        for index in range(1, 4)
    ]
    started = hold_first_forward(
        monkeypatch, lambda: wait_for_queued(engine, 3)
    )
    first, _ = _submit_in_threads(engine, micro_dataset.x[:1])
    assert started.wait(30.0)
    rest, results = _submit_in_threads(engine, micro_dataset.x[1:4])
    _join(first + rest)
    for index in range(3):
        assert results[index].batch_size == 3
        assert results[index].label == solo[index].label
        np.testing.assert_allclose(
            results[index].probabilities, solo[index].probabilities,
            rtol=1e-5, atol=1e-6,
        )


def test_shape_mismatch_rejected(engine):
    with pytest.raises(ValueError, match="shape"):
        engine.submit(np.zeros((NUM_FRAMES, 4, 4), dtype=np.float32))


def test_non_finite_sequence_rejected(engine, micro_dataset):
    poisoned = np.array(micro_dataset.x[0], copy=True)
    poisoned[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        engine.submit(poisoned)


def test_submit_requires_running_engine(published_registry, micro_dataset):
    registry, _ = published_registry
    engine = InferenceEngine(registry)
    with pytest.raises(ServeError, match="not running"):
        engine.submit(micro_dataset.x[0])


def test_submit_racing_stop_is_refused(
    published_registry, micro_dataset, monkeypatch
):
    """A stop() landing between submit's first check and its enqueue must
    refuse the request, not queue it behind an exited worker."""
    registry, _ = published_registry
    monkeypatch.setattr("repro.serve.engine.DEFAULT_TIMEOUT_S", 2.0)
    engine = InferenceEngine(registry)
    engine.start()
    resolve = registry.resolve

    def resolve_then_stop(ref):
        engine.stop()
        return resolve(ref)

    monkeypatch.setattr(registry, "resolve", resolve_then_stop)
    started = time.monotonic()
    with pytest.raises(ServeError, match="not running"):
        engine.submit(micro_dataset.x[0], screen=False)
    assert time.monotonic() - started < 1.0


def test_full_queue_sheds_load(published_registry, micro_dataset):
    """Admission control: a full queue raises OverloadError immediately
    instead of buffering without bound."""
    registry, _ = published_registry
    engine = InferenceEngine(registry, EngineConfig(queue_capacity=2))
    # Accept submissions without draining them: the worker thread is
    # deliberately not started, so the queue stays saturated.
    engine._running = True
    errors: "list[Exception]" = []

    def fill() -> None:
        try:
            engine.submit(micro_dataset.x[0], deadline_s=0.2, screen=False)
        except DeadlineExceededError:
            pass
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    fillers = [threading.Thread(target=fill) for _ in range(2)]
    for thread in fillers:
        thread.start()
    for _ in range(200):
        if engine.queue_depth() >= 2:
            break
        time.sleep(0.005)
    assert engine.queue_depth() == 2
    with pytest.raises(OverloadError, match="queue full"):
        engine.submit(micro_dataset.x[0], screen=False)
    for thread in fillers:
        thread.join()
    assert errors == []
    assert metrics().snapshot()["serve.load_shed_total"]["value"] == 1


def test_deadline_exceeded_when_no_result_in_time(
    published_registry, micro_dataset
):
    registry, _ = published_registry
    engine = InferenceEngine(registry, EngineConfig())
    engine._running = True  # no worker: the result never arrives
    with pytest.raises(DeadlineExceededError):
        engine.submit(micro_dataset.x[0], deadline_s=0.05, screen=False)
    assert (
        metrics().snapshot()["serve.deadline_exceeded_total"]["value"] == 1
    )


def test_screening_flags_trigger_bearing_sequence(engine, micro_dataset):
    """Section VII online: a trigger-bearing request gets a verdict."""
    triggered = add_blob(micro_dataset.x[:1])[0]
    prediction = engine.submit(triggered, screen=True)
    assert prediction.screening is not None
    assert prediction.screening["flagged"] is True
    assert prediction.screening["score"] >= prediction.screening["threshold"]

    clean = engine.submit(micro_dataset.x[0], screen=True)
    assert clean.screening is not None
    assert clean.screening["score"] < prediction.screening["score"]


def test_screen_by_default_config(published_registry, micro_dataset):
    registry, _ = published_registry
    with InferenceEngine(
        registry, EngineConfig(screen_by_default=True)
    ) as engine:
        prediction = engine.submit(micro_dataset.x[0])  # screen unspecified
        assert prediction.screening is not None


def test_warm_model_lru_eviction(tmp_path, trained_micro_model, micro_dataset):
    registry = ModelRegistry(tmp_path)
    first = registry.publish(
        trained_micro_model, ACTIVITY_NAMES, NUM_FRAMES, aliases=("a",)
    )
    other = CNNLSTMClassifier(MICRO_MODEL_CONFIG, np.random.default_rng(99))
    second = registry.publish(
        other, ACTIVITY_NAMES, NUM_FRAMES, aliases=("b",)
    )
    assert first != second
    with InferenceEngine(
        registry, EngineConfig(model_cache_size=1)
    ) as engine:
        engine.submit(micro_dataset.x[0], model="a", screen=False)
        engine.submit(micro_dataset.x[0], model="b", screen=False)
        engine.submit(micro_dataset.x[0], model="a", screen=False)
    snapshot = metrics().snapshot()
    assert snapshot["serve.model_cache_evictions"]["value"] >= 2
    assert snapshot["serve.model_cache_misses"]["value"] >= 3


def test_stop_drains_admitted_requests(
    published_registry, micro_dataset, monkeypatch
):
    """Graceful shutdown: requests admitted before stop still complete.

    The first forward is held until the other two requests sit in the
    queue, so all three are admitted before ``stop``.
    """
    registry, _ = published_registry
    engine = InferenceEngine(registry, EngineConfig(max_batch=2))
    engine.start()
    all_admitted = threading.Event()

    def release() -> None:
        wait_for_queued(engine, 2)
        all_admitted.set()

    started = hold_first_forward(monkeypatch, release)
    first, results = _submit_in_threads(engine, micro_dataset.x[:1])
    assert started.wait(30.0)
    rest, queued = _submit_in_threads(engine, micro_dataset.x[:2])
    assert all_admitted.wait(30.0)
    engine.stop()
    _join(first + rest)
    assert len(results) + len(queued) == 3
