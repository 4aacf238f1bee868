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
from .conftest import NUM_FRAMES, add_blob


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_batch=0)
    with pytest.raises(ValueError):
        EngineConfig(queue_capacity=0)
    with pytest.raises(ValueError):
        EngineConfig(screen_threshold=1.5)
    with pytest.raises(ValueError):
        EngineConfig(max_delay_ms=-1.0)


def test_single_prediction_round_trip(engine, micro_dataset):
    prediction = engine.submit(micro_dataset.x[0], screen=False)
    assert prediction.label_name == ACTIVITY_NAMES[prediction.label]
    assert len(prediction.probabilities) == len(ACTIVITY_NAMES)
    assert abs(sum(prediction.probabilities) - 1.0) < 1e-5
    assert prediction.batch_size >= 1
    assert prediction.screening is None  # opted out


def test_concurrent_requests_coalesce_into_batches(engine, micro_dataset):
    """The tentpole property: N concurrent submits share forward passes
    (the batch-size histogram's mass must not all sit at 1)."""
    results = []
    barrier = threading.Barrier(8)

    def call(index: int) -> None:
        barrier.wait()
        results.append(
            engine.submit(micro_dataset.x[index % len(micro_dataset)],
                          screen=False)
        )

    threads = [
        threading.Thread(target=call, args=(index,)) for index in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == 8
    assert max(result.batch_size for result in results) > 1
    snapshot = metrics().snapshot()["serve.batch_size"]
    assert snapshot["count"] >= 1
    # Mean batch size above 1 <=> at least one multi-request forward pass.
    assert snapshot["mean"] > 1.0


def test_batched_results_match_solo_results(engine, micro_dataset):
    """Coalescing must not change any caller's answer."""
    solo = [
        engine.submit(micro_dataset.x[index], screen=False)
        for index in range(4)
    ]
    results: "dict[int, object]" = {}
    barrier = threading.Barrier(4)

    def call(index: int) -> None:
        barrier.wait()
        results[index] = engine.submit(micro_dataset.x[index], screen=False)

    threads = [
        threading.Thread(target=call, args=(index,)) for index in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index in range(4):
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
    engine = InferenceEngine(registry, EngineConfig(default_timeout_s=2.0))
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

    The first batch is held until the other requests sit in the queue,
    so all three are admitted before ``stop`` however long a submit
    takes to get there.
    """
    registry, _ = published_registry
    engine = InferenceEngine(
        registry, EngineConfig(max_batch=2, max_delay_ms=50.0)
    )
    engine.start()
    all_admitted = threading.Event()
    predict_logits = CNNLSTMClassifier.predict_logits

    def hold_first_batch(self, x, *args, **kwargs):
        if not all_admitted.is_set():
            deadline = time.monotonic() + 10.0
            while len(x) + engine.queue_depth() < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            all_admitted.set()
        return predict_logits(self, x, *args, **kwargs)

    monkeypatch.setattr(CNNLSTMClassifier, "predict_logits", hold_first_batch)
    results = []

    def call() -> None:
        results.append(engine.submit(micro_dataset.x[0], screen=False))

    threads = [threading.Thread(target=call) for _ in range(3)]
    for thread in threads:
        thread.start()
    assert all_admitted.wait(30.0)
    engine.stop()
    for thread in threads:
        thread.join(timeout=30.0)
    assert len(results) == 3
