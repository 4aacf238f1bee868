"""The benchmark's three workloads, each driven through public entry points.

Every workload returns a :class:`Outcome`: operations attempted and
failed, whether every output check passed, and its metrics by name.
End-to-end metrics come from untraced passes.  With ``trace=True`` a
workload reports per-layer metrics from a traced pass plus
``trace_overhead``, the traced wall over the untraced wall of the same
work: datagen runs that work untraced first; attack_cell, whose cell is
too long to run twice, subtracts the measured wrapper cost of its spans
instead.  In-process layers are traced by the :mod:`tracing` wrappers;
the serving layers run in the server's processes, so their times come
from the ``spans_ms`` every reply carries and serve's overhead is 1.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import catalog
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent

#: Operations a datagen or serve run completes at least, and the
#: percentile each reports as its tail: the highest that these counts
#: always leave ten samples beyond, fixed per workload so that a faster
#: program never changes which percentile is reported.  datagen stops at
#: 120 samples (p90), not 200 (p95): with attack_cell's minute-long cell,
#: 22 runs of each workload must fit the benchmark's time budget.
DATAGEN_MIN_SAMPLES, DATAGEN_TAIL = 120, 90.0
SERVE_MIN_REQUESTS, SERVE_TAIL = 200, 95.0
#: Samples per class in one ``generate_dataset`` call (24 samples).
DATAGEN_SAMPLES_PER_CLASS = 4
#: Set-ups per run; ``setup_s`` is their median.  They are timed at
#: points spread over the run, so a passing stall of the machine moves
#: few of them: datagen times a fresh interpreter before each of its
#: first calls, attack_cell before and after its cell, and serve splits
#: its load into this many segments, each against a freshly started fleet.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 30.0
#: Clean-data accuracy the attack cell's victims must reach on average:
#: over twice the 1/6 chance level of six activities.  Cells averaged
#: 0.46-0.74 over 20 seeds; single victims dip to 0.40.
CDR_FLOOR = 0.35
#: The attack cell: FAST preset, one injection rate, fixed epochs
#: (patience >= epochs, so early stopping never changes the work done).
#: Epochs and the attacker's set are cut from FAST's so that 22 runs per
#: workload fit the benchmark's time budget on a loaded 2-core host;
#: the victims keep FAST's 36 samples per class, which CDR needs.
CELL_OVERRIDES = {
    "injection_rates": [0.4],
    "epochs": 8,
    "patience": 8,
    "batch_size": 16,
    "samples_per_class": 36,
    "attacker_samples_per_class": 12,
}
SERVE_REPLICAS = 2
SERVE_CLIENTS = 2
SERVE_INPUTS_PER_CLASS = 1
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 15.0
_URL_LINE = re.compile(r"serving registry .* at (http://\S+)")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: "dict[str, float]" = field(default_factory=dict)
    #: Context that is not a metric: sample counts, the tail percentile used.
    info: dict = field(default_factory=dict)
    spans: "list[list]" = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.correct = False
        self.info.setdefault("failures", []).append(reason)


def op_metrics(
    latencies_s: "list[float]", tail_q: "float | None", good_ops: int, busy_s: float
) -> dict:
    """Latency median and ``tail_q``-th percentile (None: the maximum), and
    throughput as the operations that passed their checks over the
    seconds spent on all operations.

    Throughput is a total, not a median over parts of the run: the host
    switches between faster and slower periods, and a median over parts
    jumps from one to the other where a total moves with their mix."""
    tail_label, tail_s = stats.tail(latencies_s, tail_q)
    return {
        "metrics": {
            "ops_per_s": good_ops / busy_s,
            "latency_p50_ms": stats.median(latencies_s) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
        },
        "info": {
            "latency_samples": len(latencies_s),
            "tail": tail_label,
            "good_ops": good_ops,
            "busy_s": busy_s,
        },
    }


def zero_layers(result: Outcome) -> None:
    """Every per-layer metric, 0 where this workload does not reach the layer."""
    for name in catalog.PER_LAYER:
        result.metrics.setdefault(name, 0.0)


def time_setup(workload: str, seed: int, env: dict) -> float:
    """Wall seconds of a fresh interpreter doing the workload's set-up.

    ``Popen.wait`` with a timeout polls in sleeps of up to 50 ms, which
    would round readings up by as much; here the wait blocks until the
    child exits, and a timer kills a set-up that hangs."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--setup-only", "--workload", workload, "--seed", str(seed)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
    ) as proc:
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def record_setup(result: Outcome, setup_runs: "list[float]") -> None:
    result.info["setup_runs_s"] = setup_runs
    result.metrics["setup_s"] = stats.median(setup_runs)


# ----------------------------------------------------------------------
# Traced layers
# ----------------------------------------------------------------------
def install_layers(tracer: tracing.Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from repro.attack import placement, poisoning
    from repro.campaigns import records, runner
    from repro.datasets import cache, generation
    from repro.eval import experiments
    from repro.geometry.human import HumanModel
    from repro.models.cnn_lstm import CNNLSTMClassifier
    from repro.models.trainer import Trainer
    from repro.nn import functional, optim, recurrent, tensor
    from repro.radar import heatmap, noise, processing, simulator
    from repro.runtime.journal import SweepJournal
    from repro.xai.frame_importance import FrameImportanceAnalyzer

    def count(name, amount_of):
        def on_result(tracer, args, kwargs, result):
            tracer.counts[name] += amount_of(result)
        return on_result

    def timed_backward(name):
        def on_result(tracer, args, kwargs, result):
            if result._backward is not None:
                result._backward = tracer.wrap(name, result._backward)
        return on_result

    def train_samples(tracer, args, kwargs, result):
        if tracer.innermost("models.") == "models.fit":
            tracer.counts["nn.train_samples"] += args[0].shape[0]

    def epochs(tracer, args, kwargs, history):
        tracer.counts["models.epochs"] += len(history.train_loss)
        tracer.counts["models.best_epochs"] += history.best_epoch + 1

    # Sample synthesis.
    tracer.patch_method(
        generation.SampleGenerator, "generate_dataset", "datasets.generate",
        count("datasets.samples", len),
    )
    tracer.patch_method(HumanModel, "pose_sequence", "geometry.pose")
    tracer.patch_method(
        simulator.FmcwRadarSimulator, "simulate_sequence", "radar.simulate",
        count("radar.chirps", lambda cubes: cubes.shape[0] * cubes.shape[2]),
    )
    tracer.patch_function(noise.__name__, "add_thermal_noise", "radar.noise")
    tracer.patch_function(noise.__name__, "complex_awgn", "radar.noise")
    tracer.patch_function(heatmap.__name__, "drai_sequence", "radar.drai")
    for kind in ("range", "doppler", "angle"):
        tracer.patch_function(
            processing.__name__, f"{kind}_fft_sequence", f"radar.{kind}_fft"
        )
    # The model.
    tracer.patch_function(
        functional.__name__, "conv2d", "nn.conv2d_fwd",
        timed_backward("nn.conv2d_bwd"),
    )
    tracer.patch_function(
        functional.__name__, "max_pool2d", "nn.maxpool_fwd",
        timed_backward("nn.maxpool_bwd"),
    )
    tracer.patch_function(functional.__name__, "linear", "nn.linear_fwd")
    tracer.patch_function(
        functional.__name__, "cross_entropy", "nn.loss", train_samples
    )
    tracer.patch_method(recurrent.LSTM, "forward", "nn.lstm_fwd")
    tracer.patch_method(tensor.Tensor, "backward", "nn.backward")
    tracer.patch_method(optim.Adam, "step", "nn.optimizer")
    tracer.patch_function(optim.__name__, "clip_grad_norm", "nn.optimizer")
    tracer.patch_method(Trainer, "fit", "models.fit", epochs)
    tracer.patch_method(Trainer, "evaluate", "models.validate")
    for method in ("predict_logits", "frame_features", "classify_feature_series"):
        tracer.patch_method(CNNLSTMClassifier, method, "models.infer")
    # The attack chain and the campaign layer.
    tracer.patch_method(FrameImportanceAnalyzer, "analyze", "xai.shap")
    tracer.patch_method(
        placement.TriggerPlacementOptimizer, "optimize", "attack.placement",
        count("attack.candidates", lambda result: result.objective.shape[0]),
    )
    tracer.patch_function(poisoning.__name__, "build_pair_pool", "attack.pair_pool")
    tracer.patch_function(
        poisoning.__name__, "build_triggered_test_set", "attack.triggered_test"
    )
    tracer.patch_function(cache.__name__, "cached_dataset", "datasets.cache")
    tracer.patch_function(
        experiments.__name__, "run_injection_rate_sweep", "eval.experiments"
    )
    tracer.patch_method(runner.CampaignRunner, "run", "campaigns.overhead")
    tracer.patch_method(SweepJournal, "record", "campaigns.overhead")
    tracer.patch_function(
        records.__name__, "write_campaign_record", "campaigns.overhead"
    )


def layer_metrics(tracer: tracing.Tracer, start_ns: int, end_ns: int) -> dict:
    """Self time per layer, counts, and the unattributed rest of the wall."""
    values = {f"{name}_s": seconds for name, seconds in tracing.self_times(tracer.spans).items()}
    values["models.infer_incl_s"] = tracing.inclusive_times(tracer.spans, "models.infer")
    counts = dict(tracer.counts)
    best = counts.pop("models.best_epochs", 0.0)
    values.update(counts)
    if counts.get("models.epochs"):
        values["models.useful_epochs"] = best / counts["models.epochs"]
    values["trace.wall_s"] = (end_ns - start_ns) / 1e9
    values["trace.unattributed_s"] = tracing.unattributed_s(tracer.spans, start_ns, end_ns)
    return values


def traced(result: Outcome, untraced_wall_s: "float | None", run_traced) -> None:
    """Run ``run_traced()`` with the layer wrappers installed.

    ``trace_overhead`` is the traced wall over ``untraced_wall_s``; when
    that is None, over the traced wall minus the spans' wrapper cost.
    """
    tracer = tracing.Tracer()
    install_layers(tracer)
    start_ns = time.perf_counter_ns()
    try:
        run_traced(tracer)
    finally:
        end_ns = time.perf_counter_ns()
        tracer.uninstall()
    result.metrics.update(layer_metrics(tracer, start_ns, end_ns))
    wall_s = (end_ns - start_ns) / 1e9
    if untraced_wall_s is None:
        cost_s = len(tracer.spans) * tracing.wrapper_cost_ns() / 1e9
        result.info["trace_overhead"] = {"spans": len(tracer.spans), "wrapper_cost_s": cost_s}
        untraced_wall_s = wall_s - cost_s
    result.metrics["trace_overhead"] = wall_s / untraced_wall_s
    result.spans = tracer.spans
    unknown = sorted(set(result.metrics) - set(catalog.PER_LAYER))
    if unknown:
        raise RuntimeError(f"traced layers without a catalog entry: {unknown}")


# ----------------------------------------------------------------------
# datagen
# ----------------------------------------------------------------------
def _datagen_setup(seed: int):
    from repro.datasets.generation import GenerationConfig, SampleGenerator

    generator = SampleGenerator(GenerationConfig(), seed=seed)
    generator.generate_dataset(samples_per_class=1)  # warm lazy caches
    return generator


def _check_dataset(dataset, config, per_class: int) -> "str | None":
    from repro.datasets.activities import ACTIVITY_NAMES

    frames = (config.num_frames, *config.heatmap.frame_shape)
    if dataset.x.shape != (len(ACTIVITY_NAMES) * per_class, *frames):
        return f"shape {dataset.x.shape}"
    if dataset.x.dtype != np.float32:
        return f"dtype {dataset.x.dtype}"
    if not np.isfinite(dataset.x).all():
        return "non-finite heatmaps"
    if not (np.bincount(dataset.y, minlength=len(ACTIVITY_NAMES)) == per_class).all():
        return f"class counts {np.bincount(dataset.y).tolist()}"
    return None


def _reference_check(seed: int, result: Outcome) -> None:
    """One sample's batched chain against the per-frame references.

    Tolerances are the ones ``tests/radar/test_batched_equivalence.py``
    pins: 5e-6 relative on IF cubes, 2e-4 absolute on DRAI heatmaps.
    """
    from repro.datasets.generation import GenerationConfig, SampleGenerator
    from repro.radar.heatmap import drai_sequence, drai_sequence_reference

    generator = SampleGenerator(GenerationConfig(), seed=seed)
    meshes = generator.sample_meshes("push", 1.2, 0.0)
    cubes = generator.simulator.simulate_sequence(meshes)
    reference = generator.simulator.simulate_sequence_reference(meshes)
    error = np.abs(cubes.astype(np.complex128) - reference).max() / np.abs(reference).max()
    drai = drai_sequence(cubes, generator.config.heatmap)
    drai_error = np.abs(drai - drai_sequence_reference(cubes, generator.config.heatmap)).max()
    result.attempted += 1
    result.info["reference_error"] = {"cube_rel": float(error), "drai_abs": float(drai_error)}
    if not (error < 5e-6 and drai_error < 2e-4):
        result.fail(1, f"batched chain off its reference: {error:.2e}, {drai_error:.2e}")


def datagen(seed: int, seconds: float, trace: bool, env: dict) -> Outcome:
    from repro.datasets.generation import GenerationConfig, SampleGenerator

    result = Outcome()
    _datagen_setup(seed)
    config = GenerationConfig()
    per_class = DATAGEN_SAMPLES_PER_CLASS

    def one_call(index: int) -> "tuple[float, int]":
        """Seconds of one ``generate_dataset`` call and its good samples."""
        # A fresh campaign seed per call keeps every sample distinct.
        generator = SampleGenerator(config, seed=seed * 1000 + index)
        start = time.perf_counter()
        dataset = generator.generate_dataset(samples_per_class=per_class)
        elapsed = time.perf_counter() - start
        result.attempted += len(dataset)
        problem = _check_dataset(dataset, config, per_class)
        if problem:
            result.fail(len(dataset), f"dataset call {index}: {problem}")
            return elapsed, 0
        return elapsed, len(dataset)

    # Per-sample latency: one span around each planned sample.
    samples = tracing.Tracer()
    samples.patch_method(SampleGenerator, "synthesize_planned_sample", "sample")
    calls: "list[tuple[float, int]]" = []
    setup_runs: "list[float]" = []
    busy = 0.0
    try:
        while busy < seconds or len(samples.spans) < DATAGEN_MIN_SAMPLES:
            if not trace and len(setup_runs) < SETUP_REPEATS:
                setup_runs.append(time_setup("datagen", seed, env))
            calls.append(one_call(len(calls)))
            busy += calls[-1][0]
    finally:
        samples.uninstall()
    latencies = [(s[tracing.END] - s[tracing.START]) / 1e9 for s in samples.spans]
    if not trace:
        record_setup(result, setup_runs)
        result.metrics["peak_rss_mb"] = stats.self_peak_rss_mb()
        measured = op_metrics(latencies, DATAGEN_TAIL, sum(good for _, good in calls), busy)
        result.metrics.update(measured["metrics"])
        result.info.update(measured["info"])
        _reference_check(seed, result)
        return result

    def run_traced(tracer):
        for index in range(len(calls)):
            tracer.op_id = f"call-{index}"
            one_call(index)

    traced(result, busy, run_traced)
    zero_layers(result)
    return result


# ----------------------------------------------------------------------
# attack_cell
# ----------------------------------------------------------------------
def cell_config(cell_seed: int):
    from repro.campaigns.config import parse_campaign

    return parse_campaign({
        "campaign": "perfbench-cell",
        "schema_version": 1,
        "preset": "fast",
        "cells": [{"experiment": "fig8", "seed": cell_seed, **CELL_OVERRIDES}],
    })


def _check_cell(outcome, result: Outcome) -> bool:
    result.attempted += 1
    cell = outcome.results[0]
    if not outcome.all_ok or cell.status != "done":
        result.fail(1, f"cell {cell.key} ended {cell.status}: {cell.error}")
        return False
    points = [point for curve in cell.metrics["curves"].values() for point in curve]
    for point in points:
        rates = (point["asr"], point["uasr"], point["cdr"])
        if not all(0.0 <= rate <= 1.0 for rate in rates):
            result.fail(1, f"ASR/UASR/CDR {rates} outside [0, 1]")
            return False
    cdr = float(np.mean([point["cdr"] for point in points]))
    if not cdr >= CDR_FLOOR:
        result.fail(1, f"mean CDR {cdr:.3f} < {CDR_FLOOR}")
        return False
    result.info.setdefault("curves", []).append(cell.metrics["curves"])
    return True


def attack_cell(seed: int, seconds: float, trace: bool, env: dict, work: Path) -> Outcome:
    from repro.campaigns.runner import CampaignRunner

    result = Outcome()

    def one_cell(index: int, cell_seed: int) -> "tuple[float, bool]":
        # A fresh cache, runs dir and journal per cell: a warm dataset
        # cache would let the cell skip generation.
        cell_dir = work / f"cell-{index}"
        os.environ["REPRO_CACHE_DIR"] = str(cell_dir / "cache")
        runner = CampaignRunner(
            cell_config(cell_seed), journal_path=cell_dir / "journal.jsonl",
            runs_dir=cell_dir / "runs", workers=1,
        )
        start = time.perf_counter()
        outcome = runner.run()
        elapsed = time.perf_counter() - start
        good = _check_cell(outcome, result)
        shutil.rmtree(cell_dir, ignore_errors=True)
        return elapsed, good

    if trace:
        def run_traced(tracer):
            tracer.op_id = f"cell-seed-{seed * 1000}"
            one_cell(0, seed * 1000)

        # An untraced cell plus a traced one would not fit the 180 s run
        # limit on a loaded 2-core host, so the overhead is estimated
        # from the span count and the measured cost of one wrapper.
        traced(result, None, run_traced)
        zero_layers(result)
        return result
    # Set-ups are timed before and after the cells, not in one burst.
    after = SETUP_REPEATS // 2
    setup_runs = [time_setup("attack_cell", seed, env) for _ in range(SETUP_REPEATS - after)]
    cells: "list[tuple[float, bool]]" = []
    while sum(took for took, _ in cells) < seconds:
        cells.append(one_cell(len(cells), seed * 1000 + len(cells)))
    setup_runs += [time_setup("attack_cell", seed, env) for _ in range(after)]
    record_setup(result, setup_runs)
    result.metrics["peak_rss_mb"] = stats.self_peak_rss_mb()
    latencies = [took for took, _ in cells]
    # One cell per run: its tail is the cell time itself.
    measured = op_metrics(latencies, None, sum(good for _, good in cells), sum(latencies))
    result.metrics.update(measured["metrics"])
    result.info.update(measured["info"])
    return result


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` on an ephemeral port, owned by this run."""

    def __init__(self, registry: Path, env: dict, log_path: Path):
        self.log = open(log_path, "ab")
        self._reader: "threading.Thread | None" = None
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--registry", str(registry),
             "--replicas", str(SERVE_REPLICAS), "--port", "0"],
            env=env, cwd=registry.parent, stdout=subprocess.PIPE,
            stderr=self.log, start_new_session=True,
        )
        try:
            self.url = self._read_url(started + SERVER_START_TIMEOUT_S)
            self._await_ready(started + SERVER_START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        host, port = self.url[len("http://"):].rsplit(":", 1)
        self.address = (host, int(port))

    def _read_url(self, deadline: float) -> str:
        # The reader drains stdout until the server exits, so the server
        # never blocks on a full pipe.
        lines: "queue.Queue[bytes]" = queue.Queue()

        def read() -> None:
            for line in iter(self.proc.stdout.readline, b""):
                lines.put(line)
            lines.put(b"")

        self._reader = threading.Thread(target=read, daemon=True)
        self._reader.start()
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError("server printed no URL before the start timeout")
            if not line:
                raise RuntimeError(f"server exited ({self.proc.poll()}) without a URL")
            match = _URL_LINE.search(line.decode(errors="replace"))
            if match:
                return match.group(1)

    def _await_ready(self, deadline: float) -> None:
        """Set-up ends when every replica is READY, not just the first."""
        from repro.serve.client import fetch_json

        while time.perf_counter() < deadline:
            try:
                if fetch_json(self.url, "/readyz", 5.0).get("ready", 0) >= SERVE_REPLICAS:
                    return
            except (OSError, ValueError, http.client.HTTPException):
                # Not listening or not ready yet.
                pass
            time.sleep(0.02)
        raise RuntimeError("server never became ready")

    def stop(self) -> None:
        """SIGTERM, then SIGKILL the whole session after a timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.perf_counter() + SERVER_STOP_TIMEOUT_S
        while time.perf_counter() < deadline:  # replicas are grandchildren
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        if self._reader is not None:
            self._reader.join(timeout=SERVER_STOP_TIMEOUT_S)
        self.proc.stdout.close()
        self.log.close()


def _post(address, body: bytes) -> "tuple[int, bytes]":
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        conn.request(
            "POST", "/v1/predict", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        # A refused, dropped or truncated request is a failed one.
        return -1, repr(exc).encode()
    finally:
        conn.close()


def _serve_inputs(seed: int, registry_dir: Path):
    """Publish a seeded model + detector; encode inputs; compute the
    offline answers every reply must match."""
    from repro.datasets.activities import ACTIVITY_NAMES
    from repro.datasets.generation import GenerationConfig, SampleGenerator
    from repro.defense.detector import TriggerDetector
    from repro.eval.presets import DEFAULT
    from repro.models.cnn_lstm import CNNLSTMClassifier
    from repro.serve.registry import ModelRegistry

    config = GenerationConfig()
    dataset = SampleGenerator(config, seed=seed).generate_dataset(
        samples_per_class=SERVE_INPUTS_PER_CLASS
    )
    frame_shape = config.heatmap.frame_shape
    model = CNNLSTMClassifier(DEFAULT.model_config(), np.random.default_rng(seed))
    detector = TriggerDetector(
        frame_shape, config.num_frames, rng=np.random.default_rng(seed + 7)
    )
    registry = ModelRegistry(registry_dir)
    model_id = registry.publish(model, ACTIVITY_NAMES, config.num_frames, detector=detector)
    loaded = registry.load(model_id)
    expected = [
        (
            int(loaded.model.predict(sample[None])[0]),
            float(loaded.detector.scores(sample[None])[0]),
        )
        for sample in dataset.x
    ]
    bodies = [
        json.dumps({"sequence": sample.tolist(), "model": "latest"}).encode()
        for sample in dataset.x
    ]
    return model_id, bodies, expected


def _closed_loop(address, bodies, min_seconds: float, min_requests: int, counter):
    """``SERVE_CLIENTS`` threads, each sending its next request only after
    the previous reply; request ids come from ``counter``.  Returns
    ``(records, start_ns, end_ns)``."""
    records: "list[tuple]" = []
    lock = threading.Lock()
    start = time.perf_counter_ns()
    deadline = time.perf_counter() + min_seconds

    def client(client_index: int) -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline and len(records) >= min_requests:
                    return
                index = next(counter)
            which = index % len(bodies)
            begin = time.perf_counter_ns()
            status, payload = _post(address, bodies[which])
            end = time.perf_counter_ns()
            with lock:
                records.append((index, client_index, which, status, payload, begin, end))

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=min_seconds + 120)
        if thread.is_alive():
            raise RuntimeError("a serve client hung")
    return records, start, time.perf_counter_ns()


def _check_replies(records, model_id, expected, result: Outcome) -> list:
    """Count failures; returns ``(record, parsed reply)`` for every 200."""
    replies = []
    for record in records:
        _, _, which, status, payload, _, _ = record
        result.attempted += 1
        if status != 200:
            result.fail(1, f"status {status}: {payload[:200]!r}")
            continue
        try:
            reply = json.loads(payload)
        except ValueError:
            result.fail(1, f"unparseable reply {payload[:200]!r}")
            continue
        label, score = expected[which]
        screening = reply.get("screening") or {}
        if not all(key in reply for key in ("spans_ms", "replica", "batch_size")):
            result.fail(1, f"reply without spans, replica or batch size: {sorted(reply)}")
            continue
        if reply.get("model") != model_id or reply.get("label") != label:
            result.fail(1, f"label {reply.get('label')} != offline {label}")
        elif not abs(screening.get("score", np.nan) - score) <= 1e-5:
            result.fail(1, f"screen score {screening.get('score')} != offline {score}")
        replies.append((record, reply))
    return replies


def _serve_layers(records, replies, max_batch: int) -> "tuple[dict, list]":
    """Per-stage means from each reply's ``spans_ms`` plus client time."""
    from repro.serve.trace import SPAN_STAGES as STAGES

    totals = {stage: 0.0 for stage in STAGES}
    client_ms = 0.0
    per_replica: "dict[int, int]" = {}
    batch = 0.0
    tracer = tracing.Tracer()
    for record, reply in replies:
        index, client_index, _, _, _, begin, end = record
        spans = reply["spans_ms"]
        latency_ms = (end - begin) / 1e6
        client_ms += latency_ms - sum(spans.get(stage, 0.0) for stage in STAGES)
        per_replica[reply["replica"]] = per_replica.get(reply["replica"], 0) + 1
        batch += reply["batch_size"]
        root = tracer.add_span("serve.request", begin, end, -1, f"req-{index}", client_index)
        cursor = begin
        for stage in STAGES:
            totals[stage] += spans.get(stage, 0.0)
            stop = min(end, cursor + int(spans.get(stage, 0.0) * 1e6))
            tracer.add_span(f"serve.{stage}", cursor, stop, root, f"req-{index}", client_index)
            cursor = stop
    n = max(len(replies), 1)
    counts = [per_replica.get(slot, 0) for slot in range(SERVE_REPLICAS)]
    values = {f"serve.{stage}_ms": total / n for stage, total in totals.items()}
    values.update({
        "serve.client_ms": client_ms / n,
        "serve.batch_fill": batch / n / max_batch,
        "serve.replica_skew": (max(counts) - min(counts)) / max(np.mean(counts), 1e-9),
        "serve.requests": float(len(records)),
        "serve.non_200": float(len(records) - len(replies)),
    })
    return values, tracer.spans


def serve(seed: int, seconds: float, trace: bool, env: dict, work: Path) -> Outcome:
    """``SETUP_REPEATS`` segments, each against a freshly started fleet, so
    that set-up is timed at points spread over the run; latencies pool
    over the segments, and throughput is the replies that passed their
    checks over the segments' wall time.  The serving layers run in the server's processes, where no
    wrapper is installed: the traced run (one segment) takes them from the
    ``spans_ms`` of its replies, so its ``trace_overhead`` is 1."""
    from repro.serve.engine import EngineConfig

    result = Outcome()
    registry_dir = work / "registry"
    model_id, bodies, expected = _serve_inputs(seed, registry_dir)
    segments = 1 if trace else SETUP_REPEATS
    counter = itertools.count()
    records: "list[tuple]" = []
    setup_runs, peak_rss, walls = [], [], []
    for _ in range(segments):
        server = Server(registry_dir, env, work / "server.log")
        try:
            warm, _, _ = _closed_loop(server.address, bodies, 0.0, len(bodies), counter)
            _check_replies(warm, model_id, expected, result)
            segment, start_ns, end_ns = _closed_loop(
                server.address, bodies, seconds / segments,
                -(-SERVE_MIN_REQUESTS // segments), counter,
            )
            peak_rss.append(stats.tree_peak_rss_mb(server.proc.pid))
        finally:
            server.stop()
        setup_runs.append(server.setup_s)
        records += segment
        walls.append((end_ns - start_ns) / 1e9)
    failed_before = result.failed  # each record fails at most once
    replies = _check_replies(records, model_id, expected, result)
    good = len(records) - (result.failed - failed_before)
    if not trace:
        record_setup(result, setup_runs)
        result.metrics["peak_rss_mb"] = stats.median(peak_rss)
        latencies = [(end - begin) / 1e9 for *_, begin, end in records]
        measured = op_metrics(latencies, SERVE_TAIL, good, sum(walls))
        result.metrics.update(measured["metrics"])
        result.info.update(measured["info"])
        return result
    values, spans = _serve_layers(records, replies, EngineConfig().max_batch)
    result.metrics.update(values)
    result.metrics["trace.wall_s"] = (end_ns - start_ns) / 1e9
    result.metrics["trace.unattributed_s"] = tracing.unattributed_s(spans, start_ns, end_ns)
    result.metrics["trace_overhead"] = 1.0
    result.spans = spans
    zero_layers(result)
    return result
