"""Repeatable performance benchmark suite (``repro bench``).

Times the pipeline's hot stages — simulator facet extraction, frame-cube
synthesis, batched sequence synthesis, the FFT chain, DRAI generation, one
training epoch, placement candidate scoring, a micro-batched serving
round (concurrent submits coalesced by the inference engine), and a
replica-fleet scaling round (the same request load against 1 vs 3
supervised worker processes) — on a fixed, seeded workload, and reports
the batched fast path's speedup over the pinned per-frame reference plus
the fleet's multi-process throughput gain.  Results are written as a schema-versioned JSON
(``BENCH_<UTC-date>.json``) so successive runs on the same machine are
directly comparable and regressions show up as a diff.

The workload is entirely deterministic (fixed seeds, fixed scene), so run
to run variance comes only from the machine; each stage reports the min
and mean over its repeats, and comparisons should use the min (the least
noise-contaminated measurement).
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .attack.placement import _score_candidates_batched
from .attack.trigger import ReflectorTrigger
from .datasets.activities import ACTIVITY_NAMES
from .datasets.generation import GenerationConfig, SampleGenerator
from .geometry.human import BODY_ATTACHMENT_POINTS, HumanModel
from .models.cnn_lstm import CNNLSTMClassifier, ModelConfig
from .models.trainer import Trainer, TrainingConfig
from .radar.heatmap import drai_sequence, drai_sequence_reference
from .radar.processing import (
    angle_fft_sequence,
    doppler_fft_sequence,
    range_fft_sequence,
)
from .runtime.logging import get_logger
from .runtime.records import git_revision
from .runtime.telemetry import telemetry
from .serve.engine import EngineConfig, InferenceEngine
from .serve.registry import ModelRegistry

_log = get_logger("bench")

#: Bump when the result JSON layout changes so downstream tooling
#: (CI schema validation, comparison scripts) can refuse mismatches.
#: v2: added the ``serve.engine`` micro-batched serving stage.
#: v3: added the ``serve.fleet_single``/``serve.fleet`` replica-scaling
#: stages and the top-level ``fleet`` throughput block.
#: v4: added the ``meta`` provenance block (git SHA, date, cpu count,
#: hostname, preset name) labeling dashboard trajectory points.
BENCH_SCHEMA_VERSION = 4

#: Versions :func:`load_bench_result` accepts; v2/v3 files predate the
#: ``meta`` block, which the loader synthesizes from what they do carry
#: (v2 additionally lacks the fleet stages — consumers must treat the
#: ``fleet`` block and ``serve.fleet*`` stages as optional on load).
SUPPORTED_BENCH_VERSIONS = (2, 3, BENCH_SCHEMA_VERSION)

#: Requests per fleet-scaling round and the fleet size it is scaled
#: against.  Scaling is core-bound: with >= 3 cores the fleet's
#: process parallelism buys >= 2x over one replica on GIL-bound numpy
#: inference; on a 1-CPU container the stage instead measures the
#: supervision overhead (scaling ~1x).
_FLEET_BENCH_REQUESTS = 24
_FLEET_BENCH_REPLICAS = 3
_FLEET_BENCH_WORKERS = 8


@dataclass(frozen=True)
class BenchPreset:
    """Size of the benchmark workload.

    ``tiny`` exists for CI smoke runs (seconds), ``small`` for quick local
    checks, and ``medium`` is the canonical preset whose committed results
    document the batched path's speedup at the paper's 32-frame scale.
    """

    name: str
    #: Frames per simulated activity sequence.
    num_frames: int
    #: Timing repeats for the synthesis/processing stages.
    repeats: int
    #: Sequences in the one-epoch training stage.
    train_samples: int
    #: Trigger positions scored in the placement stage.
    placement_candidates: int

    def __post_init__(self) -> None:
        if self.num_frames < 2 or self.repeats < 1:
            raise ValueError("need >= 2 frames and >= 1 repeat")
        if self.train_samples < 2 or self.placement_candidates < 1:
            raise ValueError("need >= 2 train samples and >= 1 candidate")


BENCH_PRESETS: "dict[str, BenchPreset]" = {
    "tiny": BenchPreset("tiny", num_frames=6, repeats=2, train_samples=2,
                        placement_candidates=1),
    "small": BenchPreset("small", num_frames=16, repeats=3, train_samples=4,
                         placement_candidates=2),
    "medium": BenchPreset("medium", num_frames=32, repeats=5, train_samples=8,
                          placement_candidates=4),
}


def _time_stage(fn, repeats: int) -> "dict[str, float]":
    """min/mean/max wall time of ``fn`` over ``repeats`` runs (first run
    doubles as warmup; the min is the comparison-grade number)."""
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        durations.append(time.perf_counter() - start)
    return {
        "repeats": repeats,
        "min_s": min(durations),
        "mean_s": sum(durations) / len(durations),
        "max_s": max(durations),
    }


def machine_info() -> "dict[str, object]":
    info: "dict[str, object]" = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    try:
        import scipy

        info["scipy"] = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a declared dependency
        info["scipy"] = None
    return info


def bench_meta(preset_name: str) -> "dict[str, object]":
    """The v4 provenance block: who/where/when produced this result."""
    return {
        "git_sha": git_revision(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "cpu_count": os.cpu_count(),
        "hostname": platform.node(),
        "preset": preset_name,
    }


def run_bench(preset_name: str = "small") -> "dict[str, object]":
    """Run every benchmark stage for one preset and return the result dict."""
    if preset_name not in BENCH_PRESETS:
        raise ValueError(
            f"unknown bench preset {preset_name!r}; choose from {sorted(BENCH_PRESETS)}"
        )
    preset = BENCH_PRESETS[preset_name]
    tel = telemetry()
    tel.reset()
    tel.enable()
    try:
        stages = _run_stages(preset)
    finally:
        tel.disable()

    def _speedup(reference: str, fast: str) -> float:
        return stages[reference]["min_s"] / stages[fast]["min_s"]

    config = GenerationConfig(num_frames=preset.num_frames)
    chirps_per_sequence = preset.num_frames * config.radar.chirp.num_chirps
    sample_s = stages["sample.end_to_end"]["min_s"]
    result: "dict[str, object]" = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "meta": bench_meta(preset.name),
        "preset": {
            "name": preset.name,
            "num_frames": preset.num_frames,
            "repeats": preset.repeats,
            "train_samples": preset.train_samples,
            "placement_candidates": preset.placement_candidates,
        },
        "machine": machine_info(),
        "stages": stages,
        "throughput": {
            "chirps_per_s": chirps_per_sequence
            / stages["simulator.sequence"]["min_s"],
            "frames_per_s": preset.num_frames / sample_s,
            "samples_per_s": 1.0 / sample_s,
        },
        "speedup": {
            "simulate": _speedup("simulator.sequence_reference", "simulator.sequence"),
            "drai": _speedup(
                "process.drai_sequence_reference", "process.drai_sequence"
            ),
            "end_to_end": _speedup(
                "sample.end_to_end_reference", "sample.end_to_end"
            ),
        },
        "spans": {
            name: entry
            for name, entry in tel.aggregate().items()
            if name.split(".")[0]
            in ("simulate", "process", "dataset", "train", "attack")
        },
    }
    single = stages["serve.fleet_single"]
    scaled = stages["serve.fleet"]
    rps_single = single["requests"] / single["min_s"]
    rps_fleet = scaled["requests"] / scaled["min_s"]
    result["fleet"] = {
        "replicas": scaled["replicas"],
        "requests": scaled["requests"],
        "rps_single": rps_single,
        "rps_fleet": rps_fleet,
        "scaling": rps_fleet / rps_single,
    }
    return result


def _run_stages(preset: BenchPreset) -> "dict[str, dict]":
    """Execute and time every stage on the seeded workload."""
    config = GenerationConfig(num_frames=preset.num_frames)
    generator = SampleGenerator(config, seed=0)
    simulator = generator.simulator
    heatmap_config = config.heatmap
    extras = generator._environment_facets or None
    meshes = generator.sample_meshes("push", 1.0, 0.0)
    light_repeats = preset.repeats * 4

    stages: "dict[str, dict]" = {}
    _log.info("bench: simulator stages (%d frames)", preset.num_frames)
    stages["simulator.facet_set"] = _time_stage(
        lambda: simulator.facet_set(meshes[0]), light_repeats
    )
    facets = simulator.facet_set(meshes[0])
    stages["simulator.frame_cube"] = _time_stage(
        lambda: simulator.frame_cube_from_facets(facets), light_repeats
    )
    stages["simulator.sequence"] = _time_stage(
        lambda: simulator.simulate_sequence(meshes, extra_facets=extras),
        preset.repeats,
    )
    stages["simulator.sequence_reference"] = _time_stage(
        lambda: simulator.simulate_sequence_reference(meshes, extra_facets=extras),
        preset.repeats,
    )

    _log.info("bench: processing stages")
    cubes = simulator.simulate_sequence(meshes, extra_facets=extras)

    def fft_chain() -> None:
        profiles = range_fft_sequence(cubes)
        doppler_fft_sequence(profiles)
        angle_fft_sequence(profiles, heatmap_config.num_angle_bins)

    stages["process.fft_chain"] = _time_stage(fft_chain, preset.repeats)
    stages["process.drai_sequence"] = _time_stage(
        lambda: drai_sequence(cubes, heatmap_config), preset.repeats
    )
    stages["process.drai_sequence_reference"] = _time_stage(
        lambda: drai_sequence_reference(cubes, heatmap_config), preset.repeats
    )

    _log.info("bench: end-to-end sample generation")
    stages["sample.end_to_end"] = _time_stage(
        lambda: drai_sequence(
            simulator.simulate_sequence(meshes, extra_facets=extras), heatmap_config
        ),
        preset.repeats,
    )
    stages["sample.end_to_end_reference"] = _time_stage(
        lambda: drai_sequence_reference(
            simulator.simulate_sequence_reference(meshes, extra_facets=extras),
            heatmap_config,
        ),
        preset.repeats,
    )

    _log.info("bench: one training epoch (%d samples)", preset.train_samples)
    heatmaps = drai_sequence(cubes, heatmap_config)
    rng = np.random.default_rng(0)
    x = np.stack(
        [
            heatmaps
            + rng.normal(0.0, 0.01, heatmaps.shape).astype(heatmaps.dtype)
            for _ in range(preset.train_samples)
        ]
    )
    y = np.arange(preset.train_samples) % 6
    model = CNNLSTMClassifier(
        ModelConfig(frame_shape=heatmaps.shape[1:]), np.random.default_rng(0)
    )
    trainer = Trainer(
        TrainingConfig(epochs=1, batch_size=4, patience=0, seed=0)
    )
    stages["train.epoch"] = _time_stage(
        lambda: trainer.fit(model, x, y, validation=(x[:1], y[:1])),
        max(1, preset.repeats // 2),
    )

    _log.info("bench: micro-batched serving round")
    with tempfile.TemporaryDirectory(prefix="bench-registry-") as registry_dir:
        registry = ModelRegistry(registry_dir)
        registry.publish(model, ACTIVITY_NAMES, preset.num_frames)
        with InferenceEngine(
            registry, EngineConfig(max_batch=4, max_delay_ms=2.0)
        ) as engine:
            engine.warm()

            def serve_round() -> None:
                errors: "list[Exception]" = []

                def submit(index: int) -> None:
                    try:
                        engine.submit(x[index % len(x)], screen=False)
                    except Exception as exc:  # noqa: BLE001 - re-raised below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=submit, args=(index,))
                    for index in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if errors:
                    raise errors[0]

            stages["serve.engine"] = _time_stage(
                serve_round, max(1, preset.repeats // 2)
            )

        _log.info(
            "bench: fleet scaling (1 vs %d replicas, %d requests)",
            _FLEET_BENCH_REPLICAS, _FLEET_BENCH_REQUESTS,
        )
        from .serve.fleet import START_TIMEOUT_S, FleetConfig, ReplicaFleet

        def fleet_round(fleet: ReplicaFleet) -> None:
            errors: "list[Exception]" = []

            def worker(worker_index: int) -> None:
                for index in range(
                    worker_index, _FLEET_BENCH_REQUESTS, _FLEET_BENCH_WORKERS
                ):
                    try:
                        fleet.submit(x[index % len(x)])
                    except Exception as exc:  # noqa: BLE001 - re-raised below
                        errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(_FLEET_BENCH_WORKERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]

        # max_batch=1 keeps the comparison honest: replica scaling must
        # come from process parallelism, not from micro-batching tricks.
        fleet_engine = EngineConfig(
            max_batch=1, max_delay_ms=0.0, screen_by_default=False
        )
        for stage_name, replicas in (
            ("serve.fleet_single", 1),
            ("serve.fleet", _FLEET_BENCH_REPLICAS),
        ):
            config = FleetConfig(replicas=replicas, engine=fleet_engine)
            with ReplicaFleet(registry, config) as fleet:
                fleet.wait_until_ready(replicas, START_TIMEOUT_S)
                stages[stage_name] = _time_stage(
                    lambda: fleet_round(fleet), max(1, preset.repeats // 2)
                )
                stages[stage_name]["requests"] = _FLEET_BENCH_REQUESTS
                stages[stage_name]["replicas"] = replicas

    _log.info(
        "bench: placement scoring (%d candidates)", preset.placement_candidates
    )
    bodies, transforms = generator.sample_scene("push", 1.0, 0.0)
    scene_meshes = [body.transformed(tr) for body, tr in zip(bodies, transforms)]
    base_cubes = simulator.simulate_sequence(scene_meshes, extra_facets=extras)
    clean_heatmaps = drai_sequence(base_cubes, heatmap_config)
    surrogate = CNNLSTMClassifier(
        ModelConfig(frame_shape=clean_heatmaps.shape[1:]), np.random.default_rng(0)
    )
    clean_features = surrogate.frame_features(clean_heatmaps)[0]
    trigger = ReflectorTrigger()
    human = HumanModel()
    candidates = [
        human.attachment_point(name)
        for name in list(BODY_ATTACHMENT_POINTS)[: preset.placement_candidates]
    ]

    def score_candidates() -> None:
        # The batched scorer is the one TriggerPlacementOptimizer.optimize runs.
        _score_candidates_batched(
            simulator, surrogate, trigger, candidates, transforms,
            base_cubes, clean_heatmaps, clean_features, heatmap_config,
        )

    stages["attack.placement_scoring"] = _time_stage(
        score_candidates, max(1, preset.repeats // 2)
    )
    return stages


def validate_bench_result(result: "dict[str, object]") -> None:
    """Raise ``ValueError`` unless ``result`` matches the current schema.

    Used by the test suite and the CI smoke job to catch accidental layout
    drift before a malformed BENCH file lands in the repository.
    """
    if result.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {result.get('schema_version')!r} != {BENCH_SCHEMA_VERSION}"
        )
    for key in ("generated_utc", "meta", "preset", "machine", "stages",
                "throughput", "speedup", "fleet"):
        if key not in result:
            raise ValueError(f"missing top-level key {key!r}")
    meta = result["meta"]
    if not isinstance(meta, dict):
        raise ValueError(f"meta must be an object, got {type(meta).__name__}")
    for field in ("git_sha", "date", "cpu_count", "hostname", "preset"):
        if field not in meta:
            raise ValueError(f"missing meta field {field!r}")
    stages = result["stages"]
    required_stages = (
        "simulator.facet_set",
        "simulator.frame_cube",
        "simulator.sequence",
        "simulator.sequence_reference",
        "process.fft_chain",
        "process.drai_sequence",
        "process.drai_sequence_reference",
        "sample.end_to_end",
        "sample.end_to_end_reference",
        "train.epoch",
        "serve.engine",
        "serve.fleet_single",
        "serve.fleet",
        "attack.placement_scoring",
    )
    for name in required_stages:
        if name not in stages:
            raise ValueError(f"missing stage {name!r}")
        entry = stages[name]
        for field in ("repeats", "min_s", "mean_s", "max_s"):
            value = entry.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(f"stage {name!r} field {field!r} invalid: {value!r}")
    for field in ("chirps_per_s", "frames_per_s", "samples_per_s"):
        value = result["throughput"].get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"throughput field {field!r} invalid: {value!r}")
    for field in ("simulate", "drai", "end_to_end"):
        value = result["speedup"].get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"speedup field {field!r} invalid: {value!r}")
    for field in ("replicas", "requests", "rps_single", "rps_fleet", "scaling"):
        value = result["fleet"].get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"fleet field {field!r} invalid: {value!r}")


def load_bench_result(path: "str | os.PathLike") -> "dict[str, object]":
    """Read a ``BENCH_*.json`` file, tolerating previous schemas.

    v4 files return as written.  v2/v3 files (pre-``meta``) get a
    ``meta`` block synthesized from the fields they do carry — git SHA
    and hostname were not recorded then, so those read ``"unknown"`` —
    and keep their original ``schema_version`` so callers can tell
    (and can treat v3's ``fleet`` block as absent on v2).  Other
    versions are refused.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"bench file {path} is not a JSON object")
    version = payload.get("schema_version")
    if version not in SUPPORTED_BENCH_VERSIONS:
        raise ValueError(
            f"bench file {path} has schema version {version!r}; "
            f"supported: {SUPPORTED_BENCH_VERSIONS}"
        )
    if version < BENCH_SCHEMA_VERSION and "meta" not in payload:
        machine = payload.get("machine") or {}
        preset = payload.get("preset") or {}
        payload["meta"] = {
            "git_sha": "unknown",
            "date": str(payload.get("generated_utc", ""))[:10],
            "cpu_count": machine.get("cpu_count"),
            "hostname": "unknown",
            "preset": preset.get("name"),
        }
    return payload


def default_output_path(result: "dict[str, object]") -> Path:
    """``BENCH_<UTC-date>.json`` in the current directory (the repo root
    when invoked via ``repro bench`` from a checkout)."""
    date = str(result["generated_utc"])[:10]
    return Path(f"BENCH_{date}.json")


def write_bench_result(
    result: "dict[str, object]", output: "str | os.PathLike | None" = None
) -> Path:
    validate_bench_result(result)
    path = Path(output) if output else default_output_path(result)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def format_bench_result(result: "dict[str, object]") -> str:
    """Human-readable stage table + speedup summary."""
    stages: "dict[str, dict]" = result["stages"]  # type: ignore[assignment]
    width = max(len(name) for name in stages)
    lines = [
        f"benchmark preset {result['preset']['name']} "  # type: ignore[index]
        f"({result['preset']['num_frames']} frames)",  # type: ignore[index]
        f"{'stage':<{width}}  {'min':>10}  {'mean':>10}",
    ]
    for name, entry in stages.items():
        lines.append(
            f"{name:<{width}}  {entry['min_s'] * 1e3:>8.1f}ms  "
            f"{entry['mean_s'] * 1e3:>8.1f}ms"
        )
    throughput = result["throughput"]  # type: ignore[assignment]
    speedup = result["speedup"]  # type: ignore[assignment]
    lines.append(
        "throughput: {chirps:,.0f} chirps/s, {frames:,.1f} frames/s, "
        "{samples:,.2f} samples/s".format(
            chirps=throughput["chirps_per_s"],
            frames=throughput["frames_per_s"],
            samples=throughput["samples_per_s"],
        )
    )
    lines.append(
        "speedup vs per-frame reference: simulate {simulate:.2f}x, "
        "drai {drai:.2f}x, end-to-end {end_to_end:.2f}x".format(**speedup)
    )
    fleet = result["fleet"]  # type: ignore[assignment]
    lines.append(
        "fleet scaling: {rps_single:.1f} req/s x1 -> {rps_fleet:.1f} req/s "
        "x{replicas} ({scaling:.2f}x)".format(**fleet)
    )
    return "\n".join(lines)
