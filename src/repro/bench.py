"""Fast-path benchmark suite (``repro bench``).

Times the batched simulator and DRAI fast paths against the per-frame
references they are pinned to — simulator facet extraction, frame-cube
synthesis, sequence synthesis fast and reference, the FFT chain, DRAI
generation fast and reference, and one dataset sample end to end both
ways — on a fixed, seeded scene at the paper's 32 frames, and reports
each fast path's speedup over its reference.  Training, placement and
serving are measured end to end and layer by layer by ``perfbench/``;
the speedups are what only this suite shows.  Results are written as a
schema-versioned JSON (``BENCH_<UTC-date>.json``) so successive runs on
the same machine are directly comparable and regressions show up as a
diff.

The workload is entirely deterministic (fixed seeds, fixed scene), so run
to run variance comes only from the machine; each stage reports the min
and mean over its repeats, and comparisons should use the min (the least
noise-contaminated measurement).  Every stage runs at one OpenBLAS
thread: on a small host a multi-threaded BLAS contends with whatever
else runs, which made the per-frame stages bimodal from run to run.
``meta`` records that thread count and the heap thresholds the process
runs with (:func:`~repro.runtime.heap.keep_heap_mapped`, ``null`` where
they could not be set).
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .datasets.generation import GenerationConfig, SampleGenerator
from .radar.heatmap import drai_sequence, drai_sequence_reference
from .radar.processing import (
    angle_fft_sequence,
    doppler_fft_sequence,
    range_fft_sequence,
)
from .runtime.heap import keep_heap_mapped
from .runtime.logging import get_logger
from .runtime.records import git_revision
from .runtime.telemetry import telemetry, write_text_atomic
from .runtime.threads import blas_threads, set_blas_threads

_log = get_logger("bench")

#: Bump when the result JSON layout changes so downstream tooling
#: (CI schema validation, comparison scripts) can refuse mismatches.
#: v2: added the ``serve.engine`` micro-batched serving stage.
#: v3: added the ``serve.fleet_single``/``serve.fleet`` replica-scaling
#: stages and the top-level ``fleet`` throughput block.
#: v4: added the ``meta`` provenance block (git SHA, date, cpu count,
#: hostname, preset name) labeling dashboard trajectory points.
#: v5: only the fast-path and reference stages; the training, placement
#: and serving stages, the ``fleet`` block and the preset name are gone.
BENCH_SCHEMA_VERSION = 5

#: Versions :func:`load_bench_result` accepts; v2/v3 files predate the
#: ``meta`` block, which the loader synthesizes from what they do carry.
#: v2–v4 files also carry stages (and v3/v4 the ``fleet`` block) v5 dropped.
SUPPORTED_BENCH_VERSIONS = (2, 3, 4, BENCH_SCHEMA_VERSION)

#: Frames per simulated activity sequence: the paper's 32.
_NUM_FRAMES = 32
#: Timed repeats of each sequence-level stage; the per-frame stages
#: (facet extraction, one frame cube) get four times as many.
_REPEATS = 5

#: Every stage a result times, fast paths next to their references.
BENCH_STAGES = (
    "simulator.facet_set",
    "simulator.frame_cube",
    "simulator.sequence",
    "simulator.sequence_reference",
    "process.fft_chain",
    "process.drai_sequence",
    "process.drai_sequence_reference",
    "sample.end_to_end",
    "sample.end_to_end_reference",
)


def _time_stage(fn, repeats: int) -> "dict[str, float]":
    """min/mean/max wall time of ``fn`` over ``repeats`` timed runs.

    One untimed call first warms caches and lazy imports, so the cold run
    lands in no statistic; the min is the comparison-grade number.
    """
    fn()
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


def bench_meta() -> "dict[str, object]":
    """The provenance block: who/where/when produced this result."""
    return {
        "git_sha": git_revision(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "cpu_count": os.cpu_count(),
        "hostname": platform.node(),
    }


def run_bench() -> "dict[str, object]":
    """Time every stage at one BLAS thread and return the result dict.

    The caller's BLAS thread count is restored afterwards.
    """
    previous = blas_threads()
    set_blas_threads(1)
    threads = blas_threads()
    tel = telemetry()
    tel.reset()
    tel.enable()
    try:
        stages = _run_stages()
    finally:
        tel.disable()
        if previous is not None:
            set_blas_threads(previous)

    def _speedup(reference: str, fast: str) -> float:
        return stages[reference]["min_s"] / stages[fast]["min_s"]

    config = GenerationConfig(num_frames=_NUM_FRAMES)
    chirps_per_sequence = _NUM_FRAMES * config.radar.chirp.num_chirps
    sample_s = stages["sample.end_to_end"]["min_s"]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "meta": {**bench_meta(), "blas_threads": threads, "heap": keep_heap_mapped()},
        "preset": {"num_frames": _NUM_FRAMES, "repeats": _REPEATS},
        "machine": machine_info(),
        "stages": stages,
        "throughput": {
            "chirps_per_s": chirps_per_sequence
            / stages["simulator.sequence"]["min_s"],
            "frames_per_s": _NUM_FRAMES / sample_s,
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
            if name.split(".")[0] in ("simulate", "process")
        },
    }


def _run_stages() -> "dict[str, dict]":
    """Execute and time every stage on the seeded workload."""
    config = GenerationConfig(num_frames=_NUM_FRAMES)
    generator = SampleGenerator(config, seed=0)
    simulator = generator.simulator
    heatmap_config = config.heatmap
    extras = generator._environment_facets or None
    meshes = generator.sample_meshes("push", 1.0, 0.0)
    light_repeats = _REPEATS * 4

    stages: "dict[str, dict]" = {}
    _log.info("bench: simulator stages (%d frames)", _NUM_FRAMES)
    stages["simulator.facet_set"] = _time_stage(
        lambda: simulator.facet_set(meshes[0]), light_repeats
    )
    facets = simulator.facet_set(meshes[0])
    stages["simulator.frame_cube"] = _time_stage(
        lambda: simulator.frame_cube_from_facets(facets), light_repeats
    )
    stages["simulator.sequence"] = _time_stage(
        lambda: simulator.simulate_sequence(meshes, extra_facets=extras),
        _REPEATS,
    )
    stages["simulator.sequence_reference"] = _time_stage(
        lambda: simulator.simulate_sequence_reference(meshes, extra_facets=extras),
        _REPEATS,
    )

    _log.info("bench: processing stages")
    cubes = simulator.simulate_sequence(meshes, extra_facets=extras)

    def fft_chain() -> None:
        profiles = range_fft_sequence(cubes)
        doppler_fft_sequence(profiles)
        angle_fft_sequence(profiles, heatmap_config.num_angle_bins)

    stages["process.fft_chain"] = _time_stage(fft_chain, _REPEATS)
    stages["process.drai_sequence"] = _time_stage(
        lambda: drai_sequence(cubes, heatmap_config), _REPEATS
    )
    stages["process.drai_sequence_reference"] = _time_stage(
        lambda: drai_sequence_reference(cubes, heatmap_config), _REPEATS
    )

    _log.info("bench: end-to-end sample generation")
    stages["sample.end_to_end"] = _time_stage(
        lambda: drai_sequence(
            simulator.simulate_sequence(meshes, extra_facets=extras), heatmap_config
        ),
        _REPEATS,
    )
    stages["sample.end_to_end_reference"] = _time_stage(
        lambda: drai_sequence_reference(
            simulator.simulate_sequence_reference(meshes, extra_facets=extras),
            heatmap_config,
        ),
        _REPEATS,
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
                "throughput", "speedup", "spans"):
        if key not in result:
            raise ValueError(f"missing top-level key {key!r}")
    meta = result["meta"]
    if not isinstance(meta, dict):
        raise ValueError(f"meta must be an object, got {type(meta).__name__}")
    for field in ("git_sha", "date", "cpu_count", "hostname"):
        if field not in meta:
            raise ValueError(f"missing meta field {field!r}")
    stages = result["stages"]
    for name in BENCH_STAGES:
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


def load_bench_result(path: "str | os.PathLike") -> "dict[str, object]":
    """Read a ``BENCH_*.json`` file, tolerating previous schemas.

    v4 and v5 files return as written.  v2/v3 files (pre-``meta``) get a
    ``meta`` block synthesized from the fields they do carry — git SHA
    and hostname were not recorded then, so those read ``"unknown"`` —
    and keep their original ``schema_version`` so callers can tell.
    Other versions are refused.
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
    return write_text_atomic(
        path, json.dumps(result, indent=2, sort_keys=True) + "\n"
    )


def format_bench_result(result: "dict[str, object]") -> str:
    """Human-readable stage table + speedup summary."""
    stages: "dict[str, dict]" = result["stages"]  # type: ignore[assignment]
    width = max(len(name) for name in stages)
    lines = [
        f"fast-path benchmark ({result['preset']['num_frames']} frames)",  # type: ignore[index]
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
    return "\n".join(lines)
