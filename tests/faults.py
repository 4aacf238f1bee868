"""Fault-injection harness for the fault-tolerance test suite.

Each context manager deterministically breaks one pipeline stage — cache
archives on disk, simulator output, or the training loop — and restores the
patched state on exit.  The tier-1 fault suite uses these to prove every
degradation path recovers as designed, without relying on rare natural
failures.

The managers patch module/class attributes (not sys-wide state), so they
compose and are safe to nest in tests.  Nothing under ``src/`` imports
this module; CI's ``chaos`` job imports its pool tasks from the repository
root as ``tests.faults``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:  # pragma: no cover - absent on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None


# ----------------------------------------------------------------------
# Cache-file corruption
# ----------------------------------------------------------------------
@contextlib.contextmanager
def corrupted_cache_file(path: "str | os.PathLike", mode: str = "truncate"):
    """Corrupt a cache archive in place for the duration of the block.

    Modes: ``truncate`` keeps only the first few bytes (an interrupted
    write), ``flip`` XOR-flips bytes in the middle (bit rot), ``empty``
    leaves a zero-byte file, ``garbage`` replaces the content with
    non-zip bytes.  On exit the original bytes are restored — unless the
    recovery path already quarantined or rewrote the file, in which case
    the recovered state is left alone.
    """
    path = Path(path)
    original = path.read_bytes()
    if mode == "truncate":
        mutated = original[: max(4, len(original) // 8)]
    elif mode == "flip":
        data = bytearray(original)
        # A wide band early in the archive lands inside a member's data:
        # a stored member then fails its CRC-32 check (BadZipFile), a
        # deflated one its deflate stream (zlib.error).  A 16-byte
        # mid-file flip misses both on realistically-sized archives.
        start = min(2000, len(data) // 2)
        stop = min(start + 2048, len(data))
        for offset in range(start, max(stop, start + 1)):
            data[offset] ^= 0xFF
        mutated = bytes(data)
    elif mode == "empty":
        mutated = b""
    elif mode == "garbage":
        mutated = b"not a zip archive" * 4
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    path.write_bytes(mutated)
    try:
        yield path
    finally:
        if path.exists() and path.read_bytes() == mutated:
            path.write_bytes(original)


# ----------------------------------------------------------------------
# Simulator NaN poisoning
# ----------------------------------------------------------------------
@contextlib.contextmanager
def nan_poisoned_simulator(fraction: float = 0.01, seed: int = 0):
    """Make every simulated IF cube sequence carry NaN entries.

    Patches :meth:`FmcwRadarSimulator.simulate_sequence` to overwrite a
    deterministic ``fraction`` of each output with NaN — the failure
    signature of an unstable numeric kernel — so tests can assert the
    simulator→heatmap boundary guard trips.
    """
    from repro.radar.simulator import FmcwRadarSimulator

    original = FmcwRadarSimulator.simulate_sequence

    def poisoned(self, *args, **kwargs):
        cubes = original(self, *args, **kwargs)
        cubes = np.array(cubes, copy=True)
        flat = cubes.reshape(-1)
        count = max(1, int(round(flat.size * fraction)))
        rng = np.random.default_rng(seed)
        flat[rng.choice(flat.size, size=count, replace=False)] = np.nan
        return cubes

    FmcwRadarSimulator.simulate_sequence = poisoned
    try:
        yield
    finally:
        FmcwRadarSimulator.simulate_sequence = original


# ----------------------------------------------------------------------
# Trainer faults
# ----------------------------------------------------------------------
@contextlib.contextmanager
def diverging_loss(after_batches: int = 0):
    """Force the training loss to NaN from batch ``after_batches`` on.

    Wraps the ``cross_entropy`` the trainer calls so its value becomes
    NaN, exercising the ``nan_policy`` divergence handling without
    constructing a genuinely unstable optimization problem.
    """
    from repro.models import trainer as trainer_module

    original = trainer_module.cross_entropy
    calls = {"n": 0}

    def unstable(logits, labels):
        loss = original(logits, labels)
        calls["n"] += 1
        if calls["n"] > after_batches:
            loss.data = np.full_like(loss.data, np.nan)
        return loss

    trainer_module.cross_entropy = unstable
    try:
        yield
    finally:
        trainer_module.cross_entropy = original


@contextlib.contextmanager
def failing_trainer(after_batches: int = 0):
    """Raise ``RuntimeError`` mid-epoch after ``after_batches`` batches.

    Wraps the trainer's gradient-clipping call — which runs once per batch,
    after backward but before the optimizer step — to simulate a hard
    mid-epoch crash (OOM, interrupt) for checkpoint/resume tests.
    """
    from repro.models import trainer as trainer_module

    original = trainer_module.clip_grad_norm
    calls = {"n": 0}

    def crashing(parameters, max_norm):
        calls["n"] += 1
        if calls["n"] > after_batches:
            raise RuntimeError("injected mid-epoch trainer fault")
        return original(parameters, max_norm)

    trainer_module.clip_grad_norm = crashing
    try:
        yield
    finally:
        trainer_module.clip_grad_norm = original


# ----------------------------------------------------------------------
# Worker-pool faults
# ----------------------------------------------------------------------
def _bump_shared_counter(path: "str | os.PathLike") -> int:
    """Atomically increment a file-backed counter shared across processes.

    The pool's retry attempts may land in *different* worker processes
    (the first one is dead), so "n-th call" semantics need a counter that
    survives the process — an flock-serialized file, not module state.
    """
    with open(path, "a+b") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        handle.seek(0)
        raw = handle.read().strip()
        count = (int(raw) if raw else 0) + 1
        handle.seek(0)
        handle.truncate()
        handle.write(str(count).encode())
        handle.flush()
        os.fsync(handle.fileno())
    return count


@dataclass(frozen=True)
class CrashingTask:
    """Pool task whose first ``crash_attempts`` calls kill the worker.

    Each call bumps the shared counter; while it is ``<= crash_attempts``
    the process dies via ``os._exit`` (no exception, no cleanup — the
    failure signature of an OOM kill or segfault).  Later calls return
    ``result``, so the pool's crash-retry path can be proven end to end:
    with ``crash_attempts=1`` the retried task succeeds on a fresh worker;
    with a large value the task exhausts its retries while the sweep
    itself survives.
    """

    counter_path: str
    crash_attempts: int = 1
    exit_code: int = 1
    result: str = "survived"

    def __call__(self, *args, **kwargs) -> str:
        count = _bump_shared_counter(self.counter_path)
        if count <= self.crash_attempts:
            os._exit(self.exit_code)
        return self.result


@dataclass(frozen=True)
class HangingTask:
    """Pool task whose first ``hang_attempts`` calls hang.

    The hang (default 60 s) is meant to blow well past any test deadline,
    so the pool's deadline enforcement — kill the worker, requeue the
    task — is what ends the attempt, never the sleep itself.
    """

    counter_path: str
    hang_attempts: int = 1
    hang_s: float = 60.0
    result: str = "survived"

    def __call__(self, *args, **kwargs) -> str:
        count = _bump_shared_counter(self.counter_path)
        if count <= self.hang_attempts:
            time.sleep(self.hang_s)
        return self.result


@dataclass(frozen=True)
class FlakyTask:
    """Pool task whose first ``fail_attempts`` calls raise.

    Unlike :class:`CrashingTask` the worker survives (the exception is
    shipped back over the pipe), exercising the in-worker retry path and
    its backoff schedule rather than worker respawn.
    """

    counter_path: str
    fail_attempts: int = 1
    result: str = "survived"

    def __call__(self, *args, **kwargs) -> str:
        count = _bump_shared_counter(self.counter_path)
        if count <= self.fail_attempts:
            raise RuntimeError(f"injected flaky fault (call {count})")
        return self.result


@contextlib.contextmanager
def failing_experiment(registry: dict, name: str, message: str = "injected experiment fault"):
    """Replace one experiment runner in ``registry`` with a crashing stub.

    ``registry`` is the experiment table
    (:data:`repro.campaigns.runner.EXPERIMENTS`, id -> ``Experiment``);
    the stub raises ``RuntimeError`` so failure-path tests can prove a
    failed run or cell is reported, not swallowed.
    """
    original = registry[name]

    def crash(ctx):
        raise RuntimeError(message)

    registry[name] = dataclasses.replace(original, runner=crash)
    try:
        yield
    finally:
        registry[name] = original
