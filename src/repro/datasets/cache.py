"""Disk caching of generated datasets as versioned, checksummed ``.npz``.

Simulated data collection is the slowest pipeline stage, so experiments
cache datasets keyed by their generation parameters and reuse them across
benchmark runs.  Because hours of simulator time ride on these archives,
the cache defends itself:

* **Atomic writes** — archives are written to a temp file in the cache
  directory and ``os.replace``d into place, so an interrupted run can
  never leave a truncated ``.npz`` at the final path.  Members are
  stored, not deflated: deflating a FAST dataset took over ten times as
  long as writing it, on an experiment's critical path, to halve its
  size.  :func:`load_dataset` reads both layouts, so archives deflated
  by earlier versions keep loading.
* **Schema version + checksum** — every archive embeds a header with
  :data:`CACHE_SCHEMA_VERSION` and a SHA-256 digest of the payload;
  :func:`load_dataset` rejects stale versions and bit rot as
  :class:`~repro.runtime.errors.CacheCorruptionError` instead of the
  opaque ``zipfile.BadZipFile`` downstream crash.
* **Quarantine + regenerate** — :func:`cached_dataset` moves unusable
  archives aside (``*.quarantined``) and transparently rebuilds, so a
  corrupt cache costs one regeneration, never a dead campaign.
* **Transient-read retry** — an archive read that dies on a plain
  ``OSError`` (flaky network filesystem, EINTR under load) is retried
  with a short backoff before the quarantine verdict; only *persistent*
  unreadability costs a regeneration.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..runtime.backoff import TRANSIENT_IO_POLICY, retry_call
from ..runtime.errors import CacheCorruptionError
from ..runtime.guards import all_finite
from ..runtime.logging import get_logger
from ..runtime.telemetry import metrics, span, write_atomic
from .dataset import HeatmapDataset, SampleMeta

_log = get_logger("datasets.cache")

#: Bump when the on-disk archive layout changes OR the generated data's
#: numerics change; loaders refuse other versions so stale archives
#: regenerate instead of half-deserializing.  v3: batched complex64
#: simulator/heatmap pipeline (float32 heatmaps).  v4: single batched
#: float32 thermal-noise draw (interleaved re/im stream).
CACHE_SCHEMA_VERSION = 4

_META_FIELDS = (
    "activity",
    "distance_m",
    "angle_deg",
    "participant",
    "has_trigger",
    "trigger_attachment",
)


def _normalize_archive_path(path: "str | os.PathLike") -> Path:
    """Canonical archive path with the ``.npz`` suffix always present.

    ``np.savez`` silently appends ``.npz`` to suffix-less paths, which
    used to desync ``save_dataset``/``load_dataset`` pairs; normalizing
    both ends keeps them pointed at the same file.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _payload_checksum(x: np.ndarray, y: np.ndarray, meta_json: str) -> str:
    """SHA-256 over the payload arrays and metadata blob."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(x).tobytes())
    digest.update(np.ascontiguousarray(y).tobytes())
    digest.update(meta_json.encode())
    return digest.hexdigest()


def save_dataset(dataset: HeatmapDataset, path: "str | os.PathLike") -> Path:
    """Atomically write a dataset (with metadata + integrity header).

    Returns the normalized archive path actually written.
    """
    path = _normalize_archive_path(path)
    meta_json = json.dumps(
        [
            {name: getattr(m, name) for name in _META_FIELDS}
            for m in dataset.meta
        ]
    )
    header = json.dumps(
        {
            "schema_version": CACHE_SCHEMA_VERSION,
            "checksum": _payload_checksum(dataset.x, dataset.y, meta_json),
        }
    )
    return write_atomic(path, lambda handle: np.savez(
        handle,
        x=dataset.x,
        y=dataset.y,
        meta=np.frombuffer(meta_json.encode(), dtype=np.uint8),
        header=np.frombuffer(header.encode(), dtype=np.uint8),
    ))


def load_dataset(path: "str | os.PathLike") -> HeatmapDataset:
    """Read a dataset written by :func:`save_dataset`, verifying integrity.

    Raises :class:`CacheCorruptionError` for every unusable-archive mode —
    truncation, bit flips, empty files, missing keys, stale schema
    versions, checksum mismatches, and non-finite payloads — so callers
    have a single recovery path.
    """
    path = _normalize_archive_path(path)
    try:
        with np.load(path) as archive:
            keys = set(archive.files)
            missing = {"x", "y", "meta", "header"} - keys
            if missing:
                raise CacheCorruptionError(
                    path, f"missing archive keys {sorted(missing)}"
                )
            x = archive["x"]
            y = archive["y"]
            meta_json = bytes(archive["meta"]).decode()
            header_json = bytes(archive["header"]).decode()
    except CacheCorruptionError:
        raise
    except FileNotFoundError:
        raise
    except (
        zipfile.BadZipFile,
        zlib.error,  # flipped bytes inside a deflated member's stream
        struct.error,  # mangled npy header fields
        OSError,
        ValueError,
        KeyError,
        EOFError,
    ) as exc:
        raise CacheCorruptionError(path, f"unreadable archive ({exc})") from exc

    try:
        header = json.loads(header_json)
        meta_entries = json.loads(meta_json)
    except json.JSONDecodeError as exc:
        raise CacheCorruptionError(path, f"undecodable metadata ({exc})") from exc

    version = header.get("schema_version")
    if version != CACHE_SCHEMA_VERSION:
        raise CacheCorruptionError(
            path,
            f"schema version {version!r} != expected {CACHE_SCHEMA_VERSION}",
        )
    checksum = _payload_checksum(x, y, meta_json)
    if checksum != header.get("checksum"):
        raise CacheCorruptionError(path, "payload checksum mismatch")
    if not all_finite(x):
        raise CacheCorruptionError(path, "payload contains NaN/Inf heatmaps")

    meta = [SampleMeta(**entry) for entry in meta_entries]
    return HeatmapDataset(x, y, meta)


def quarantine_cache_file(path: "str | os.PathLike") -> "Path | None":
    """Move an unusable archive aside for post-mortem; never raises.

    Returns the quarantine path (``<name>.quarantined``, with a numeric
    suffix if occupied), or ``None`` when the file vanished already.
    """
    path = Path(path)
    if not path.exists():
        return None
    target = path.with_name(path.name + ".quarantined")
    counter = 1
    while target.exists():
        target = path.with_name(f"{path.name}.quarantined.{counter}")
        counter += 1
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


def cache_key(params: dict) -> str:
    """A stable 16-hex-digit key for a parameter dictionary."""
    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def default_cache_dir() -> Path:
    """Cache directory (override with ``REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-mmwave-backdoor"


def cached_dataset(params: dict, builder, cache_dir: "Path | None" = None) -> HeatmapDataset:
    """Load the dataset for ``params`` from cache, or build and store it.

    ``builder`` is a zero-argument callable producing the dataset when the
    cache misses.  A corrupt or stale archive is quarantined and the
    dataset transparently regenerated — a cache problem never propagates
    to experiment code.

    Every outcome is observable: hits, misses, and quarantines are logged
    and counted through the metrics registry (``cache.hit``,
    ``cache.miss``, ``cache.quarantine``).
    """
    directory = cache_dir or default_cache_dir()
    path = directory / f"dataset-{cache_key(params)}.npz"

    def _load() -> HeatmapDataset:
        with span("cache.load", path=str(path)):
            return load_dataset(path)

    def _transient(exc: BaseException) -> bool:
        # A corruption verdict caused by a *plain* OSError (EIO on a
        # network mount, EINTR) may heal on re-read; structural damage
        # (bad zip, checksum mismatch) never does.  FileNotFoundError is
        # terminal too — another process quarantined the archive already.
        cause = exc.__cause__
        return isinstance(cause, OSError) and not isinstance(
            cause, FileNotFoundError
        )

    def _count_retry(attempt: int, exc: BaseException) -> None:
        metrics().counter("cache.read_retry").inc()

    if path.exists():
        try:
            dataset = retry_call(
                _load,
                policy=TRANSIENT_IO_POLICY,
                retry_on=CacheCorruptionError,
                should_retry=_transient,
                on_retry=_count_retry,
            )
            metrics().counter("cache.hit").inc()
            _log.info("cache hit path=%s samples=%d", path, len(dataset))
            return dataset
        except CacheCorruptionError as exc:
            quarantined = quarantine_cache_file(path)
            metrics().counter("cache.quarantine").inc()
            _log.warning(
                "quarantined corrupt cache archive path=%s reason=%s "
                "quarantine=%s",
                path,
                exc.reason,
                quarantined,
            )
    metrics().counter("cache.miss").inc()
    _log.info("cache miss path=%s", path)
    dataset = builder()
    with span("cache.save", path=str(path)):
        save_dataset(dataset, path)
    return dataset
