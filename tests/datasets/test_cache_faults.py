"""Cache round-trips under faults: every unusable-archive mode must be
detected, quarantined, and transparently regenerated — never surfaced as a
raw ``zipfile.BadZipFile``."""

import json
import stat
import zipfile
import zlib

import numpy as np
import pytest

from repro.datasets import (
    CACHE_SCHEMA_VERSION,
    HeatmapDataset,
    SampleMeta,
    cached_dataset,
    load_dataset,
    quarantine_cache_file,
    save_dataset,
)
from repro.datasets.cache import cache_key
from repro.runtime.errors import CacheCorruptionError

from ..faults import corrupted_cache_file


def make_dataset(n=6, poison_nan=False):
    rng = np.random.default_rng(0)
    x = rng.random((n, 4, 8, 8)).astype(np.float32)
    if poison_nan:
        x[0, 0, 0, 0] = np.nan
    y = np.arange(n) % 3
    meta = [
        SampleMeta(
            activity="push", distance_m=1.2, angle_deg=-30.0,
            participant=1, has_trigger=bool(i % 2), trigger_attachment="chest",
        )
        for i in range(n)
    ]
    return HeatmapDataset(x, y, meta)


def _cache_path(tmp_path, params):
    return tmp_path / f"dataset-{cache_key(params)}.npz"


# ----------------------------------------------------------------------
# load_dataset raises CacheCorruptionError for every corruption mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["truncate", "flip", "empty", "garbage"])
def test_load_rejects_corrupt_archives(tmp_path, mode):
    path = save_dataset(make_dataset(), tmp_path / "ds.npz")
    with corrupted_cache_file(path, mode=mode):
        with pytest.raises(CacheCorruptionError):
            load_dataset(path)
    # restored archive loads fine again
    assert len(load_dataset(path)) == 6


def _deflate_archive(path):
    """Rewrite ``path``'s members deflated, as earlier versions wrote them."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def test_load_rejects_corrupt_deflate_stream(tmp_path):
    """Bit rot inside a member's compressed stream raises ``zlib.error``
    (not ``BadZipFile``) when numpy decompresses the array — a distinct
    corruption mode that once escaped as a raw crash.  Archives are
    stored now, but deflated ones written earlier still load."""
    rng = np.random.default_rng(0)
    # Tiled data yields a long real deflate stream (random = stored
    # blocks, zeros = a ~30-byte stream), so the flip below is guaranteed
    # to land inside x's compressed bytes.
    x = np.tile(rng.random((1, 4, 8, 8)).astype(np.float32), (64, 1, 1, 1))
    meta = [
        SampleMeta(
            activity="push", distance_m=1.2, angle_deg=-30.0,
            participant=1, has_trigger=False, trigger_attachment="chest",
        )
        for _ in range(64)
    ]
    path = save_dataset(HeatmapDataset(x, np.arange(64) % 3, meta), tmp_path / "ds.npz")
    _deflate_archive(path)
    data = bytearray(path.read_bytes())
    for offset in range(2000, 2064):
        data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruptionError) as excinfo:
        load_dataset(path)
    assert isinstance(excinfo.value.__cause__, zlib.error)


def test_archives_are_stored_and_deflated_ones_still_load(tmp_path):
    ds = make_dataset()
    path = save_dataset(ds, tmp_path / "ds.npz")
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {
            zipfile.ZIP_STORED
        }
    _deflate_archive(path)
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {
            zipfile.ZIP_DEFLATED
        }
    loaded = load_dataset(path)
    assert np.array_equal(loaded.x, ds.x) and np.array_equal(loaded.y, ds.y)
    assert loaded.meta == ds.meta


def test_load_rejects_stale_schema_version(tmp_path):
    path = save_dataset(make_dataset(), tmp_path / "ds.npz")
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    header = json.loads(bytes(arrays["header"]).decode())
    header["schema_version"] = CACHE_SCHEMA_VERSION - 1
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with pytest.raises(CacheCorruptionError, match="schema version"):
        load_dataset(path)


def test_load_rejects_checksum_mismatch(tmp_path):
    path = save_dataset(make_dataset(), tmp_path / "ds.npz")
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["x"] = arrays["x"] + 1.0  # silent payload drift
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with pytest.raises(CacheCorruptionError, match="checksum mismatch"):
        load_dataset(path)


def test_load_rejects_legacy_headerless_archives(tmp_path):
    ds = make_dataset()
    path = tmp_path / "legacy.npz"
    np.savez_compressed(path, x=ds.x, y=ds.y)  # pre-versioning layout
    with pytest.raises(CacheCorruptionError, match="missing archive keys"):
        load_dataset(path)


def test_load_rejects_nan_payload(tmp_path):
    path = save_dataset(make_dataset(poison_nan=True), tmp_path / "ds.npz")
    with pytest.raises(CacheCorruptionError, match="NaN/Inf"):
        load_dataset(path)


def test_load_missing_file_stays_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "never-written.npz")


# ----------------------------------------------------------------------
# cached_dataset: quarantine + regenerate, not a raw exception
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["truncate", "flip", "empty", "garbage"])
def test_cached_dataset_quarantines_and_regenerates(tmp_path, mode):
    calls = []

    def builder():
        calls.append(1)
        return make_dataset()

    params = {"n": 1}
    cached_dataset(params, builder, cache_dir=tmp_path)
    assert len(calls) == 1
    path = _cache_path(tmp_path, params)
    assert path.exists()

    with corrupted_cache_file(path, mode=mode):
        recovered = cached_dataset(params, builder, cache_dir=tmp_path)
        assert len(calls) == 2  # regenerated
        assert np.allclose(recovered.x, make_dataset().x)
        quarantined = list(tmp_path.glob("*.quarantined*"))
        assert len(quarantined) == 1
        # the regenerated archive is immediately valid
        assert len(load_dataset(path)) == 6
    # third call hits the fresh cache without rebuilding
    cached_dataset(params, builder, cache_dir=tmp_path)
    assert len(calls) == 2


def test_quarantine_uses_numbered_suffixes(tmp_path):
    for expected in ("a.npz.quarantined", "a.npz.quarantined.1"):
        path = tmp_path / "a.npz"
        path.write_bytes(b"junk")
        target = quarantine_cache_file(path)
        assert target.name == expected
        assert not path.exists()
    assert quarantine_cache_file(tmp_path / "missing.npz") is None


# ----------------------------------------------------------------------
# Atomic writes + path normalization
# ----------------------------------------------------------------------
def test_save_is_atomic_no_temp_residue(tmp_path):
    save_dataset(make_dataset(), tmp_path / "ds.npz")
    assert [p.name for p in tmp_path.iterdir()] == ["ds.npz"]


def test_save_honours_the_umask(tmp_path, new_file_mode):
    path = save_dataset(make_dataset(), tmp_path / "ds.npz")
    assert stat.S_IMODE(path.stat().st_mode) == new_file_mode


def test_save_failure_leaves_no_partial_archive(tmp_path, monkeypatch):
    import repro.datasets.cache as cache_module

    def exploding_savez(handle, **arrays):
        handle.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(cache_module.np, "savez", exploding_savez)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(make_dataset(), tmp_path / "ds.npz")
    assert list(tmp_path.iterdir()) == []  # no truncated archive, no temp file


def test_suffixless_path_normalization_round_trip(tmp_path):
    ds = make_dataset()
    written = save_dataset(ds, tmp_path / "ds")  # numpy would append .npz
    assert written == tmp_path / "ds.npz"
    assert np.allclose(load_dataset(tmp_path / "ds").x, ds.x)
    assert np.allclose(load_dataset(tmp_path / "ds.npz").x, ds.x)


# ----------------------------------------------------------------------
# Transient-read retry: OSError-caused failures heal, structural ones don't
# ----------------------------------------------------------------------
def test_cached_dataset_retries_transient_oserror(tmp_path, monkeypatch):
    import repro.datasets.cache as cache_module
    from repro.runtime.telemetry import metrics

    params = {"n": 1}
    cached_dataset(params, make_dataset, cache_dir=tmp_path)
    path = _cache_path(tmp_path, params)

    real_load = cache_module.load_dataset
    failures = {"left": 2}

    def flaky_load(archive_path):
        if failures["left"] > 0:
            failures["left"] -= 1
            raise CacheCorruptionError(
                archive_path, "unreadable archive (EIO)"
            ) from OSError(5, "Input/output error")
        return real_load(archive_path)

    monkeypatch.setattr(cache_module, "load_dataset", flaky_load)
    metrics().reset()

    def builder():  # pragma: no cover - would mean the retry didn't heal
        raise AssertionError("regenerated despite a healable read")

    dataset = cached_dataset(params, builder, cache_dir=tmp_path)
    assert len(dataset) == 6
    assert metrics().counter("cache.read_retry").value == 2
    assert metrics().counter("cache.hit").value == 1
    assert metrics().counter("cache.quarantine").value == 0
    assert path.exists()  # never quarantined


def test_cached_dataset_does_not_retry_structural_corruption(tmp_path, monkeypatch):
    import zipfile

    import repro.datasets.cache as cache_module
    from repro.runtime.telemetry import metrics

    params = {"n": 1}
    cached_dataset(params, make_dataset, cache_dir=tmp_path)

    attempts = []
    real_load = cache_module.load_dataset

    def corrupt_load(archive_path):
        attempts.append(1)
        if len(attempts) == 1:
            raise CacheCorruptionError(
                archive_path, "unreadable archive (bad zip)"
            ) from zipfile.BadZipFile("File is not a zip file")
        return real_load(archive_path)

    monkeypatch.setattr(cache_module, "load_dataset", corrupt_load)
    metrics().reset()
    dataset = cached_dataset(params, make_dataset, cache_dir=tmp_path)
    assert len(dataset) == 6
    # Structural damage goes straight to quarantine: exactly one read try.
    assert len(attempts) == 1
    assert metrics().counter("cache.read_retry").value == 0
    assert metrics().counter("cache.quarantine").value == 1


def test_cached_dataset_exhausted_retries_still_quarantine(tmp_path, monkeypatch):
    import repro.datasets.cache as cache_module
    from repro.runtime.telemetry import metrics

    params = {"n": 1}
    cached_dataset(params, make_dataset, cache_dir=tmp_path)

    def always_eio(archive_path):
        raise CacheCorruptionError(
            archive_path, "unreadable archive (EIO)"
        ) from OSError(5, "Input/output error")

    monkeypatch.setattr(cache_module, "load_dataset", always_eio)
    metrics().reset()
    calls = []

    def builder():
        calls.append(1)
        return make_dataset()

    dataset = cached_dataset(params, builder, cache_dir=tmp_path)
    assert len(dataset) == 6
    assert calls == [1]  # persistent unreadability -> regenerate once
    assert metrics().counter("cache.quarantine").value == 1
