"""The atomic writers: text files, ``.npz`` checkpoints and dataset archives.

All three go through :func:`repro.runtime.telemetry.write_atomic`: the
bytes are fsynced before the rename, so a power cut after the rename
cannot leave an empty or torn file under the final name.
"""

import os
import stat

import numpy as np
import pytest

from repro.datasets import HeatmapDataset, SampleMeta, save_dataset
from repro.nn.serialization import load_arrays, save_arrays
from repro.runtime.telemetry import write_text_atomic


def _dataset() -> HeatmapDataset:
    x = np.arange(2 * 2 * 4 * 4, dtype=np.float32).reshape(2, 2, 4, 4) / 64
    meta = [SampleMeta("push", 1.2, 0.0) for _ in range(2)]
    return HeatmapDataset(x, np.array([0, 1]), meta)


WRITERS = {
    "text": lambda path: write_text_atomic(path, '{"ok": true}\n'),
    "arrays": lambda path: save_arrays({"w": np.eye(2)}, path),
    "dataset": lambda path: save_dataset(_dataset(), path),
}


@pytest.fixture()
def syscalls(monkeypatch):
    """Record ``fsync`` (by inode) and ``replace`` (by target) in order."""
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        return fsync(fd)

    def recording_replace(src, dst):
        calls.append(("replace", os.fspath(dst)))
        return replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return calls


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_fsync_comes_before_replace(kind, syscalls, tmp_path, new_file_mode):
    path = tmp_path / "out.npz"
    WRITERS[kind](path)
    assert [name for name, _ in syscalls] == ["fsync", "replace"]
    (_, synced_inode), (_, target) = syscalls
    # The file fsynced is the one now under the final name.
    assert target == os.fspath(path)
    assert os.stat(path).st_ino == synced_inode
    assert stat.S_IMODE(os.stat(path).st_mode) == new_file_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.npz"]


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_a_failed_write_leaves_no_temp_file(kind, monkeypatch, tmp_path):
    def fail(fd):
        raise OSError("injected fsync failure")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="injected fsync failure"):
        WRITERS[kind](tmp_path / "out.npz")
    assert list(tmp_path.iterdir()) == []


def test_saved_arrays_round_trip(tmp_path):
    save_arrays({"w": np.eye(2), "b": np.zeros(3)}, tmp_path / "ckpt")
    loaded = load_arrays(tmp_path / "ckpt.npz")
    assert np.array_equal(loaded["w"], np.eye(2))
    assert np.array_equal(loaded["b"], np.zeros(3))
