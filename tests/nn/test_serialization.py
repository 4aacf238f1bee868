"""Tests for checkpoint save/load."""

import stat

import numpy as np

from repro.nn import Linear, ReLU, Sequential, Tensor, load_checkpoint, save_checkpoint


def test_checkpoint_roundtrip(tmp_path, rng):
    model = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)

    fresh = Sequential(
        Linear(4, 8, np.random.default_rng(123)),
        ReLU(),
        Linear(8, 2, np.random.default_rng(123)),
    )
    x = Tensor(np.ones((3, 4)))
    assert not np.allclose(model(x).data, fresh(x).data)
    load_checkpoint(fresh, path)
    assert np.allclose(model(x).data, fresh(x).data)


def test_checkpoint_preserves_dtype(tmp_path, rng):
    model = Sequential(Linear(4, 2, rng)).astype(np.float32)
    path = tmp_path / "model32.npz"
    save_checkpoint(model, path)
    load_checkpoint(model, path)
    assert model.dtype == np.float32


def test_checkpoint_honours_the_umask(tmp_path, rng, new_file_mode):
    path = tmp_path / "model.npz"
    save_checkpoint(Sequential(Linear(4, 2, rng)), path)
    assert stat.S_IMODE(path.stat().st_mode) == new_file_mode
