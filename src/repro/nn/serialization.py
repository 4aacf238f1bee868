"""Model checkpoint save/load as ``.npz`` archives.

Checkpoints are written atomically (temp file + ``os.replace``) so a crash
mid-save can never leave a truncated archive where the trainer's
resume path expects a valid one.
"""

from __future__ import annotations

import os

import numpy as np

from ..runtime.telemetry import write_atomic
from .layers import Module


def _normalize(path: str | os.PathLike) -> str:
    """Match numpy's convention of appending ``.npz`` to suffix-less paths,
    so save/load pairs agree on the file name."""
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


def save_arrays(arrays: dict, path: str | os.PathLike) -> None:
    """Atomically write a ``name -> ndarray`` mapping to an ``.npz`` file."""
    # npz keys cannot contain '/' reliably across loaders; '.' is fine.
    write_atomic(
        _normalize(path), lambda handle: np.savez_compressed(handle, **arrays)
    )


def load_arrays(path: str | os.PathLike) -> dict:
    """Read back a mapping written by :func:`save_arrays`."""
    with np.load(_normalize(path)) as archive:
        return {key: archive[key] for key in archive.files}


def save_checkpoint(module: Module, path: str | os.PathLike) -> None:
    """Atomically write a module's ``state_dict`` to an ``.npz`` file."""
    save_arrays(module.state_dict(), path)


def load_checkpoint(module: Module, path: str | os.PathLike) -> None:
    """Load a checkpoint written by :func:`save_checkpoint` into ``module``."""
    module.load_state_dict(load_arrays(path))
