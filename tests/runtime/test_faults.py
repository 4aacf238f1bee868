"""The fault-injection harness itself: breaks exactly as advertised, then
restores the patched state on exit."""

import numpy as np
import pytest

from repro.models import trainer as trainer_module
from repro.nn import Tensor
from repro.radar.simulator import FmcwRadarSimulator
from repro.runtime.errors import SimulationError

from ..faults import (
    corrupted_cache_file,
    diverging_loss,
    failing_trainer,
    nan_poisoned_simulator,
)


# ----------------------------------------------------------------------
# Cache corruption
# ----------------------------------------------------------------------
def test_corrupted_cache_file_modes(tmp_path):
    payload = bytes(range(256)) * 8
    for mode in ("truncate", "flip", "empty", "garbage"):
        path = tmp_path / f"{mode}.npz"
        path.write_bytes(payload)
        with corrupted_cache_file(path, mode=mode):
            mutated = path.read_bytes()
            assert mutated != payload
            if mode == "truncate":
                assert 0 < len(mutated) < len(payload)
            if mode == "empty":
                assert mutated == b""
        assert path.read_bytes() == payload  # restored on exit


def test_corrupted_cache_file_leaves_recovered_state_alone(tmp_path):
    path = tmp_path / "ds.npz"
    path.write_bytes(b"original archive bytes")
    with corrupted_cache_file(path, mode="empty"):
        path.write_bytes(b"regenerated by recovery")  # recovery path rewrote it
    assert path.read_bytes() == b"regenerated by recovery"


def test_corrupted_cache_file_rejects_unknown_mode(tmp_path):
    path = tmp_path / "ds.npz"
    path.write_bytes(b"x")
    with pytest.raises(ValueError, match="unknown corruption mode"):
        with corrupted_cache_file(path, mode="melt"):
            pass


# ----------------------------------------------------------------------
# Simulator poisoning
# ----------------------------------------------------------------------
def test_nan_poisoned_simulator_patches_and_restores(micro_generator):
    original = FmcwRadarSimulator.simulate_sequence
    meshes = micro_generator.sample_meshes("push", 1.0, 0.0)
    with nan_poisoned_simulator(fraction=0.01):
        assert FmcwRadarSimulator.simulate_sequence is not original
        cubes = micro_generator.simulator.simulate_sequence(meshes)
        assert np.isnan(cubes).any()
    assert FmcwRadarSimulator.simulate_sequence is original
    cubes = micro_generator.simulator.simulate_sequence(meshes)
    assert not np.isnan(cubes).any()


def test_nan_poisoned_simulator_trips_generation_guard(micro_generation_config):
    from repro.datasets import SampleGenerator

    generator = SampleGenerator(micro_generation_config, seed=5)
    with nan_poisoned_simulator(fraction=0.01):
        with pytest.raises(SimulationError, match="non-finite"):
            generator.generate_sample("push", 1.0, 0.0)


# ----------------------------------------------------------------------
# Trainer faults
# ----------------------------------------------------------------------
def test_diverging_loss_restores_cross_entropy():
    original = trainer_module.cross_entropy
    logits = Tensor(np.zeros((2, 3)), requires_grad=True)
    with diverging_loss(after_batches=0):
        assert trainer_module.cross_entropy is not original
        loss = trainer_module.cross_entropy(logits, np.array([0, 1]))
        assert not np.isfinite(loss.item())
    assert trainer_module.cross_entropy is original
    loss = trainer_module.cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss.item())


def test_diverging_loss_waits_for_threshold():
    logits = Tensor(np.zeros((2, 3)), requires_grad=True)
    labels = np.array([0, 1])
    with diverging_loss(after_batches=2):
        assert np.isfinite(trainer_module.cross_entropy(logits, labels).item())
        assert np.isfinite(trainer_module.cross_entropy(logits, labels).item())
        assert not np.isfinite(trainer_module.cross_entropy(logits, labels).item())


def test_failing_trainer_restores_clip_grad_norm():
    original = trainer_module.clip_grad_norm
    with failing_trainer(after_batches=0):
        assert trainer_module.clip_grad_norm is not original
        with pytest.raises(RuntimeError, match="injected mid-epoch"):
            trainer_module.clip_grad_norm([], 1.0)
    assert trainer_module.clip_grad_norm is original
