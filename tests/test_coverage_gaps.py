"""Tests for paths the per-module suites leave untouched."""

import numpy as np
import pytest

from repro.datasets import SampleGenerator
from repro.nn import Linear, Module, Sequential, Tensor

from .conftest import make_micro_generation_config


# ----------------------------------------------------------------------
# nn.Module traversal corners
# ----------------------------------------------------------------------
def test_modules_traverses_lists(rng):
    class Holder(Module):
        def __init__(self):
            super().__init__()
            self.pieces = [Linear(2, 2, rng), Linear(2, 2, rng)]

        def forward(self, x):
            return x

    holder = Holder()
    modules = list(holder.modules())
    assert len(modules) == 3  # holder + two linears
    names = [name for name, _ in holder.named_parameters()]
    assert "pieces.0.weight" in names and "pieces.1.bias" in names


def test_empty_module_dtype_default():
    class Empty(Module):
        def forward(self, x):
            return x

    assert Empty().dtype == np.float64


def test_nested_sequential(rng):
    inner = Sequential(Linear(2, 2, rng))
    outer = Sequential(inner, Linear(2, 3, rng))
    out = outer(Tensor(np.zeros((1, 2))))
    assert out.shape == (1, 3)
    assert len(list(outer.named_parameters())) == 4


# ----------------------------------------------------------------------
# heatmap config corners
# ----------------------------------------------------------------------
def test_heatmap_finalize_without_compression(micro_generator):
    from dataclasses import replace

    config = replace(micro_generator.config.heatmap, log_scale=0.0)
    sample_cubes = micro_generator.generate_sample(
        "push", 1.0, 0.0, return_cubes=True
    )
    from repro.radar import drai_sequence

    heatmaps = drai_sequence(sample_cubes, config)
    assert heatmaps.max() == pytest.approx(1.0)  # plain peak normalization


def test_chirp_range_bin_rounds():
    from repro.radar import ChirpConfig

    chirp = ChirpConfig()
    resolution = chirp.range_resolution_m
    assert chirp.range_bin_for(resolution * 10.4) == 10
    assert chirp.range_bin_for(resolution * 10.6) == 11


# ----------------------------------------------------------------------
# generation with several participants
# ----------------------------------------------------------------------
def test_generation_multiple_participants():
    from dataclasses import replace

    config = replace(
        make_micro_generation_config(), participants=(0.9, 1.0, 1.1)
    )
    generator = SampleGenerator(config, seed=4)
    dataset = generator.generate_dataset(samples_per_class=4)
    participants = {meta.participant for meta in dataset.meta}
    assert participants <= {0, 1, 2}
    assert len(participants) >= 2  # randomization actually mixes people


# ----------------------------------------------------------------------
# consensus with ties
# ----------------------------------------------------------------------
def test_consensus_top_k_with_ties():
    from repro.xai import FrameImportanceResult

    shap_values = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    tops = np.array([[0, 1], [1, 2]])
    result = FrameImportanceResult(shap_values=shap_values, top_frames=tops, k=2)
    consensus = result.consensus_top_k()
    assert 1 in consensus  # the frame both samples agree on always wins
