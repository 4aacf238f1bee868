"""Integration tests for the experiment context and runners (micro scale)."""

import numpy as np
import pytest

from repro.datasets import SIMILAR_SCENARIOS
from repro.eval import FAST, ExperimentContext, run_clean_prototype, run_simulator_throughput
from repro.eval.experiments import run_heatmap_stealth, run_injection_rate_sweep

from ..conftest import make_micro_generation_config

MICRO_PRESET = FAST.scaled(
    generation=make_micro_generation_config(),
    num_frames=8,
    samples_per_class=4,
    attacker_samples_per_class=4,
    epochs=2,
    patience=2,
    repetitions=1,
    num_attack_samples=4,
    shap_samples=24,
    num_shap_executions=1,
    injection_rates=(0.5,),
    poisoned_frame_counts=(2, 4),
)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    import os

    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    return ExperimentContext(MICRO_PRESET, seed=0)


def test_generators_use_distinct_environments(ctx):
    assert ctx.train_generator is not ctx.attack_generator
    train_env = ctx.train_generator._environment_facets
    attack_env = ctx.attack_generator._environment_facets
    if train_env and attack_env:
        assert train_env[0].delays.sum() != attack_env[0].delays.sum()


def test_clean_splits_are_disjoint_and_complete(ctx):
    total = len(ctx.clean_train) + len(ctx.clean_test)
    assert total == 6 * MICRO_PRESET.samples_per_class


def test_datasets_cached_across_instances(ctx):
    other = ExperimentContext(MICRO_PRESET, seed=0)
    assert np.allclose(other.clean_train.x, ctx.clean_train.x)


def test_surrogate_is_memoized(ctx):
    assert ctx.surrogate is ctx.surrogate


def test_attack_plan_memoized(ctx):
    scenario = SIMILAR_SCENARIOS[0]
    plan_a = ctx.attack_plan(scenario, num_poisoned_frames=2)
    plan_b = ctx.attack_plan(scenario, num_poisoned_frames=2)
    assert plan_a is plan_b
    assert plan_a.frame_indices.shape == (2,)


def test_run_clean_prototype(ctx):
    result = run_clean_prototype(ctx)
    assert 0.0 <= result.accuracy <= 1.0
    assert result.confusion.shape == (6, 6)
    assert result.confusion.sum() == len(ctx.clean_test)


def test_run_heatmap_stealth(ctx):
    result = run_heatmap_stealth(ctx)
    assert result.deviation["l2"] > 0.0
    assert 0.0 < result.deviation["max_abs"] <= 1.0  # heatmaps are in [0, 1]


def test_run_injection_rate_sweep_structure(ctx):
    sweep = run_injection_rate_sweep(
        ctx, (SIMILAR_SCENARIOS[0],), num_poisoned_frames=2, rates=(0.5,)
    )
    assert sweep.parameter_values == (0.5,)
    metrics = sweep.curves["push->pull"][0]
    assert 0.0 <= metrics.asr <= 1.0
    assert metrics.uasr >= metrics.asr - 1e-9


def test_run_simulator_throughput(ctx):
    result = run_simulator_throughput(ctx)
    assert result.seconds_per_activity > 0.0
    assert result.seconds_per_pair_activity < result.seconds_per_activity
    assert result.num_frames == MICRO_PRESET.num_frames


def _diverging_fit(*args):
    raise FloatingPointError("loss diverged")


def test_a_failed_victim_fit_raises_at_any_width(monkeypatch):
    """In-process, a fit's own exception propagates; over a pool, a fit
    that fails after its retries fails the sweep with the first error."""
    from repro.eval import experiments
    from repro.runtime.errors import ReproError

    monkeypatch.setattr(experiments, "_fit_and_score", _diverging_fit)
    fits = [("args",), ("args",)]
    with pytest.raises(FloatingPointError, match="loss diverged"):
        experiments._fit_all(fits, width=1)
    with pytest.raises(ReproError, match="2/2 victim fits failed.*loss diverged"):
        experiments._fit_all(fits, width=2)
