"""Acceptance pins: campaign cells == hand-written runner invocations.

The committed ``examples/campaigns/sec6d_tiny.toml`` run through the
campaign runner must produce per-cell deterministic metrics bit-identical
to calling the sec6d runner by hand with the same preset and seed — the
guarantee that re-expressing an experiment as a campaign changes nothing
about its results.
"""

from pathlib import Path

import pytest

from repro.campaigns import (
    EXPERIMENTS,
    CampaignRunner,
    cell_payload,
    load_campaign,
    parse_campaign,
)
from repro.campaigns import config as config_module
from repro.campaigns.config import config_digest, expand_cells
from repro.eval.experiments import ExperimentContext, run_simulator_throughput
from repro.eval.presets import preset_by_name

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "campaigns"


def test_sec6d_tiny_campaign_matches_hand_written_runner(tmp_path):
    config = load_campaign(EXAMPLES / "sec6d_tiny.toml")
    assert config.name == "sec6d-tiny"
    outcome = CampaignRunner(config, runs_dir=tmp_path).run()
    assert outcome.all_ok
    assert len(outcome.results) == 2

    for result in outcome.results:
        context = ExperimentContext(
            preset_by_name(result.preset), seed=result.seed,
            use_disk_cache=config.use_disk_cache,
        )
        expected = cell_payload(run_simulator_throughput(context))
        assert result.metrics == expected["metrics"]
        # Wall-clock quantities are reported but never pinned.
        assert set(result.measured) == set(expected["measured"])

    # The record carries the metrics and the config digest end to end.
    record_cells = {cell["key"]: cell for cell in outcome.record.cells}
    assert set(record_cells) == {r.key for r in outcome.results}
    assert outcome.record.config_digest == config_digest(config)


def test_serial_campaign_cells_do_not_share_state(tmp_path, monkeypatch):
    """fig9 after fig8 in one serial campaign == fig9 run alone.

    Each cell builds its own experiment context, so the surrogate and
    attack plans fig8 built cannot leak into fig9.
    """
    from ..test_cli import _micro_preset

    monkeypatch.setattr(
        config_module, "preset_by_name", lambda name: _micro_preset()
    )

    def run(name, experiments):
        config = parse_campaign({
            "campaign": name, "preset": "fast", "seeds": [0],
            "axes": {"experiment": experiments},
        })
        outcome = CampaignRunner(
            config, runs_dir=tmp_path / name,
            journal_path=tmp_path / f"{name}.jsonl",
        ).run()
        assert outcome.all_ok
        return {result.experiment: result.metrics for result in outcome.results}

    swept = run("swept", ["fig8", "fig9"])
    alone = run("alone", ["fig9"])
    assert swept["fig9"] == alone["fig9"]


def test_serial_cells_pool_their_work_with_unchanged_metrics(tmp_path, monkeypatch):
    """A serial campaign's cell spreads its dataset samples and victim
    fits over a pool as wide as the usable cores; fig8, fig9 and table1
    record the metrics the same experiments give in-process."""
    from repro.campaigns import runner as runner_module
    from repro.campaigns.runner import run_experiment
    from repro.datasets import generation
    from repro.eval import experiments
    from repro.runtime.pool import run_tasks

    from ..test_cli import _micro_preset

    monkeypatch.setattr(
        config_module, "preset_by_name", lambda name: _micro_preset()
    )
    monkeypatch.setattr(runner_module, "usable_cores", lambda: 2)
    widths = {"samples": [], "fits": []}

    def spy(kind):
        def run(tasks, config=None, on_result=None):
            widths[kind].append(config.workers)
            return run_tasks(tasks, config, on_result)

        return run

    monkeypatch.setattr(generation, "run_tasks", spy("samples"))
    monkeypatch.setattr(experiments, "run_tasks", spy("fits"))
    names = ["fig8", "fig9", "table1"]
    config = parse_campaign({
        "campaign": "pooled", "preset": "fast", "seeds": [0],
        "axes": {"experiment": names},
    })
    outcome = CampaignRunner(
        config, runs_dir=tmp_path, journal_path=tmp_path / "pooled.jsonl",
    ).run()
    assert outcome.all_ok
    assert widths["samples"] and set(widths["samples"]) == {2}
    assert widths["fits"] and set(widths["fits"]) == {2}
    for result in outcome.results:
        alone = run_experiment(
            result.experiment, _micro_preset(), 0, use_disk_cache=False,
            workers=1,
        )
        assert result.metrics == cell_payload(alone)["metrics"]


def test_all_toml_sweeps_every_experiment():
    config = load_campaign(EXAMPLES / "all.toml")
    assert dict(config.axes)["experiment"] == tuple(EXPERIMENTS)
    cells = expand_cells(config)
    assert [cell.experiment for cell in cells] == list(EXPERIMENTS)
    assert {(cell.preset, cell.seed) for cell in cells} == {("fast", 0)}


def test_campaign_results_reproducible_across_runs(tmp_path):
    config = load_campaign(EXAMPLES / "sec6d_tiny.toml")
    first = CampaignRunner(
        config, runs_dir=tmp_path / "a",
        journal_path=tmp_path / "a.jsonl",
    ).run()
    second = CampaignRunner(
        config, runs_dir=tmp_path / "b",
        journal_path=tmp_path / "b.jsonl",
    ).run()
    for cell_a, cell_b in zip(first.results, second.results):
        assert cell_a.key == cell_b.key
        assert cell_a.metrics == cell_b.metrics


#: Pinned digest prefixes of the committed examples.  Journals fingerprint
#: the digest, so an example whose digest drifts can no longer resume the
#: journals its earlier runs wrote.
EXAMPLE_DIGESTS = {
    "all.toml": "c9b54d405e62",
    "ci_smoke.toml": "5098caac1841",
    "sec6_attack_grid.toml": "1f70b8f85a26",
    "sec6_prototype.toml": "1da9e066c475",
    "sec6_robustness.toml": "55d2f92bafa2",
    "sec6d_tiny.toml": "a5cc7796b6e8",
    "sec7_defenses.toml": "f7d9bb2874c3",
}


@pytest.mark.parametrize("example", sorted(
    path.name for path in EXAMPLES.glob("*.toml")
))
def test_every_committed_example_validates(example):
    config = load_campaign(EXAMPLES / example)
    cells = expand_cells(config)
    assert cells, f"{example} expands to zero cells"
    assert config_digest(config)[:12] == EXAMPLE_DIGESTS[example]


def test_example_inventory_covers_paper_sections():
    names = {path.name for path in EXAMPLES.glob("*.toml")}
    assert {
        "sec6d_tiny.toml", "ci_smoke.toml", "sec6_prototype.toml",
        "sec6_attack_grid.toml", "sec6_robustness.toml",
        "sec7_defenses.toml",
    } <= names
