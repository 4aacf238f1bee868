"""Tests for the command-line interface."""

import json

import pytest

from repro.campaigns import Experiment
from repro.cli import EXPERIMENTS, build_parser, main

from .faults import failing_experiment


def test_every_paper_experiment_registered():
    expected = {
        "fig3", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig13", "fig14", "fig15", "table1", "sec6d", "sec7",
        "spectral",
    }
    assert set(EXPERIMENTS) == expected


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "fig99"])


def test_parser_defaults():
    args = build_parser().parse_args(["run", "fig7"])
    assert args.preset == "fast"
    assert args.seed == 0
    assert not args.no_cache


def test_run_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _micro_preset():
    from repro.eval import FAST

    from .conftest import make_micro_generation_config

    return FAST.scaled(
        generation=make_micro_generation_config(),
        num_frames=8,
        samples_per_class=4,
        attacker_samples_per_class=4,
        epochs=1,
        repetitions=1,
        shap_samples=24,
        poisoned_frame_counts=(2, 4),
    )


def test_run_executes_experiment_end_to_end(capsys, monkeypatch, tmp_path):
    """`repro run sec6d` at a micro preset exercises the full CLI path."""
    import repro.cli as cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.setattr(cli, "preset_by_name", lambda name: _micro_preset())
    assert cli.main(["run", "sec6d", "--preset", "fast"]) == 0
    out = capsys.readouterr().out
    assert "sec6d" in out
    assert "IF simulation" in out
    assert "done in" in out
    # Every run leaves a run record behind, holding what it printed.
    records = list((tmp_path / "runs").glob("*-sec6d.json"))
    assert len(records) == 1
    payload = json.loads(records[0].read_text())["payload"]
    assert payload["metrics"]["num_virtual_antennas"] > 0
    assert payload["measured"]["seconds_per_activity"] > 0.0


def test_run_exports_trace_metrics_and_record(capsys, monkeypatch, tmp_path):
    """--trace/--metrics write valid artifacts; `stats` prints the record.

    fig7 generates a dataset (through the disk cache) and trains the victim
    model, so the trace must contain nested spans from the simulator,
    dataset, and trainer layers, and the metrics snapshot the cache and
    trainer instruments.
    """
    import repro.cli as cli

    runs_dir = tmp_path / "runs"
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.jsonl"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RUNS_DIR", str(runs_dir))
    monkeypatch.setattr(cli, "preset_by_name", lambda name: _micro_preset())
    assert cli.main([
        "run", "fig7", "--preset", "fast",
        "--trace", str(trace_path), "--metrics", str(metrics_path),
    ]) == 0
    capsys.readouterr()

    # --- Chrome trace: spans from every pipeline layer, some nested.
    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    names = {event["name"] for event in events}
    assert "simulate.sequence" in names  # simulator layer (batched path)
    assert "stage.dataset" in names  # dataset layer
    assert "train.fit" in names and "train.epoch" in names  # trainer layer
    assert "experiment.fig7" in names  # runner layer
    spans_by_name = {}
    for event in events:
        spans_by_name.setdefault(event["name"], event)
    # Nesting: a simulate span lies inside the dataset stage span.
    outer = spans_by_name["stage.dataset"]
    inner = spans_by_name["simulate.sequence"]
    assert outer["ts"] <= inner["ts"] <= outer["ts"] + outer["dur"]

    # --- Metrics JSONL: cache + trainer instruments present.
    entries = {
        entry["name"]: entry
        for entry in map(json.loads, metrics_path.read_text().splitlines())
    }
    assert entries["cache.miss"]["value"] == 1
    assert entries["trainer.samples_processed"]["value"] > 0
    assert entries["trainer.samples_per_s"]["type"] == "gauge"
    assert entries["trainer.grad_norm"]["type"] == "histogram"
    assert entries["trainer.grad_norm"]["count"] > 0

    # --- Run record: written, loadable, and surfaced by `repro stats`.
    from repro.runtime.records import latest_run_record_path, load_run_record

    record = load_run_record(latest_run_record_path(runs_dir))
    assert record.name == "fig7"
    assert record.config["preset"] == "fast"
    assert record.outcome["status"] == "ok"
    assert "train.fit" in record.spans
    assert "cache.miss" in record.metrics
    assert cli.main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "run record: fig7" in out
    assert "ok (1/1 experiments ok)" in out


def test_run_record_payload_equals_the_campaign_cell(
    capsys, monkeypatch, tmp_path
):
    """`repro run` records the same ``{metrics, measured}`` payload as a
    campaign cell of the same experiment, preset and seed."""
    import repro.cli as cli
    from repro.campaigns import CampaignRunner, parse_campaign
    from repro.campaigns import config as config_module
    from repro.runtime.records import latest_run_record_path, load_run_record

    monkeypatch.setattr(cli, "preset_by_name", lambda name: _micro_preset())
    monkeypatch.setattr(
        config_module, "preset_by_name", lambda name: _micro_preset()
    )
    runs_dir = tmp_path / "runs"
    assert cli.main([
        "run", "fig7", "--seed", "1", "--runs-dir", str(runs_dir),
    ]) == 0
    assert "Clean prototype accuracy" in capsys.readouterr().out
    record = load_run_record(latest_run_record_path(runs_dir))

    config = parse_campaign({
        "campaign": "twin", "preset": "fast", "experiment": "fig7",
        "seeds": [1],
    })
    outcome = CampaignRunner(
        config, runs_dir=tmp_path / "campaign",
        journal_path=tmp_path / "twin.jsonl",
    ).run()
    (cell,) = outcome.results
    assert cell.status == "done"
    assert record.payload["metrics"] == cell.metrics
    assert record.payload == {"metrics": cell.metrics, "measured": cell.measured}
    assert cell.metrics["confusion"]


def test_run_failure_still_writes_record(capsys, monkeypatch, tmp_path):
    import repro.cli as cli

    runs_dir = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(runs_dir))
    monkeypatch.setattr(cli, "preset_by_name", lambda name: _micro_preset())
    monkeypatch.setitem(
        cli.EXPERIMENTS, "fig7",
        Experiment("doomed", lambda ctx: (_ for _ in ()).throw(ValueError("boom"))),
    )
    assert cli.main(["run", "fig7"]) == 1
    from repro.runtime.records import latest_run_record_path, load_run_record

    record = load_run_record(latest_run_record_path(runs_dir))
    assert record.outcome["status"] == "failed"
    assert "ValueError" in record.outcome["error"]
    assert record.payload == {}


def test_stats_without_records_errors(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "empty"))
    assert main(["stats"]) == 1


def test_parser_accepts_observability_flags():
    args = build_parser().parse_args([
        "--log-timestamps", "run", "fig7",
        "--trace", "t.json", "--metrics", "m.jsonl", "--runs-dir", "r",
    ])
    assert args.log_timestamps
    assert args.trace == "t.json"
    assert args.metrics == "m.jsonl"
    assert args.runs_dir == "r"


@pytest.fixture()
def stub_experiments(monkeypatch):
    """Add three instant stubs to the experiment table."""
    for name in ("stub1", "stub2", "stub3"):
        monkeypatch.setitem(EXPERIMENTS, name, Experiment(
            f"{name} description",
            lambda ctx, name=name: {"metrics": {"rows": f"{name} rows"}},
            lambda result: result["metrics"]["rows"],
        ))
    return EXPERIMENTS


def test_single_failing_experiment_exits_nonzero(stub_experiments, capsys):
    with failing_experiment(stub_experiments, "stub2"):
        assert main(["run", "stub2"]) == 1
    captured = capsys.readouterr()
    assert "injected experiment fault" in captured.err


def test_single_experiment_success_exits_zero(stub_experiments, capsys):
    assert main(["run", "stub3"]) == 0
    assert "stub3 rows" in capsys.readouterr().out


def test_verbosity_flags_parse(stub_experiments):
    assert main(["-v", "run", "stub1"]) == 0
    assert main(["-q", "run", "stub1"]) == 0


def test_run_spreads_over_the_usable_cores(monkeypatch, capsys):
    """`repro run` gives its context a pool as wide as the usable cores;
    there is no flag for it, since the output is the same at any width."""
    import repro.cli as cli

    monkeypatch.setattr(cli, "usable_cores", lambda: 3)
    monkeypatch.setitem(EXPERIMENTS, "stub", Experiment(
        "width", lambda ctx: {"metrics": {"workers": ctx.workers}},
        lambda result: f"workers={result['metrics']['workers']}",
    ))
    assert main(["run", "stub"]) == 0
    assert "workers=3" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig7", "--workers", "2"])
