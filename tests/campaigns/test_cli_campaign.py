"""Tests for the ``repro campaign`` CLI verbs and stats integration."""

import pytest

import repro.cli as cli
from repro.campaigns import Experiment
from repro.campaigns import runner as runner_module


def _write_config(tmp_path, name="cli-demo", seeds="[0, 1]"):
    path = tmp_path / "campaign.toml"
    path.write_text(
        f'campaign = "{name}"\n'
        'preset = "fast"\n'
        'experiment = "sec6d"\n'
        f"seeds = {seeds}\n"
    )
    return path


def _stub_ok(context):
    return {"metrics": {"seed": context.seed}, "measured": {}}


# -- validate -----------------------------------------------------------

def test_validate_accepts_good_config(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert cli.main(["campaign", "validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "campaign cli-demo: valid" in out
    assert "config digest" in out
    assert "cells         2" in out
    assert "cell-0000-sec6d-s0" in out


def test_validate_rejects_bad_config_with_field_paths(tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text(
        'campaign = "bad"\n'
        'experiment = "sec6d"\n'
        "wat = 1\n"
        "[axes]\n"
        "seed = 3\n"
    )
    assert cli.main(["campaign", "validate", str(path)]) == 2
    logged = capsys.readouterr().err
    assert "wat: unknown key" in logged
    assert "axes.seed: must be a list" in logged


@pytest.mark.parametrize("name, text", [
    pytest.param(
        "unclosed.toml", 'campaign = "demo"\n[axes]\nexperiment = ["fig8"\n',
        id="malformed-toml",
    ),
    # A config in the YAML layout, which the loader does not read.
    pytest.param(
        "sec6d_tiny.yaml",
        "campaign: sec6d-tiny\npreset: fast\nexperiment: sec6d\nseeds: [0, 1]\n",
        id="yaml-config",
    ),
    pytest.param(
        "unclosed.yaml", "campaign: demo\naxes: [fig8\n", id="malformed-yaml",
    ),
])
def test_validate_rejects_unparseable_config_without_traceback(
    tmp_path, capsys, name, text
):
    path = tmp_path / name
    path.write_text(text)
    assert cli.main(["campaign", "validate", str(path)]) == 2
    logged = capsys.readouterr().err
    assert str(path) in logged
    assert "TOML parse error" in logged
    assert "Traceback" not in logged


def test_validate_rejects_empty_grid(tmp_path):
    path = tmp_path / "empty.toml"
    path.write_text('campaign = "empty"\n')
    assert cli.main(["campaign", "validate", str(path)]) == 2


# -- run / stats --------------------------------------------------------

def test_run_list_show_and_stats_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_ok)
    )
    runs_dir = tmp_path / "runs"
    path = _write_config(tmp_path)
    assert cli.main([
        "campaign", "run", str(path), "--runs-dir", str(runs_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "campaign record: cli-demo" in out
    assert "campaign cli-demo: ok (done=2 failed=0 skipped=0)" in out
    records = list(runs_dir.glob("*-campaign-cli-demo.json"))
    assert len(records) == 1

    # `repro stats` is the one viewer: --list --campaign lists campaign
    # records, a PATH shows that record, and no PATH shows the newest.
    assert cli.main([
        "stats", "--list", "--campaign", "--runs-dir", str(runs_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "cli-demo" in out and "campaign" in out

    assert cli.main(["stats", str(records[0])]) == 0
    out = capsys.readouterr().out
    assert "campaign record: cli-demo" in out
    assert "cell-0001-sec6d-s1" in out

    monkeypatch.setenv("REPRO_RUNS_DIR", str(runs_dir))
    assert cli.main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "campaign record: cli-demo" in out


def test_stats_campaign_filter_excludes_runs(tmp_path, capsys, monkeypatch):
    from repro.runtime.records import RunRecord, write_run_record

    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_ok)
    )
    runs_dir = tmp_path / "runs"
    path = _write_config(tmp_path, seeds="[0]")
    assert cli.main([
        "campaign", "run", str(path), "--runs-dir", str(runs_dir),
    ]) == 0
    write_run_record(RunRecord(name="fig7"), runs_dir)
    capsys.readouterr()

    monkeypatch.setenv("REPRO_RUNS_DIR", str(runs_dir))
    assert cli.main(["stats", "--list"]) == 0
    assert "fig7" in capsys.readouterr().out
    assert cli.main(["stats", "--list", "--campaign"]) == 0
    out = capsys.readouterr().out
    assert "cli-demo" in out
    assert "fig7" not in out


def test_run_failure_exit_code(tmp_path, capsys, monkeypatch):
    def _boom(context):
        raise RuntimeError("boom")

    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _boom)
    )
    runs_dir = tmp_path / "runs"
    path = _write_config(tmp_path, seeds="[0]")
    assert cli.main([
        "campaign", "run", str(path), "--runs-dir", str(runs_dir),
    ]) == 1
    out = capsys.readouterr().out
    assert "failed=1" in out
    # A record is still written for the failed campaign.
    assert len(list(runs_dir.glob("*-campaign-cli-demo.json"))) == 1


# -- satellite: journal fingerprint mismatch ----------------------------

def test_journal_mismatch_names_digest_and_suggests_fresh_journal(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_ok)
    )
    runs_dir = tmp_path / "runs"
    journal = tmp_path / "journal.jsonl"
    first = _write_config(tmp_path, seeds="[0]")
    assert cli.main([
        "campaign", "run", str(first), "--runs-dir", str(runs_dir),
        "--journal", str(journal),
    ]) == 0
    capsys.readouterr()

    # Same journal, edited grid: the config digest differs, so resuming
    # must refuse and the error must say which key differs and what to do.
    second = _write_config(tmp_path, seeds="[0, 1]")
    assert cli.main([
        "campaign", "run", str(second), "--runs-dir", str(runs_dir),
        "--journal", str(journal), "--resume",
    ]) == 2
    logged = capsys.readouterr().err
    assert "campaign mismatch" in logged
    assert "config_digest" in logged
    assert "belongs to a different campaign config" in logged
    assert "--journal" in logged
    assert "fresh-path" in logged or "fresh" in logged


def test_unreadable_journal_logs_its_cause_not_a_mismatch(tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    journal.write_text("")
    path = _write_config(tmp_path, seeds="[0]")
    assert cli.main([
        "campaign", "run", str(path), "--runs-dir", str(tmp_path / "runs"),
        "--journal", str(journal), "--resume",
    ]) == 2
    logged = capsys.readouterr().err
    assert "missing journal header line" in logged
    assert "--journal <fresh-path>" in logged
    assert "different campaign" not in logged


def test_show_missing_record_errors(tmp_path, capsys):
    assert cli.main(["stats", "--runs-dir", str(tmp_path)]) == 1
    assert cli.main(["stats", str(tmp_path / "missing.json")]) == 1
    assert "cannot read record" in capsys.readouterr().err


def test_list_empty_runs_dir_exit_code(tmp_path, capsys):
    assert cli.main([
        "stats", "--list", "--campaign", "--runs-dir", str(tmp_path),
    ]) == 1
    assert "no run records found" in capsys.readouterr().out


def test_run_rejects_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text('campaign = "bad"\nexperiment = "fig99"\n')
    assert cli.main(["campaign", "run", str(path)]) == 2
    assert "unknown experiment 'fig99'" in capsys.readouterr().err


def test_run_rejects_bad_workers(tmp_path):
    path = _write_config(tmp_path)
    assert cli.main([
        "campaign", "run", str(path), "--workers", "0",
    ]) == 2


def test_campaign_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["campaign"])
