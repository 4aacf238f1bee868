"""Tests for the campaign runner: cells -> pool -> journal -> record."""

import json

import pytest

from repro.campaigns import (
    CampaignRunner,
    Experiment,
    cell_payload,
    format_campaign_record,
    parse_campaign,
)
from repro.campaigns import runner as runner_module
from repro.runtime.backoff import RetryPolicy
from repro.runtime.journal import SweepJournal
from repro.runtime.pool import PoolConfig


@pytest.fixture()
def fast_pool():
    """Serial pool with no retries (failing stubs fail immediately)."""
    return PoolConfig(workers=1, retry=RetryPolicy(max_attempts=1))


def _config(**extra):
    data = {
        "campaign": "stub",
        "experiment": "sec6d",
        "seeds": [0, 1],
    }
    data.update(extra)
    return parse_campaign(data)


def _stub_ok(context):
    return {"metrics": {"seed": context.seed}, "measured": {"wall": 0.5}}


def _stub_boom(context):
    raise RuntimeError("cell exploded")


def test_run_serial_produces_record(tmp_path, monkeypatch, fast_pool):
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_ok)
    )
    runner = CampaignRunner(
        _config(), runs_dir=tmp_path, pool_config=fast_pool
    )
    outcome = runner.run()
    assert outcome.all_ok
    assert outcome.counts == {"done": 2, "failed": 0, "skipped": 0}
    assert [r.key for r in outcome.results] == [
        "cell-0000-sec6d-s0", "cell-0001-sec6d-s1",
    ]
    # Cell metrics flow through the stub: the campaign really resolved
    # per-cell seeds into the context.
    assert [r.metrics["seed"] for r in outcome.results] == [0, 1]
    assert outcome.record.outcome["status"] == "ok"
    assert outcome.record.outcome["cells_total"] == 2
    assert outcome.record_path.is_file()
    payload = json.loads(outcome.record_path.read_text())
    assert payload["kind"] == "campaign"
    assert payload["config_digest"] == outcome.record.config_digest


def test_journal_written_per_cell(tmp_path, monkeypatch, fast_pool):
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_ok)
    )
    journal_path = tmp_path / "journal.jsonl"
    runner = CampaignRunner(
        _config(), journal_path=journal_path, runs_dir=tmp_path,
        pool_config=fast_pool,
    )
    runner.run()
    lines = [json.loads(line) for line in journal_path.read_text().splitlines()]
    header, entries = lines[0], lines[1:]
    assert header["campaign"]["campaign"] == "stub"
    assert "config_digest" in header["campaign"]
    assert [entry["key"] for entry in entries] == [
        "cell-0000-sec6d-s0", "cell-0001-sec6d-s1",
    ]
    assert all(entry["status"] == "done" for entry in entries)
    assert entries[0]["payload"]["metrics"] == {"seed": 0}


def test_resume_skips_finished_cells(tmp_path, monkeypatch, fast_pool):
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_ok)
    )
    journal_path = tmp_path / "journal.jsonl"
    first = CampaignRunner(
        _config(), journal_path=journal_path, runs_dir=tmp_path,
        pool_config=fast_pool,
    )
    first.run()

    # Re-running with the journal must not invoke the runner again: a
    # stub that explodes proves every cell was replayed, not re-run.
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_boom)
    )
    second = CampaignRunner(
        _config(), journal_path=journal_path, runs_dir=tmp_path,
        pool_config=fast_pool,
    )
    outcome = second.run(resume=True)
    assert outcome.all_ok
    assert all(result.resumed for result in outcome.results)
    assert [r.metrics["seed"] for r in outcome.results] == [0, 1]
    # The journal still holds each cell exactly once.
    lines = journal_path.read_text().splitlines()
    keys = [json.loads(line).get("key") for line in lines[1:]]
    assert sorted(keys) == sorted(set(keys))


def test_partial_resume_runs_only_missing_cells(
    tmp_path, monkeypatch, fast_pool
):
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_ok)
    )
    journal_path = tmp_path / "journal.jsonl"
    config = _config(seeds=[0, 1, 2])
    first = CampaignRunner(
        config, journal_path=journal_path, runs_dir=tmp_path,
        pool_config=fast_pool,
    )
    first.run()
    # Drop the last cell's journal line to simulate a kill mid-sweep.
    lines = journal_path.read_text().splitlines()
    journal_path.write_text("\n".join(lines[:-1]) + "\n")

    calls = []

    def _counting(context):
        calls.append(context.seed)
        return _stub_ok(context)

    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _counting)
    )
    outcome = CampaignRunner(
        config, journal_path=journal_path, runs_dir=tmp_path,
        pool_config=fast_pool,
    ).run(resume=True)
    assert calls == [2]  # only the missing cell re-ran
    assert outcome.all_ok
    statuses = {r.key: r.resumed for r in outcome.results}
    assert statuses["cell-0000-sec6d-s0"] is True
    assert statuses["cell-0002-sec6d-s2"] is False


def test_max_failures_stops_dispatch(tmp_path, monkeypatch, fast_pool):
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_boom)
    )
    config = _config(seeds=[0, 1, 2, 3, 4, 5], stop={"max_failures": 1})
    outcome = CampaignRunner(
        config, runs_dir=tmp_path, pool_config=fast_pool
    ).run()
    assert outcome.stopped_early
    assert outcome.record.outcome["status"] == "stopped"
    counts = outcome.counts
    # The first wave (2 cells at workers=1) fails, then no new cells are
    # dispatched; the rest are recorded as skipped, never silently lost.
    assert counts["failed"] >= 1
    assert counts["skipped"] >= 1
    assert counts["done"] == 0
    assert sum(counts.values()) == 6
    skipped = [r for r in outcome.results if r.status == "skipped"]
    assert all("max_failures" in r.error for r in skipped)


def test_failed_cells_record_error(tmp_path, monkeypatch, fast_pool):
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_boom)
    )
    config = _config(seeds=[0])
    outcome = CampaignRunner(
        config, runs_dir=tmp_path, pool_config=fast_pool
    ).run()
    assert not outcome.all_ok
    result = outcome.results[0]
    assert result.status == "failed"
    assert "cell exploded" in result.error
    assert outcome.record.outcome["status"] == "failed"


def test_failed_cell_keeps_traceback(tmp_path, monkeypatch, fast_pool):
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_boom)
    )
    journal_path = tmp_path / "journal.jsonl"
    outcome = CampaignRunner(
        _config(seeds=[0]), journal_path=journal_path, runs_dir=tmp_path,
        pool_config=fast_pool,
    ).run()
    result = outcome.results[0]
    assert "Traceback" in result.traceback
    assert "in _stub_boom" in result.traceback
    # The traceback reaches the journal payload and the record...
    entry = json.loads(journal_path.read_text().splitlines()[1])
    assert entry["payload"]["traceback"] == result.traceback
    assert outcome.record.cells[0]["traceback"] == result.traceback
    # ...and the rendering prints it after the cell table.
    text = format_campaign_record(outcome.record)
    banner = text.index(f"--- traceback: {result.key} ---")
    assert text.index("cells:") < banner
    assert "RuntimeError: cell exploded" in text[banner:]


def test_record_follows_journal_when_interrupted_after_journaling(
    tmp_path, monkeypatch, fast_pool
):
    """An interrupt between the journal append and the runner collecting
    the cell must not record a journaled cell as skipped."""
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_ok)
    )
    original = SweepJournal.record

    def record_then_interrupt(self, *args, **kwargs):
        original(self, *args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(SweepJournal, "record", record_then_interrupt)
    outcome = CampaignRunner(
        _config(), runs_dir=tmp_path, pool_config=fast_pool
    ).run()
    assert outcome.interrupted
    assert [r.status for r in outcome.results] == ["done", "skipped"]
    assert outcome.results[0].metrics == {"seed": 0}


def test_cell_payload_passthrough_and_unknown():
    shaped = {"metrics": {"a": 1}, "measured": {"b": 2.0}}
    assert cell_payload(shaped) == shaped
    with pytest.raises(TypeError):
        cell_payload(object())


def _stub_width(context):
    return {"metrics": {"workers": context.workers}}


@pytest.mark.parametrize(("workers", "cell_width"), [(1, 3), (2, 1)])
def test_only_serial_cells_take_the_cores(tmp_path, monkeypatch, workers, cell_width):
    """A serial campaign's cell runs in this process and gets a pool as
    wide as the usable cores; a pooled campaign's cells run inside its
    workers and never start a pool of their own."""
    monkeypatch.setitem(
        runner_module.EXPERIMENTS, "sec6d", Experiment("stub", _stub_width)
    )
    monkeypatch.setattr(runner_module, "usable_cores", lambda: 3)
    outcome = CampaignRunner(_config(), runs_dir=tmp_path, workers=workers).run()
    assert outcome.all_ok
    assert [r.metrics["workers"] for r in outcome.results] == [cell_width] * 2
