"""Tests for atomic campaign records and their listing/rendering."""

import json

import pytest

from repro.campaigns import (
    CAMPAIGN_RECORD_SCHEMA_VERSION,
    CampaignRecord,
    format_campaign_record,
    write_campaign_record,
)
from repro.runtime.records import (
    RunRecord,
    list_run_records,
    load_run_record,
    write_run_record,
)


def load_campaign_record(path):
    return load_run_record(path, CampaignRecord)


def _record(name="demo", **extra):
    fields = dict(
        name=name,
        config={"campaign": name},
        config_digest="deadbeef" * 8,
        cells=[{
            "key": "cell-0000-sec6d-s0", "experiment": "sec6d",
            "preset": "fast", "seed": 0, "status": "done",
            "wall_time_s": 1.25,
            "metrics": {"num_virtual_antennas": 16, "num_frames": 16},
            "measured": {"seconds_per_activity": 0.5},
        }],
        outcome={"status": "ok", "cells_total": 1, "cells_done": 1},
    )
    fields.update(extra)
    return CampaignRecord(**fields)


def test_write_load_roundtrip(tmp_path):
    record = _record()
    path = write_campaign_record(record, tmp_path)
    assert path.name.endswith("-campaign-demo.json")
    loaded = load_campaign_record(path)
    assert loaded.name == "demo"
    assert loaded.kind == "campaign"
    assert loaded.config_digest == record.config_digest
    assert loaded.cells == record.cells
    assert loaded.meta["git_sha"] == record.meta["git_sha"]
    assert loaded.meta["cpu_count"] == record.meta["cpu_count"]
    assert 1 <= loaded.meta["usable_cores"] <= loaded.meta["cpu_count"]
    assert loaded.meta["blas_threads"] == record.meta["blas_threads"]


def test_name_collisions_get_counter_suffix(tmp_path):
    record = _record()
    first = write_campaign_record(record, tmp_path)
    second = write_campaign_record(_record(timestamp=record.timestamp), tmp_path)
    assert first != second
    assert second.name.endswith(".1.json")


def test_load_refuses_foreign_kind(tmp_path):
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps({"kind": "run", "name": "x"}))
    with pytest.raises(ValueError, match="not a campaign record"):
        load_campaign_record(path)


def test_load_refuses_unknown_schema_version(tmp_path):
    payload = {"kind": "campaign", "name": "x", "schema_version": 99}
    path = tmp_path / "future.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="schema version"):
        load_campaign_record(path)
    assert CAMPAIGN_RECORD_SCHEMA_VERSION == 1


def test_listing_separates_campaigns_from_runs(tmp_path):
    write_campaign_record(_record(), tmp_path)
    run = write_run_record(RunRecord(name="fig7"), tmp_path)
    campaigns = list_run_records(tmp_path, kind="campaign")
    assert len(campaigns) == 1
    assert campaigns[0]["name"] == "demo"
    assert campaigns[0]["kind"] == "campaign"
    assert campaigns[0]["file"].endswith("-campaign-demo.json")
    # The generic lister sees both; the kind filter separates them.
    assert len(list_run_records(tmp_path)) == 2
    assert len(list_run_records(tmp_path, kind="run")) == 1
    # One loader reads both kinds, and refuses a kind it was not offered.
    both = (RunRecord, CampaignRecord)
    campaign = load_run_record(campaigns[0]["path"], *both)
    assert isinstance(campaign, CampaignRecord) and campaign.name == "demo"
    assert isinstance(load_run_record(run, *both), RunRecord)
    with pytest.raises(ValueError, match="not a run record"):
        load_run_record(campaigns[0]["path"])
    with pytest.raises(ValueError, match="not a campaign record"):
        load_campaign_record(run)


def test_format_renders_cell_table():
    text = format_campaign_record(_record())
    assert "campaign record: demo" in text
    assert "config digest deadbeef" in text
    assert "cell-0000-sec6d-s0" in text
    assert "antennas=16 0.500s/activity" in text


def test_format_failed_cell_shows_error():
    record = _record(cells=[{
        "key": "cell-0000-sec6d-s0", "experiment": "sec6d",
        "preset": "fast", "seed": 0, "status": "failed",
        "wall_time_s": 0.0, "error": "RuntimeError: boom",
    }], outcome={"status": "failed", "cells_total": 1})
    text = format_campaign_record(record)
    assert "RuntimeError: boom" in text
