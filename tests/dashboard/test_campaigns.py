"""Dashboard coverage for campaign records: data layer + HTTP routes."""

import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaigns import CampaignRecord, write_campaign_record
from repro.dashboard.cli import newest_campaign_journal
from repro.dashboard.data import DashboardData
from repro.dashboard.server import build_dashboard_server
from repro.runtime.records import RunRecord, write_run_record


def _record(name="dash", cells=None):
    return CampaignRecord(
        name=name,
        config={"campaign": name},
        config_digest="ab" * 32,
        cells=cells if cells is not None else [
            {"key": "cell-0000-fig8-s0", "experiment": "fig8", "seed": 0,
             "status": "done", "wall_time_s": 1.0,
             "metrics": {"accuracy": 0.9}},
            {"key": "cell-0001-fig8-s1", "experiment": "fig8", "seed": 1,
             "status": "failed", "wall_time_s": 0.5, "error": "boom"},
            {"key": "cell-0002-fig9-s0", "experiment": "fig9", "seed": 0,
             "status": "done", "wall_time_s": 2.0, "metrics": {}},
        ],
        outcome={"status": "failed", "cells_total": 3},
    )


@pytest.fixture()
def runs_dir(tmp_path):
    directory = tmp_path / "runs"
    directory.mkdir()
    return directory


def test_campaigns_listing_excludes_plain_runs(runs_dir):
    write_campaign_record(_record(), runs_dir)
    write_run_record(RunRecord(name="fig7"), runs_dir)
    data = DashboardData(runs_dir=runs_dir)
    rows = data.campaigns()
    assert [row["name"] for row in rows] == ["dash"]
    index = data.index()
    assert index["campaign_count"] == 1
    assert index["latest_campaign"]["name"] == "dash"
    assert index["run_count"] == 2  # generic count still sees both


def test_campaign_detail_builds_cell_matrix(runs_dir):
    path = write_campaign_record(_record(), runs_dir)
    data = DashboardData(runs_dir=runs_dir)
    detail = data.campaign_detail(path.name)
    matrix = detail["matrix"]
    assert matrix["rows"] == ["fig8", "fig9"]
    assert matrix["cols"] == [0, 1]
    assert matrix["cells"]["fig8|0"]["status"] == "done"
    assert matrix["cells"]["fig8|0"]["metrics"] == {"accuracy": 0.9}
    assert matrix["cells"]["fig8|1"]["error"] == "boom"
    assert "fig9|1" not in matrix["cells"]


def test_campaign_detail_refuses_plain_run_records(runs_dir):
    path = write_run_record(RunRecord(name="fig7"), runs_dir)
    data = DashboardData(runs_dir=runs_dir)
    assert data.campaign_detail(path.name) is None
    assert data.campaign_detail("../escape.json") is None


@pytest.fixture()
def server(runs_dir):
    instance = build_dashboard_server(port=0, runs_dir=runs_dir)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()


def _get(server, path):
    try:
        with urllib.request.urlopen(f"{server.url}{path}") as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_api_campaigns_routes(server, runs_dir):
    path = write_campaign_record(_record(), runs_dir)
    status, body = _get(server, "/api/campaigns?last=10")
    assert status == 200
    assert [row["name"] for row in body["campaigns"]] == ["dash"]

    status, body = _get(server, f"/api/campaigns/{path.name}")
    assert status == 200
    assert body["name"] == "dash"
    assert body["matrix"]["rows"] == ["fig8", "fig9"]

    status, body = _get(server, "/api/campaigns/nope.json")
    assert status == 404
    assert body["error"]["type"] == "NotFound"


def test_index_page_mentions_campaigns(server):
    with urllib.request.urlopen(f"{server.url}/") as response:
        html = response.read().decode()
    assert "campaigns" in html
    assert "/api/campaigns" in html


def test_journal_default_is_newest_campaign_journal(tmp_path):
    assert newest_campaign_journal(tmp_path) is None
    older = tmp_path / "campaign-a.jsonl"
    newer = tmp_path / "campaign-b.jsonl"
    other = tmp_path / "sweep-journal.jsonl"
    for mtime, path in enumerate((older, newer, other)):
        path.write_text("{}\n")
        os.utime(path, (1000 + mtime, 1000 + mtime))
    assert newest_campaign_journal(tmp_path) == newer
