"""Dashboard data layer: runs index, bench trajectory/diff, journal tail."""

from __future__ import annotations

import json

import pytest

from repro.dashboard.data import DashboardData
from repro.runtime.records import RunRecord, write_run_record

STAGE_NAMES = (
    "simulator.sequence",
    "process.drai_sequence",
    "sample.end_to_end",
    "train.epoch",
    "serve.engine",
    "serve.fleet",
    "attack.placement_scoring",
)


def bench_payload(sha="abc1234", preset="tiny", base_s=0.5, version=4):
    """A minimal loadable bench result (not full-schema, loader-valid)."""
    stages = {
        name: {
            "repeats": 2,
            "min_s": base_s * (index + 1),
            "mean_s": base_s * (index + 1) * 1.1,
            "max_s": base_s * (index + 1) * 1.2,
        }
        for index, name in enumerate(STAGE_NAMES)
    }
    payload = {
        "schema_version": version,
        "generated_utc": "2026-08-08T00:00:00+00:00",
        "preset": {"name": preset, "num_frames": 6},
        "machine": {"cpu_count": 4},
        "stages": stages,
        "throughput": {"samples_per_s": 1.0 / base_s},
        "speedup": {"simulate": 3.0, "drai": 2.0, "end_to_end": 2.5},
        "fleet": {"replicas": 3, "scaling": 2.2},
    }
    if version >= 4:
        payload["meta"] = {
            "git_sha": sha,
            "date": "2026-08-08",
            "cpu_count": 4,
            "hostname": "host",
            "preset": preset,
        }
    return payload


def _record(name, timestamp, status="ok"):
    return RunRecord(
        name=name,
        timestamp=timestamp,
        outcome={"status": status},
        git_revision="abc1234",
    )


@pytest.fixture()
def populated(tmp_path):
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    write_run_record(_record("fig7", "20260101T000000"), runs_dir)
    write_run_record(_record("fig8", "20260102T000000", "failed"), runs_dir)
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "BENCH_2026-08-01.json").write_text(
        json.dumps(bench_payload(sha="old0000", base_s=1.0))
    )
    (bench_dir / "BENCH_2026-08-08.json").write_text(
        json.dumps(bench_payload(sha="new0000", base_s=0.5))
    )
    journal = tmp_path / "sweep-journal.jsonl"
    journal.write_text(
        json.dumps({"key": "fig7", "status": "done", "attempts": 1}) + "\n"
        + json.dumps({"key": "fig8", "status": "failed", "attempts": 2}) + "\n"
    )
    return DashboardData(
        runs_dir=runs_dir, bench_dir=bench_dir, journal_path=journal
    )


def test_index_summarizes_everything(populated):
    index = populated.index()
    assert index["run_count"] == 2
    assert index["latest_run"]["name"] == "fig8"
    assert index["bench_files"] == [
        "BENCH_2026-08-01.json", "BENCH_2026-08-08.json",
    ]
    assert index["server_url"] is None


def test_runs_filtering(populated):
    assert [r["name"] for r in populated.runs()] == ["fig7", "fig8"]
    assert [r["name"] for r in populated.runs(status="failed")] == ["fig8"]
    assert [r["name"] for r in populated.runs(name="fig7")] == ["fig7"]
    assert [r["name"] for r in populated.runs(last=1)] == ["fig8"]


def test_run_detail_and_traversal_rejection(populated):
    listing = populated.runs()
    detail = populated.run_detail(listing[0]["file"])
    assert detail["name"] == "fig7"
    assert populated.run_detail("nope.json") is None
    assert populated.run_detail("../secrets.json") is None
    assert populated.run_detail("sub/dir.json") is None
    assert populated.run_detail(".hidden.json") is None
    assert populated.run_detail("not-json.txt") is None


def test_bench_trajectory_points(populated):
    trajectory = populated.bench_trajectory()
    assert trajectory["skipped"] == []
    points = trajectory["points"]
    assert [p["meta"]["git_sha"] for p in points] == ["old0000", "new0000"]
    assert points[0]["stages_min_s"]["simulator.sequence"] == 1.0
    assert points[1]["samples_per_s"] == pytest.approx(2.0)
    # Only the charted stages are projected into the point.
    assert "attack.placement_scoring" not in points[0]["stages_min_s"]


def test_bench_trajectory_tolerates_bad_files(populated):
    (populated.bench_dir / "BENCH_broken.json").write_text("{not json")
    (populated.bench_dir / "BENCH_old.json").write_text(
        json.dumps({"schema_version": 1})
    )
    trajectory = populated.bench_trajectory()
    assert len(trajectory["points"]) == 2
    assert {entry["file"] for entry in trajectory["skipped"]} == {
        "BENCH_broken.json", "BENCH_old.json",
    }


def test_bench_trajectory_loads_v3_files(populated):
    (populated.bench_dir / "BENCH_2026-07-01.json").write_text(
        json.dumps(bench_payload(base_s=2.0, version=3))
    )
    points = populated.bench_trajectory()["points"]
    legacy = [p for p in points if p["file"] == "BENCH_2026-07-01.json"][0]
    assert legacy["meta"]["git_sha"] == "unknown"
    assert legacy["meta"]["preset"] == "tiny"


def test_bench_diff(populated):
    diff = populated.bench_diff(
        "BENCH_2026-08-01.json", "BENCH_2026-08-08.json"
    )
    assert diff["a"]["meta"]["git_sha"] == "old0000"
    assert diff["b"]["meta"]["git_sha"] == "new0000"
    entry = diff["stages"]["simulator.sequence"]
    assert entry["a_min_s"] == 1.0 and entry["b_min_s"] == 0.5
    assert entry["delta_s"] == pytest.approx(-0.5)
    assert entry["ratio"] == pytest.approx(0.5)
    assert diff["only_in_a"] == [] and diff["only_in_b"] == []


def test_bench_diff_rejects_bad_filenames(populated):
    with pytest.raises(ValueError, match="no such bench file"):
        populated.bench_diff("BENCH_2026-08-01.json", "BENCH_missing.json")
    with pytest.raises(ValueError, match="bare filenames"):
        populated.bench_diff("../BENCH_2026-08-01.json", "BENCH_2026-08-08.json")


def test_journal_tail_and_offsets(populated):
    tail = populated.journal_tail()
    assert [e["key"] for e in tail["entries"]] == ["fig7", "fig8"]
    assert tail["done"] == 1 and tail["failed"] == 1
    assert tail["next_offset"] == 2
    # Poll again from next_offset: nothing new.
    again = populated.journal_tail(tail["next_offset"])
    assert again["entries"] == [] and again["next_offset"] == 2
    # New line appended -> only the new entry comes back.
    with open(populated.journal_path, "a") as handle:
        handle.write(json.dumps({"key": "fig9", "status": "done"}) + "\n")
    fresh = populated.journal_tail(tail["next_offset"])
    assert [e["key"] for e in fresh["entries"]] == ["fig9"]
    assert fresh["next_offset"] == 3


def test_journal_tail_stops_at_torn_line(populated):
    with open(populated.journal_path, "a") as handle:
        handle.write('{"key": "fig9", "status"')  # writer mid-append
    tail = populated.journal_tail()
    assert [e["key"] for e in tail["entries"]] == ["fig7", "fig8"]
    # The torn line is not consumed; the next poll retries it.
    assert tail["next_offset"] == 2


def test_journal_tail_skips_mid_file_garbage(populated):
    with open(populated.journal_path, "a") as handle:
        handle.write("not json at all\n")
        handle.write(json.dumps({"key": "fig9", "status": "done"}) + "\n")
    tail = populated.journal_tail()
    assert [e["key"] for e in tail["entries"]] == ["fig7", "fig8", "fig9"]
    assert tail["next_offset"] == 4
    # A poll from past the first two entries also gets past the garbage.
    again = populated.journal_tail(2)
    assert [e["key"] for e in again["entries"]] == ["fig9"]
    assert again["next_offset"] == 4


def test_journal_tail_skips_lines_that_are_not_objects(populated):
    with open(populated.journal_path, "a") as handle:
        handle.write("12\n")
        handle.write(json.dumps({"key": "fig9", "status": "done"}) + "\n")
        handle.write("[]")  # unterminated: left for the next poll
    tail = populated.journal_tail()
    assert [e["key"] for e in tail["entries"]] == ["fig7", "fig8", "fig9"]
    assert tail["done"] == 2 and tail["next_offset"] == 4


def test_journal_tail_missing_file(tmp_path):
    data = DashboardData(journal_path=tmp_path / "absent.jsonl")
    tail = data.journal_tail()
    assert tail == {"entries": [], "next_offset": 0, "exists": False}
    assert DashboardData().journal_tail()["exists"] is False


def test_fleet_metrics_requires_configuration(populated):
    with pytest.raises(ConnectionError, match="no --server-url"):
        populated.fleet_metrics()


def test_fleet_metrics_unreachable_server(tmp_path):
    data = DashboardData(server_url="http://127.0.0.1:1")
    with pytest.raises(ConnectionError, match="fleet metrics fetch"):
        data.fleet_metrics(timeout_s=0.5)
