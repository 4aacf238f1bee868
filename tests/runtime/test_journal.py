"""SweepJournal: crash-safe checkpoints, resume, and campaign guards."""

import json

import pytest

from repro.runtime.errors import JournalError
from repro.runtime.journal import JOURNAL_VERSION, SweepJournal

CAMPAIGN = {"preset": "fast", "seed": 0, "experiments": ["a", "b"]}


def test_fresh_journal_writes_header(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN):
        pass
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["journal_version"] == JOURNAL_VERSION
    assert header["campaign"] == CAMPAIGN


def test_record_and_resume_roundtrip(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN) as journal:
        journal.record("a", "done", payload={"rows": 3}, attempts=2, wall_time_s=1.5)
        journal.record("b", "failed", payload={"error": "boom"})

    resumed = SweepJournal.open(path, CAMPAIGN, resume=True)
    try:
        assert resumed.completed_keys() == {"a"}
        entry = resumed.entry("a")
        assert entry["attempts"] == 2
        assert entry["wall_time_s"] == pytest.approx(1.5)
        assert entry["payload"] == {"rows": 3}
        # Failed units are NOT skipped on resume: they re-run.
        assert resumed.entry("b")["status"] == "failed"
    finally:
        resumed.close()


def test_latest_entry_wins(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN) as journal:
        journal.record("a", "failed")
        journal.record("a", "done")
    resumed = SweepJournal.open(path, CAMPAIGN, resume=True)
    try:
        assert resumed.completed_keys() == {"a"}
    finally:
        resumed.close()


def test_fresh_open_truncates_existing(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN) as journal:
        journal.record("a", "done")
    with SweepJournal.open(path, CAMPAIGN) as journal:
        assert journal.completed_keys() == set()
    assert len(path.read_text().splitlines()) == 1  # header only


def test_campaign_mismatch_refuses_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN):
        pass
    with pytest.raises(JournalError, match="campaign mismatch"):
        SweepJournal.open(path, {**CAMPAIGN, "seed": 1}, resume=True)


def test_version_mismatch_refuses_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    path.write_text(json.dumps({"journal_version": 999, "campaign": CAMPAIGN}) + "\n")
    with pytest.raises(JournalError, match="version"):
        SweepJournal.open(path, CAMPAIGN, resume=True)


def test_torn_final_line_is_ignored(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN) as journal:
        journal.record("a", "done")
        journal.record("b", "done")
    # Simulate a crash mid-append: the final line is half-written JSON.
    with open(path, "a") as handle:
        handle.write('{"key": "c", "status": "do')
    resumed = SweepJournal.open(path, CAMPAIGN, resume=True)
    try:
        assert resumed.completed_keys() == {"a", "b"}
    finally:
        resumed.close()


def test_records_after_a_torn_line_survive_the_next_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN) as journal:
        journal.record("a", "done")
        journal.record("b", "done")
    with open(path, "a") as handle:
        handle.write('{"key": "c", "status": "do')
    with SweepJournal.open(path, CAMPAIGN, resume=True) as journal:
        journal.record("c", "done")
        journal.record("d", "done")
    resumed = SweepJournal.open(path, CAMPAIGN, resume=True)
    try:
        assert resumed.completed_keys() == {"a", "b", "c", "d"}
    finally:
        resumed.close()
    assert all(json.loads(line) for line in path.read_text().splitlines())


def test_an_unterminated_whole_record_is_kept(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN) as journal:
        journal.record("a", "done")
    with open(path, "a") as handle:
        handle.write(json.dumps({"key": "b", "status": "done"}))  # no newline
    with SweepJournal.open(path, CAMPAIGN, resume=True) as journal:
        assert journal.completed_keys() == {"a", "b"}
        journal.record("c", "done")
    resumed = SweepJournal.open(path, CAMPAIGN, resume=True)
    try:
        assert resumed.completed_keys() == {"a", "b", "c"}
    finally:
        resumed.close()


def test_mid_file_garbage_is_skipped(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN) as journal:
        journal.record("a", "done")
    lines = path.read_text().splitlines()
    lines.insert(1, "not json at all")
    path.write_text("\n".join(lines) + "\n")
    resumed = SweepJournal.open(path, CAMPAIGN, resume=True)
    try:
        assert resumed.completed_keys() == {"a"}
    finally:
        resumed.close()


@pytest.mark.parametrize("line", ["12", "[]", '"done"', "null"])
def test_a_line_that_is_json_but_not_an_object_is_skipped(tmp_path, line):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN) as journal:
        journal.record("a", "done")
    lines = path.read_text().splitlines()
    lines.insert(1, line)
    path.write_text("\n".join(lines) + "\n")
    with SweepJournal.open(path, CAMPAIGN, resume=True) as resumed:
        assert resumed.completed_keys() == {"a"}


def test_an_unterminated_last_line_that_is_not_an_object_is_dropped(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN) as journal:
        journal.record("a", "done")
    with open(path, "a") as handle:
        handle.write("12")  # parses, but is no record
    with SweepJournal.open(path, CAMPAIGN, resume=True) as journal:
        journal.record("b", "done")
    with SweepJournal.open(path, CAMPAIGN, resume=True) as resumed:
        assert resumed.completed_keys() == {"a", "b"}
    assert all(
        isinstance(json.loads(line), dict) for line in path.read_text().splitlines()
    )


def test_missing_header_refuses_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    path.write_text(json.dumps({"key": "a", "status": "done"}) + "\n")
    with pytest.raises(JournalError, match="header"):
        SweepJournal.open(path, CAMPAIGN, resume=True)


def test_resume_missing_file_starts_fresh(tmp_path):
    path = tmp_path / "nested" / "sweep.jsonl"
    with SweepJournal.open(path, CAMPAIGN, resume=True) as journal:
        journal.record("a", "done")
    assert path.exists()


def test_record_rejects_unknown_status(tmp_path):
    with SweepJournal.open(tmp_path / "sweep.jsonl", CAMPAIGN) as journal:
        with pytest.raises(ValueError):
            journal.record("a", "maybe")


def test_append_after_close_raises(tmp_path):
    journal = SweepJournal.open(tmp_path / "sweep.jsonl", CAMPAIGN)
    journal.close()
    with pytest.raises(JournalError, match="closed"):
        journal.record("a", "done")


def test_records_written_counter(tmp_path):
    from repro.runtime.telemetry import metrics

    metrics().reset()
    with SweepJournal.open(tmp_path / "sweep.jsonl", CAMPAIGN) as journal:
        journal.record("a", "done")
        journal.record("b", "failed")
    assert metrics().counter("journal.records_written").value == 2
