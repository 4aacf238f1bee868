"""Chaos suite: campaigns under worker crashes and delivered signals.

These tests drive the real ``repro campaign run`` CLI with stub
experiments in the experiment table, end to end: a parallel campaign
keeps going while one cell's worker keeps dying, a SIGINT/SIGTERM or
SIGKILL during the second cell leaves every finished cell in the
journal, and ``--resume`` then runs only the cells that had not
finished.  The serial (``--workers 1``) signal cases live in
``tests/runtime/test_chaos.py``, which reuses the helpers here.
"""

import json
import multiprocessing
import os
import signal
import sys
import time
from pathlib import Path

import pytest

from repro import cli
from repro.campaigns import Experiment
from repro.campaigns import runner as runner_module

from ..faults import CrashingTask, FlakyTask
from ..runtime.test_pool import _wait_until_stopped

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos tests assume the fork start method",
)

CELLS = ("fast1", "slow", "fast2")


def _cell(task):
    """Stub runner: call a fault task, report its return as cell metrics."""
    return lambda ctx: {"metrics": {"result": task(ctx)}}


def stub_ok(ctx):
    return {"metrics": {"result": "stub-ok"}}


def _fail_if_called(ctx):  # pragma: no cover - would mean resume is broken
    raise AssertionError("journaled cell was re-run despite --resume")


def write_config(tmp_path, experiments, seed=0):
    path = tmp_path / "chaos.toml"
    path.write_text(
        'campaign = "chaos"\n'
        'preset = "fast"\n'
        f"seeds = [{seed}]\n"
        "[axes]\n"
        f"experiment = {json.dumps(list(experiments))}\n"
    )
    return path


def read_journal(path):
    """Journal entries keyed by experiment (one cell per experiment).

    A line torn by a concurrent append or a SIGKILL is skipped, as the
    journal itself skips it on resume.
    """
    entries = {}
    for line in Path(path).read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "key" in record:
            entries[record["payload"]["cell"]["experiment"]] = record
    return entries


def cells_by_experiment(runs_dir):
    """The newest campaign record and its cells keyed by experiment."""
    records = list(Path(runs_dir).glob("*-campaign-chaos*.json"))
    assert records, f"no campaign records in {runs_dir}"
    newest = max(records, key=lambda path: path.stat().st_mtime_ns)
    record = json.loads(newest.read_text())
    return record, {cell["experiment"]: cell for cell in record["cells"]}


def run_campaign(config, journal, runs_dir, *extra):
    return cli.main([
        "-q", "campaign", "run", str(config), "--no-cache",
        "--journal", str(journal), "--runs-dir", str(runs_dir), *extra,
    ])


class TestParallelChaosCampaign:
    def test_campaign_survives_crashing_and_flaky_cells(
        self, tmp_path, monkeypatch
    ):
        table = {
            "ok1": stub_ok,
            "crashy": _cell(CrashingTask(
                str(tmp_path / "crash-counter"), crash_attempts=99, exit_code=3,
            )),
            "flaky": _cell(FlakyTask(
                str(tmp_path / "flaky-counter"), fail_attempts=1,
            )),
            "ok2": stub_ok,
        }
        for name, runner in table.items():
            monkeypatch.setitem(
                runner_module.EXPERIMENTS, name, Experiment("stub", runner)
            )
        journal = tmp_path / "journal.jsonl"
        runs_dir = tmp_path / "runs"
        rc = run_campaign(
            write_config(tmp_path, table), journal, runs_dir, "--workers", "2"
        )
        # The crasher fails terminally -> exit 1; but the campaign finished.
        assert rc == 1

        entries = read_journal(journal)
        assert entries["ok1"]["status"] == "done"
        assert entries["ok2"]["status"] == "done"
        assert entries["crashy"]["status"] == "failed"
        assert entries["crashy"]["attempts"] >= 2  # retried on fresh workers
        assert entries["flaky"]["status"] == "done"
        assert entries["flaky"]["attempts"] == 2  # recovered after one retry

        record, cells = cells_by_experiment(runs_dir)
        assert record["outcome"]["status"] == "failed"
        assert record["outcome"]["cells_done"] == 3
        assert cells["crashy"]["status"] == "failed"
        assert cells["flaky"]["status"] == "done"


def _interruptible_campaign_child(config, journal, runs_dir, ready, workers):
    """Child process: a stub campaign whose second cell hangs.

    ``slow`` writes the pid of the process running it to ``ready``.
    """

    def slow(ctx):
        Path(f"{ready}.tmp").write_text(str(os.getpid()))
        os.replace(f"{ready}.tmp", ready)
        time.sleep(60)
        return {"metrics": {}}

    runner_module.EXPERIMENTS.update({
        "fast1": Experiment("stub fast", stub_ok),
        "slow": Experiment("stub slow", slow),
        "fast2": Experiment("stub fast", stub_ok),
    })
    sys.exit(run_campaign(config, journal, runs_dir, "--workers", str(workers)))


def interrupt_second_cell(tmp_path, signum, workers):
    """Run the stub campaign in a child; deliver ``signum`` during ``slow``.

    The signal lands once ``slow`` has started and ``fast1`` is in the
    journal.  After a SIGKILL, the process running ``slow`` (a pool
    worker at ``workers > 1``) must stop within 5 s.  Returns the
    child's exit code.
    """
    journal = tmp_path / "journal.jsonl"
    ready = tmp_path / "slow-started"
    child = multiprocessing.get_context("fork").Process(
        target=_interruptible_campaign_child,
        args=(
            str(write_config(tmp_path, CELLS)), str(journal),
            str(tmp_path / "runs"), str(ready), workers,
        ),
    )
    child.start()
    try:
        deadline = time.monotonic() + 30.0
        while not (ready.exists() and journal.exists()
                   and "fast1" in read_journal(journal)):
            assert time.monotonic() < deadline, "slow cell never started"
            assert child.is_alive(), "campaign died before the interrupt"
            time.sleep(0.02)
        os.kill(child.pid, signum)
        if signum == signal.SIGKILL:
            slow_pid = int(ready.read_text())
            assert _wait_until_stopped(slow_pid), "slow cell outlived its campaign"
        child.join(timeout=30.0)
    finally:
        if child.is_alive():  # pragma: no cover - cleanup on failure
            child.kill()
            child.join()
    return child.exitcode


def _resume(tmp_path, monkeypatch):
    """Resume with the hang healed; returns (exit code, cells that ran)."""
    calls = []

    def tracked(name):
        def runner(ctx):
            calls.append(name)
            return stub_ok(ctx)

        return runner

    runners = {name: tracked(name) for name in CELLS}
    runners["fast1"] = _fail_if_called
    for name, runner in runners.items():
        monkeypatch.setitem(
            runner_module.EXPERIMENTS, name, Experiment("stub", runner)
        )
    rc = run_campaign(
        write_config(tmp_path, CELLS), tmp_path / "journal.jsonl",
        tmp_path / "runs", "--resume",
    )
    return rc, calls


class TestSignalHandling:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_mid_parallel_campaign_journals_finished_cells_and_exits_130(
        self, tmp_path, signum
    ):
        assert interrupt_second_cell(tmp_path, signum, workers=2) == 130

        # The finished cell is journaled; the interrupted one is not.
        entries = read_journal(tmp_path / "journal.jsonl")
        assert entries["fast1"]["status"] == "done"
        assert "slow" not in entries

        # The record was still written, with the finished cell done.
        record, cells = cells_by_experiment(tmp_path / "runs")
        assert record["outcome"]["status"] == "interrupted"
        assert cells["fast1"]["status"] == "done"
        assert cells["slow"]["status"] == "skipped"

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGKILL])
    def test_resume_runs_only_unfinished_cells(
        self, tmp_path, monkeypatch, signum, workers
    ):
        rc = interrupt_second_cell(tmp_path, signum, workers)
        assert rc == (130 if signum == signal.SIGINT else -signal.SIGKILL)
        finished = set(read_journal(tmp_path / "journal.jsonl"))
        assert "fast1" in finished

        rc, calls = _resume(tmp_path, monkeypatch)
        assert rc == 0
        assert calls == [name for name in CELLS if name not in finished]
        entries = read_journal(tmp_path / "journal.jsonl")
        assert {entries[name]["status"] for name in CELLS} == {"done"}
        _, cells = cells_by_experiment(tmp_path / "runs")
        assert cells["fast1"]["resumed"] is True
        assert cells["slow"]["resumed"] is False
