"""Chaos suite: signals and a foreign journal at a serial campaign.

A SIGINT/SIGTERM during the second cell of a stubbed ``--workers 1``
campaign flushes the journal (the finished cell, nothing else) and exits
130 with an ``interrupted`` record; a SIGINT or SIGKILL while a serial
cell's own pool is busy leaves no pool worker running; ``--resume``
against the journal of a different campaign is refused with exit 2.
The parallel cases are in ``tests/campaigns/test_chaos.py``, whose stub
campaign these reuse.
"""

import functools
import multiprocessing
import os
import signal
import sys
import time
from pathlib import Path

import pytest

from repro.campaigns import Experiment
from repro.campaigns import runner as runner_module
from repro.datasets import generation

from ..campaigns.test_chaos import (
    cells_by_experiment,
    interrupt_second_cell,
    read_journal,
    run_campaign,
    stub_ok,
    write_config,
)
from .test_pool import _running, _wait_until_stopped

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos tests assume the fork start method",
)


class TestSignalHandling:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_mid_sweep_flushes_journal_and_exits_130(self, tmp_path, signum):
        assert interrupt_second_cell(tmp_path, signum, workers=1) == 130

        # Serial: the finished cell is journaled; the others never finished.
        entries = read_journal(tmp_path / "journal.jsonl")
        assert set(entries) == {"fast1"}
        assert entries["fast1"]["status"] == "done"

        # The record was still written, with only the first cell done.
        record, cells = cells_by_experiment(tmp_path / "runs")
        assert record["outcome"]["status"] == "interrupted"
        assert {name: cell["status"] for name, cell in cells.items()} == {
            "fast1": "done", "slow": "skipped", "fast2": "skipped",
        }

    def test_resume_refuses_mismatched_campaign(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            runner_module.EXPERIMENTS, "only", Experiment("stub", stub_ok)
        )
        journal = tmp_path / "journal.jsonl"
        runs_dir = tmp_path / "runs"
        assert run_campaign(write_config(tmp_path, ["only"]), journal, runs_dir) == 0
        # Same journal, different campaign (seed changed): refuse, exit 2.
        changed = write_config(tmp_path, ["only"], seed=1)
        assert run_campaign(changed, journal, runs_dir, "--resume") == 2


def _report_pid_then_hang(directory, *sample_args):
    """Stands in for one sample's synthesis: report the pid, then hang."""
    Path(directory, f"{os.getpid()}.pid").write_text(str(os.getpid()))
    time.sleep(60.0)


def _serial_campaign_with_busy_pool(config, journal, runs_dir, directory):
    """Child: a serial campaign whose one cell generates its training set
    on a two-worker pool, every sample of which hangs."""
    runner_module.usable_cores = lambda: 2
    generation.SampleGenerator.synthesize_planned_sample = functools.partial(
        _report_pid_then_hang, directory
    )
    runner_module.EXPERIMENTS["pooled"] = Experiment(
        "stub", lambda ctx: {"metrics": {"samples": len(ctx.clean_train)}}
    )
    sys.exit(run_campaign(config, journal, runs_dir, "--workers", "1"))


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGKILL])
def test_a_serial_cells_pool_stops_with_its_campaign(tmp_path, signum):
    """The pool a serial cell starts in the campaign's own process ends
    with it, within 5 s, whether the campaign unwinds or is killed."""
    directory = tmp_path / "pids"
    directory.mkdir()
    child = multiprocessing.get_context("fork").Process(
        target=_serial_campaign_with_busy_pool,
        args=(
            str(write_config(tmp_path, ["pooled"])), str(tmp_path / "journal.jsonl"),
            str(tmp_path / "runs"), str(directory),
        ),
    )
    child.start()
    workers = []
    try:
        deadline = time.monotonic() + 30.0
        while len(workers) < 2:
            assert time.monotonic() < deadline, "the cell's pool never got busy"
            assert child.is_alive(), "campaign died before the signal"
            time.sleep(0.02)
            workers = [int(path.stem) for path in directory.glob("*.pid")]
        assert child.pid not in workers
        os.kill(child.pid, signum)
        for pid in workers:
            assert _wait_until_stopped(pid, 5.0), "a pool worker outlived its campaign"
        child.join(timeout=30.0)
        assert child.exitcode == (130 if signum == signal.SIGINT else -signal.SIGKILL)
    finally:
        if child.is_alive():  # pragma: no cover - cleanup on failure
            child.kill()
            child.join()
        for pid in workers:
            if _running(pid):  # pragma: no cover - cleanup on failure
                os.kill(pid, signal.SIGKILL)
