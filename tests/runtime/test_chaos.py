"""Chaos suite: signals and a foreign journal at a serial campaign.

A SIGINT/SIGTERM during the second cell of a stubbed ``--workers 1``
campaign flushes the journal (the finished cell, nothing else) and exits
130 with an ``interrupted`` record; ``--resume`` against the journal of
a different campaign is refused with exit 2.  The parallel cases are in
``tests/campaigns/test_chaos.py``, whose stub campaign these reuse.
"""

import multiprocessing
import signal

import pytest

from repro.campaigns import Experiment
from repro.campaigns import runner as runner_module

from ..campaigns.test_chaos import (
    cells_by_experiment,
    interrupt_second_cell,
    read_journal,
    run_campaign,
    stub_ok,
    write_config,
)

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
