"""Campaign execution: grid cells -> pool tasks -> journal -> record.

:data:`EXPERIMENTS` is the one experiment table (description, runner
and formatter per paper experiment) and :func:`run_experiment` runs an
entry on a fresh context: ``repro run <exp>`` prints the formatted
rows, campaign cells record the metrics.

``CampaignRunner`` is the only sweep path (``examples/campaigns/all.toml``
sweeps every experiment).  It expands a validated config into
:class:`~repro.campaigns.config.CampaignCell` tasks, runs them over the
supervised worker pool (``workers=1`` degrades to the serial in-process
path), checkpoints each terminal outcome in the fsynced sweep journal
as the pool reports it — so a SIGINT or SIGKILL mid-campaign loses at
most the in-flight cells and ``--resume`` skips finished ones — and
aggregates everything into one atomic campaign record.  A serial
campaign's cell runs in this process and spreads its own dataset
samples and victim fits over a pool as wide as
:func:`~repro.runtime.threads.usable_cores`; a pooled campaign's cells
run in-process in its workers, so a pool never nests in a pool.

Cells return *metrics*, not formatted text: :func:`cell_payload` maps
any runner's result dataclass, field by field, to a JSON-able dict split
into deterministic ``metrics`` (accuracy, ASR/UASR/CDR curves, defense
verdicts — bit-reproducible functions of the seed) and the wall-clock
``measured`` fields (throughput timings), so campaign cells can be
pinned bit-identical against the hand-written runners.  ``repro run``
writes the same payload into its run record.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..datasets.activities import DISSIMILAR_SCENARIOS, SIMILAR_SCENARIOS
from ..eval.experiments import (
    ExperimentContext,
    run_ablation,
    run_angle_robustness,
    run_clean_prototype,
    run_defenses,
    run_distance_robustness,
    run_frame_importance,
    run_heatmap_stealth,
    run_injection_rate_sweep,
    run_poisoned_frames_sweep,
    run_simulator_throughput,
    run_spectral_defense,
    run_trigger_size_frames_sweep,
    run_trigger_size_injection_sweep,
)
from ..eval.presets import ExperimentPreset
from ..eval.reporting import (
    format_ablation,
    format_confusion_matrix,
    format_defense,
    format_full_sweep,
    format_histogram,
    format_robustness,
    format_spectral_defense,
    format_stealth,
    format_throughput,
)
from ..runtime.journal import SweepJournal
from ..runtime.logging import get_logger
from ..runtime.pool import PoolConfig, PoolTask, TaskResult, run_tasks
from ..runtime.records import default_runs_dir
from ..runtime.telemetry import metrics, span, telemetry
from ..runtime.threads import usable_cores
from .config import (
    CampaignCell,
    CampaignConfig,
    config_digest,
    expand_cells,
    journal_fingerprint,
)
from .records import CampaignRecord, write_campaign_record

_log = get_logger("campaigns.runner")


@dataclass(frozen=True)
class Experiment:
    """One paper experiment: what it shows, how to run it, how to print it."""

    description: str
    #: ``runner(context)`` returns the result dataclass campaigns record.
    runner: "Callable[[ExperimentContext], Any]"
    #: ``formatter(result)`` renders the rows ``repro run`` prints.
    formatter: "Callable[[Any], str]" = str


#: experiment id -> :class:`Experiment`: the one table behind
#: ``repro list``, ``repro run <exp>`` and every campaign cell.  The
#: lambdas look their runner up in this module at call time, so a
#: patched module attribute (a tracer's wrapper) reaches them.
EXPERIMENTS: "dict[str, Experiment]" = {
    "fig3": Experiment(
        "Most-important-frame index histogram (SHAP)",
        run_frame_importance, format_histogram,
    ),
    "fig5": Experiment(
        "DRAI heatmaps with vs without a trigger (stealth)",
        run_heatmap_stealth, format_stealth,
    ),
    "fig7": Experiment(
        "Clean prototype confusion matrix",
        run_clean_prototype, format_confusion_matrix,
    ),
    "fig8": Experiment(
        "ASR/UASR/CDR vs injection rate (similar trajectory)",
        lambda ctx: run_injection_rate_sweep(ctx, SIMILAR_SCENARIOS),
        format_full_sweep,
    ),
    "fig9": Experiment(
        "ASR/UASR/CDR vs #poisoned frames (similar trajectory)",
        lambda ctx: run_poisoned_frames_sweep(ctx, SIMILAR_SCENARIOS),
        format_full_sweep,
    ),
    "fig10": Experiment(
        "ASR/UASR/CDR vs injection rate (dissimilar trajectory)",
        lambda ctx: run_injection_rate_sweep(ctx, DISSIMILAR_SCENARIOS),
        format_full_sweep,
    ),
    "fig11": Experiment(
        "ASR/UASR/CDR vs #poisoned frames (dissimilar trajectory)",
        lambda ctx: run_poisoned_frames_sweep(ctx, DISSIMILAR_SCENARIOS),
        format_full_sweep,
    ),
    "fig12": Experiment(
        "Trigger size comparison over injection rates",
        run_trigger_size_injection_sweep, format_full_sweep,
    ),
    "fig13": Experiment(
        "Trigger size comparison over #poisoned frames",
        run_trigger_size_frames_sweep, format_full_sweep,
    ),
    "fig14": Experiment(
        "ASR vs attacker angle (seen + zero-shot)",
        run_angle_robustness, format_robustness,
    ),
    "fig15": Experiment(
        "ASR vs attacker distance (seen + zero-shot)",
        run_distance_robustness, format_robustness,
    ),
    "table1": Experiment(
        "Module ablation + under-clothing triggers",
        run_ablation, format_ablation,
    ),
    "sec6d": Experiment(
        "RF simulator throughput",
        run_simulator_throughput, format_throughput,
    ),
    "sec7": Experiment(
        "Defenses: trigger detection + augmentation",
        run_defenses, format_defense,
    ),
    "spectral": Experiment(
        "Extension: spectral-signature poison filtering",
        run_spectral_defense, format_spectral_defense,
    ),
}


def run_experiment(
    name: str,
    preset: ExperimentPreset,
    seed: int,
    use_disk_cache: bool = True,
    workers: int = 1,
) -> Any:
    """Run table entry ``name`` on a fresh :class:`ExperimentContext`.

    The one entry point behind ``repro run <exp>`` and every campaign
    cell.  A fresh context per call means a result never depends on
    which experiments ran before it in the same process.  ``workers`` is
    the context's pool width; the result is the same at any width.
    """
    context = ExperimentContext(
        preset, seed=seed, use_disk_cache=use_disk_cache, workers=workers
    )
    return EXPERIMENTS[name].runner(context)


def _plain(value: Any) -> Any:
    """A result value as plain JSON-able Python.

    Dataclasses become dicts, NumPy arrays and scalars plain values, and
    tuples lists, all the way down.
    """
    if dataclasses.is_dataclass(value):
        return {
            item.name: _plain(getattr(value, item.name))
            for item in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def cell_payload(result: Any) -> "dict[str, dict]":
    """``{"metrics": ..., "measured": ...}`` for one runner result.

    Every field of the result dataclass maps through :func:`_plain`.
    ``metrics`` holds the deterministic outputs (pure functions of the
    seed — what equivalence pins compare); ``measured`` holds the fields
    marked :data:`~repro.eval.experiments.WALL_CLOCK`, which
    legitimately differ between runs of the same seed.
    """
    # Stubbed runners in tests may return plain dicts already in shape.
    if isinstance(result, dict) and "metrics" in result:
        return {
            "metrics": dict(result["metrics"]),
            "measured": dict(result.get("measured", {})),
        }
    if not dataclasses.is_dataclass(result) or isinstance(result, type):
        raise TypeError(
            f"no campaign payload mapping for {type(result).__name__}"
        )
    payload: "dict[str, dict]" = {"metrics": {}, "measured": {}}
    for item in dataclasses.fields(result):
        part = "measured" if item.metadata.get("wall_clock") else "metrics"
        payload[part][item.name] = _plain(getattr(result, item.name))
    return payload


def _campaign_cell_task(
    cell: CampaignCell, use_disk_cache: bool, workers: int
) -> dict:
    """Pool task: run one cell in a fresh context.

    ``workers`` is the cell's own pool width: 1 inside a pooled
    campaign's workers, so a pool never nests in a pool.  The cell runs
    at its :meth:`CampaignCell.resolved_preset` (base preset +
    overrides), so it is bit-identical to the equivalent hand-written
    invocation.
    """
    with span("campaign.cell", experiment=cell.experiment, seed=cell.seed):
        result = run_experiment(
            cell.experiment, cell.resolved_preset(), cell.seed, use_disk_cache,
            workers=workers,
        )
    return cell_payload(result)


@dataclass
class CellResult:
    """Terminal outcome of one campaign cell."""

    key: str
    index: int
    experiment: str
    preset: str
    seed: int
    status: str  # done | failed | skipped
    metrics: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    attempts: int = 0
    error: "str | None" = None
    traceback: str = ""
    resumed: bool = False

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class CampaignOutcome:
    """What one ``CampaignRunner.run`` produced."""

    record: CampaignRecord
    record_path: Path
    results: "list[CellResult]"
    journal_path: Path
    interrupted: bool = False
    stopped_early: bool = False

    @property
    def counts(self) -> "dict[str, int]":
        counts = {"done": 0, "failed": 0, "skipped": 0}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    @property
    def all_ok(self) -> bool:
        return all(result.status == "done" for result in self.results)


class CampaignRunner:
    """Executes one campaign config end to end.

    ``run(resume=True)`` replays journaled cells instead of re-running
    them; the journal header carries the config digest, so resuming with
    an edited config refuses instead of mixing incompatible results.
    """

    def __init__(
        self,
        config: CampaignConfig,
        journal_path: "str | Path | None" = None,
        runs_dir: "str | Path | None" = None,
        workers: int = 1,
        pool_config: "PoolConfig | None" = None,
    ):
        self.config = config
        self.runs_dir = Path(runs_dir) if runs_dir else default_runs_dir()
        self.journal_path = (
            Path(journal_path) if journal_path
            else self.runs_dir / f"campaign-{config.name}.jsonl"
        )
        self.workers = max(1, int(workers))
        self.pool_config = pool_config

    def run(self, resume: bool = False) -> CampaignOutcome:
        cells = expand_cells(self.config)
        digest = config_digest(self.config)
        journal = SweepJournal.open(
            self.journal_path, journal_fingerprint(self.config), resume=resume
        )
        started = time.time()
        with span("campaign.run", campaign=self.config.name, cells=len(cells)):
            with journal:
                results, interrupted, stopped = self._execute(cells, journal)
        results.sort(key=lambda result: result.index)

        outcome_status = self._status(results, interrupted, stopped)
        record = CampaignRecord(
            name=self.config.name,
            config=self.config.canonical_dict(),
            config_digest=digest,
            cells=[result.as_dict() for result in results],
            outcome={
                "status": outcome_status,
                "cells_total": len(cells),
                **{f"cells_{k}": v for k, v in _count(results).items()},
                "wall_time_s": time.time() - started,
            },
            spans=telemetry().aggregate(),
        )
        path = write_campaign_record(record, self.runs_dir)
        _log.info(
            "campaign %s: %s (%d cells) record=%s",
            self.config.name, outcome_status, len(cells), path,
        )
        return CampaignOutcome(
            record=record,
            record_path=path,
            results=results,
            journal_path=self.journal_path,
            interrupted=interrupted,
            stopped_early=stopped,
        )

    # ------------------------------------------------------------------
    def _execute(
        self, cells: "list[CampaignCell]", journal: SweepJournal
    ) -> "tuple[list[CellResult], bool, bool]":
        completed = journal.completed_keys()
        results: "list[CellResult]" = []
        pending: "list[CampaignCell]" = []
        for cell in cells:
            entry = journal.entry(cell.key)
            if cell.key in completed and entry is not None:
                results.append(self._from_journal(cell, entry, resumed=True))
                metrics().counter("campaign.cells_resumed").inc()
            else:
                pending.append(cell)
        if results:
            _log.info(
                "campaign %s: %d/%d cells resumed from journal",
                self.config.name, len(results), len(cells),
            )

        by_key = {cell.key: cell for cell in pending}

        def journal_cell(task_result: TaskResult) -> None:
            # The pool calls this as each cell ends, so an interrupt
            # mid-wave keeps every cell that finished before it.
            cell = by_key[task_result.key]
            result = self._from_task(cell, task_result)
            journal.record(
                result.key,
                result.status,
                payload={
                    "cell": cell.spec(),
                    "metrics": result.metrics,
                    "measured": result.measured,
                    "error": result.error,
                    "traceback": result.traceback,
                },
                attempts=result.attempts,
                wall_time_s=result.wall_time_s,
            )
            results.append(result)

        max_failures = self.config.stop.max_failures
        interrupted = False
        stopped = False
        # Dispatch in pool-sized waves so stop criteria apply between
        # waves without needing mid-flight cancellation support.
        wave = self.workers * 2
        try:
            for start in range(0, len(pending), wave):
                failures = sum(1 for r in results if r.status == "failed")
                if max_failures is not None and failures >= max_failures:
                    stopped = True
                    break
                self._run_batch(pending[start:start + wave], journal_cell)
        except KeyboardInterrupt:
            interrupted = True
            _log.warning(
                "campaign %s interrupted; journal %s holds %d finished cells",
                self.config.name, self.journal_path,
                len(journal.completed_keys()),
            )
        collected = {result.key for result in results}
        completed = journal.completed_keys()
        for cell in cells:
            if cell.key in collected:
                continue
            if cell.key in completed:
                # Journaled done, but the interrupt landed before the
                # callback collected it: the record follows the journal.
                entry = journal.entry(cell.key)
                results.append(self._from_journal(cell, entry, resumed=False))
            else:
                results.append(self._skipped(cell, interrupted, stopped))
        return results, interrupted, stopped

    def _run_batch(
        self,
        batch: "list[CampaignCell]",
        on_result: "Callable[[TaskResult], None]",
    ) -> None:
        config = self.pool_config or PoolConfig(workers=self.workers)
        # Serial cells run in this process and take its cores; pooled
        # cells run in the workers, which must not start pools of their own.
        cell_workers = usable_cores() if config.workers == 1 else 1
        tasks = [
            PoolTask(
                key=cell.key,
                fn=_campaign_cell_task,
                args=(cell, self.config.use_disk_cache, cell_workers),
            )
            for cell in batch
        ]
        run_tasks(tasks, config, on_result=on_result)

    # ------------------------------------------------------------------
    def _from_task(
        self, cell: CampaignCell, task_result: TaskResult
    ) -> CellResult:
        payload = task_result.value if task_result.ok else {}
        payload = payload or {}
        return CellResult(
            key=cell.key,
            index=cell.index,
            experiment=cell.experiment,
            preset=cell.preset,
            seed=cell.seed,
            status="done" if task_result.ok else "failed",
            metrics=dict(payload.get("metrics", {})),
            measured=dict(payload.get("measured", {})),
            overrides=dict(cell.overrides),
            wall_time_s=task_result.wall_time_s,
            attempts=task_result.attempts,
            error=task_result.error,
            traceback=task_result.traceback,
        )

    def _from_journal(
        self, cell: CampaignCell, entry: dict, resumed: bool
    ) -> CellResult:
        payload = entry.get("payload") or {}
        return CellResult(
            key=cell.key,
            index=cell.index,
            experiment=cell.experiment,
            preset=cell.preset,
            seed=cell.seed,
            status="done",
            metrics=dict(payload.get("metrics", {})),
            measured=dict(payload.get("measured", {})),
            overrides=dict(cell.overrides),
            wall_time_s=entry.get("wall_time_s", 0.0),
            attempts=entry.get("attempts", 0),
            resumed=resumed,
        )

    def _skipped(
        self, cell: CampaignCell, interrupted: bool, stopped: bool
    ) -> CellResult:
        reason = (
            "interrupted" if interrupted
            else "stop.max_failures reached" if stopped
            else "not dispatched"
        )
        return CellResult(
            key=cell.key,
            index=cell.index,
            experiment=cell.experiment,
            preset=cell.preset,
            seed=cell.seed,
            status="skipped",
            overrides=dict(cell.overrides),
            error=reason,
        )

    @staticmethod
    def _status(
        results: "list[CellResult]", interrupted: bool, stopped: bool
    ) -> str:
        if interrupted:
            return "interrupted"
        if stopped:
            return "stopped"
        counts = _count(results)
        if counts.get("failed") or counts.get("skipped"):
            return "failed"
        return "ok"


def _count(results: "list[CellResult]") -> "dict[str, int]":
    counts: "dict[str, int]" = {}
    for result in results:
        counts[result.status] = counts.get(result.status, 0) + 1
    return counts
