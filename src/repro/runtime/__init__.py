"""Cross-cutting runtime services: errors, logging, guards, pool.

This package owns the pipeline's failure-handling contract.  Stage code
raises :class:`ReproError` subclasses, guards catch NaN/Inf at stage
boundaries, and the supervised pool and the sweep journal keep campaigns
(:mod:`repro.campaigns`) alive and resumable past individual failures.
The fault-injection harness that proves recovery works lives with the
tests, in ``tests/faults.py``.

It also owns the observability contract: :mod:`repro.runtime.telemetry`
provides hierarchical span tracing plus a counters/gauges/histograms
registry, and :mod:`repro.runtime.records` persists one JSON run record
per CLI invocation.
"""

from .backoff import RetryPolicy, retry_call
from .errors import (
    CacheCorruptionError,
    JournalError,
    JournalMismatchError,
    PoolError,
    ReproError,
    SimulationError,
    TrainingDivergenceError,
)
from .guards import all_finite, count_nonfinite, ensure_finite
from .journal import SweepJournal
from .logging import configure_logging, get_logger, level_for_verbosity
from .pool import (
    PoolConfig,
    PoolTask,
    TaskResult,
    WorkerPool,
    derive_task_seed,
    run_tasks,
)
from .records import (
    RunRecord,
    format_run_record,
    latest_run_record_path,
    load_run_record,
    write_run_record,
)
from .telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Telemetry,
    metrics,
    span,
    telemetry,
    traced,
)

__all__ = [
    "CacheCorruptionError",
    "Counter",
    "Gauge",
    "Histogram",
    "JournalError",
    "JournalMismatchError",
    "MetricsRegistry",
    "PoolConfig",
    "PoolError",
    "PoolTask",
    "ReproError",
    "RetryPolicy",
    "RunRecord",
    "SimulationError",
    "Span",
    "SweepJournal",
    "TaskResult",
    "Telemetry",
    "TrainingDivergenceError",
    "WorkerPool",
    "all_finite",
    "configure_logging",
    "count_nonfinite",
    "derive_task_seed",
    "ensure_finite",
    "format_run_record",
    "get_logger",
    "latest_run_record_path",
    "level_for_verbosity",
    "load_run_record",
    "metrics",
    "retry_call",
    "run_tasks",
    "span",
    "telemetry",
    "traced",
    "write_run_record",
]
