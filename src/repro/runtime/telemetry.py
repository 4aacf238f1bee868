"""Hierarchical span tracing and a metrics registry for the pipeline.

Two instruments, one module:

* **Spans** — ``with span("simulate.frame_cube", facets=n):`` times a
  region with :func:`time.perf_counter_ns`, nests through a thread-local
  stack, and records per-span ``key=value`` attributes.  Finished spans
  export either as an aggregate table (:meth:`Telemetry.aggregate`) or as
  Chrome ``chrome://tracing`` JSON
  (:meth:`Telemetry.export_chrome_trace`).
* **Metrics** — process-wide counters, gauges, and fixed-bucket
  histograms (:class:`MetricsRegistry`), snapshotable to a plain dict and
  serializable as JSONL.

Span collection is *disabled by default* and zero-cost when off: one
boolean check and :data:`_NOOP_SPAN`, a shared singleton whose enter/exit
do nothing, so hot paths like
:meth:`~repro.radar.simulator.FmcwRadarSimulator.frame_cube_from_facets`
pay no allocation per call.  ``span(..., force=True)`` always measures —
that is the repo's single wall-clock mechanism (the runner and throughput
experiment use it) — but is only *collected* into the trace buffer while
tracing is enabled.  Metric updates are always live; they are a few dict
and lock operations per event, invisible next to the FFT/BLAS work they
count.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import threading
import time
from bisect import bisect_left
from pathlib import Path

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "quantile_from_buckets",
    "Telemetry",
    "metrics",
    "span",
    "telemetry",
    "traced",
]


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes) -> "_NoopSpan":
        return self

    @property
    def duration_s(self) -> float:
        return 0.0


_NOOP_SPAN = _NoopSpan()


class Span:
    """One timed region; context manager pushed on a thread-local stack."""

    __slots__ = (
        "name",
        "attributes",
        "start_ns",
        "end_ns",
        "thread_id",
        "depth",
        "parent_name",
        "_telemetry",
    )

    def __init__(self, name: str, attributes: dict, telemetry: "Telemetry"):
        self.name = name
        self.attributes = attributes
        self.start_ns = 0
        self.end_ns = 0
        self.thread_id = 0
        self.depth = 0
        self.parent_name = ""
        self._telemetry = telemetry

    def set(self, **attributes) -> "Span":
        """Attach ``key=value`` attributes (chainable)."""
        self.attributes.update(attributes)
        return self

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def __enter__(self) -> "Span":
        stack = self._telemetry._stack()
        self.depth = len(stack)
        self.parent_name = stack[-1].name if stack else ""
        stack.append(self)
        self.thread_id = threading.get_ident()
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = time.perf_counter_ns()
        stack = self._telemetry._stack()
        # Unwind to (and past) ourselves even if an exception skipped the
        # exits of inner spans — nesting stays consistent afterwards.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._telemetry._record(self)
        return False


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: "int | float" = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> "int | float":
        return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}

    def merge(self, snap: dict) -> None:
        """Fold another counter's snapshot in (values add)."""
        if snap.get("type") != "counter":
            raise TypeError(
                f"cannot merge {snap.get('type')!r} snapshot into counter "
                f"{self.name!r}"
            )
        with self._lock:
            self._value += snap.get("value", 0)


class Gauge:
    """Last-value-wins instrument (rates, norms, sizes)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value}

    def merge(self, snap: dict) -> None:
        """Fold another gauge's snapshot in (last merged value wins).

        Gauges are point-in-time readings, so there is no meaningful sum
        across processes; the merged view keeps the most recently merged
        reading, matching the instrument's own last-write-wins contract.
        """
        if snap.get("type") != "gauge":
            raise TypeError(
                f"cannot merge {snap.get('type')!r} snapshot into gauge "
                f"{self.name!r}"
            )
        self.set(snap.get("value", 0.0))


#: Default histogram bucket upper bounds (seconds-ish scale, but the
#: instrument is unit-agnostic).
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


class Histogram:
    """Fixed-bucket histogram with Prometheus-style ``le`` semantics.

    A value lands in the first bucket whose upper bound is ``>=`` the
    value; values above the last bound land in the overflow (``inf``)
    bucket.
    """

    __slots__ = ("name", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(self, name: str, buckets: "tuple[float, ...]" = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> dict:
        labels = [str(b) for b in self.buckets] + ["inf"]
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "buckets": dict(zip(labels, self._counts)),
        }

    def merge(self, snap: dict) -> None:
        """Fold another histogram's snapshot in (bucket counts add).

        Both histograms must share the exact bucket boundaries — merging
        observations across different boundary sets would silently
        misbucket, so a mismatch raises ``ValueError`` instead.
        """
        if snap.get("type") != "histogram":
            raise TypeError(
                f"cannot merge {snap.get('type')!r} snapshot into histogram "
                f"{self.name!r}"
            )
        theirs = snap.get("buckets", {})
        # Label-keyed, so a JSON round-trip that reordered the bucket dict
        # (e.g. ``sort_keys=True`` sorting "10.0" before "2.5") still merges
        # each bound into its own slot.
        their_bounds = tuple(
            sorted(float(label) for label in theirs if label != "inf")
        )
        if their_bounds != self.buckets or "inf" not in theirs:
            raise ValueError(
                f"histogram {self.name!r} bucket boundaries {self.buckets} "
                f"do not match incoming {their_bounds}"
            )
        labels = [str(b) for b in self.buckets] + ["inf"]
        with self._lock:
            for index, label in enumerate(labels):
                self._counts[index] += int(theirs[label])
            self._sum += float(snap.get("sum", 0.0))
            self._count += int(snap.get("count", 0))


def quantile_from_buckets(snapshot: dict, q: float) -> float:
    """Estimate the ``q``-quantile (0..1) of a histogram *snapshot*.

    Prometheus ``histogram_quantile`` semantics over the ``le`` buckets:
    walk the cumulative counts to the bucket containing the target rank
    and interpolate linearly inside it.  Ranks landing in the overflow
    (``inf``) bucket return the last finite bound — an "at least" answer,
    which is the honest one for a fixed-bucket instrument.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    count = snapshot.get("count", 0)
    buckets = snapshot.get("buckets", {})
    if not count or not buckets:
        return 0.0
    bounds: "list[float]" = []
    counts: "list[int]" = []
    for label, value in buckets.items():
        bounds.append(float("inf") if label == "inf" else float(label))
        counts.append(int(value))
    order = sorted(range(len(bounds)), key=lambda i: bounds[i])
    bounds = [bounds[i] for i in order]
    counts = [counts[i] for i in order]
    target = q * count
    cumulative = 0
    lower = 0.0
    for bound, bucket_count in zip(bounds, counts):
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= target:
            if bound == float("inf"):
                return lower
            if bucket_count == 0:
                return bound
            fraction = (target - previous) / bucket_count
            return lower + (bound - lower) * fraction
        if bound != float("inf"):
            lower = bound
    return lower


class MetricsRegistry:
    """Named counters/gauges/histograms with dict snapshot + JSONL export."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: "dict[str, Counter | Gauge | Histogram]" = {}

    def _get(self, name: str, factory, kind):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, buckets: "tuple[float, ...]" = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(name, buckets), Histogram)

    def snapshot(self) -> "dict[str, dict]":
        with self._lock:
            instruments = dict(self._instruments)
        return {name: instruments[name].snapshot() for name in sorted(instruments)}

    def merge_snapshot(self, snapshot: "dict[str, dict]") -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is how the replica fleet aggregates worker-process metrics:
        each replica ships its registry snapshot over the heartbeat pipe
        and the parent merges them into a fleet-wide view.  Counters and
        histogram buckets add (so merging is commutative and the merged
        totals equal the per-replica sums), gauges keep the last merged
        reading.  A name registered here with a different instrument type
        raises ``TypeError``; mismatched histogram boundaries raise
        ``ValueError``.  Merging an empty snapshot is a no-op.
        """
        for name in sorted(snapshot):
            snap = snapshot[name]
            kind = snap.get("type") if isinstance(snap, dict) else None
            if kind == "counter":
                self.counter(name).merge(snap)
            elif kind == "gauge":
                self.gauge(name).merge(snap)
            elif kind == "histogram":
                bounds = tuple(
                    sorted(
                        float(label)
                        for label in snap.get("buckets", {})
                        if label != "inf"
                    )
                )
                if not bounds:
                    raise ValueError(
                        f"histogram snapshot {name!r} has no finite buckets"
                    )
                self.histogram(name, bounds).merge(snap)
            else:
                raise ValueError(
                    f"snapshot entry {name!r} has unknown instrument "
                    f"type {kind!r}"
                )

    def export_jsonl(self, path: "str | os.PathLike") -> Path:
        """One JSON object per line per instrument, atomically written."""
        lines = [
            json.dumps({"name": name, **snap}, sort_keys=True)
            for name, snap in self.snapshot().items()
        ]
        return write_text_atomic(Path(path), "\n".join(lines) + "\n")

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


def write_text_atomic(path: Path, text: str) -> Path:
    """Write-then-rename so a crash never leaves a truncated file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


class Telemetry:
    """Process-wide span collector + metrics registry."""

    def __init__(self):
        self.enabled = False
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: "list[Span]" = []

    # -- span lifecycle ------------------------------------------------
    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, force: bool = False, **attributes):
        """A context-manager span; the no-op singleton while disabled.

        ``force=True`` spans always measure (callers read
        ``span.duration_s`` after exit) but still only enter the trace
        buffer while tracing is enabled.
        """
        if not (self.enabled or force):
            return _NOOP_SPAN
        return Span(name, attributes, self)

    def _record(self, span: Span) -> None:
        if self.enabled:
            with self._lock:
                self._finished.append(span)

    def record_span(
        self, name: str, start_ns: int, end_ns: int, **attributes
    ) -> None:
        """Record an externally-timed span without touching the stack.

        Used for concurrent regions (e.g. one pool task attempt per
        worker) whose lifetimes overlap and therefore cannot nest through
        the thread-local context-manager stack.
        """
        if not self.enabled:
            return
        span = Span(name, dict(attributes), self)
        span.start_ns = int(start_ns)
        span.end_ns = int(end_ns)
        span.thread_id = threading.get_ident()
        self._record(span)

    # -- control -------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop collected spans and all metrics (tracing state unchanged)."""
        with self._lock:
            self._finished.clear()
        self.metrics.reset()

    # -- exporters -----------------------------------------------------
    def finished_spans(self) -> "list[Span]":
        with self._lock:
            return list(self._finished)

    def aggregate(self) -> "dict[str, dict]":
        """Per-span-name ``{count, total_s, mean_s, min_s, max_s}``."""
        table: "dict[str, dict]" = {}
        for span in self.finished_spans():
            entry = table.setdefault(
                span.name,
                {"count": 0, "total_s": 0.0, "min_s": float("inf"), "max_s": 0.0},
            )
            duration = span.duration_s
            entry["count"] += 1
            entry["total_s"] += duration
            entry["min_s"] = min(entry["min_s"], duration)
            entry["max_s"] = max(entry["max_s"], duration)
        for entry in table.values():
            entry["mean_s"] = entry["total_s"] / entry["count"]
        return dict(
            sorted(table.items(), key=lambda kv: kv[1]["total_s"], reverse=True)
        )

    def export_chrome_trace(self, path: "str | os.PathLike") -> Path:
        """Write finished spans as ``chrome://tracing`` complete events."""
        spans = sorted(self.finished_spans(), key=lambda s: s.start_ns)
        base_ns = spans[0].start_ns if spans else 0
        events = []
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": (span.start_ns - base_ns) / 1e3,
                    "dur": (span.end_ns - span.start_ns) / 1e3,
                    "pid": os.getpid(),
                    "tid": span.thread_id,
                    "args": {str(k): _jsonable(v) for k, v in span.attributes.items()},
                }
            )
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        return write_text_atomic(Path(path), json.dumps(payload))


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


_TELEMETRY = Telemetry()


def telemetry() -> Telemetry:
    """The process-wide :class:`Telemetry` singleton."""
    return _TELEMETRY


def span(name: str, force: bool = False, **attributes):
    """Open a span on the global telemetry (no-op singleton when disabled)."""
    return _TELEMETRY.span(name, force=force, **attributes)


def metrics() -> MetricsRegistry:
    """The global metrics registry."""
    return _TELEMETRY.metrics


def traced(name: str, **attributes):
    """Decorator form of :func:`span`; enablement is checked per call."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _TELEMETRY.span(name, **attributes):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
