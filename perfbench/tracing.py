"""In-memory spans around calls into the program's layers.

A :class:`Tracer` wraps public functions and methods of the loaded
``repro`` modules from the benchmark's own files: it rebinds the module
attribute (and every ``from ... import name`` alias of it in other
``repro`` modules) or the class attribute, and :meth:`Tracer.uninstall`
puts the originals back.  Nothing under ``src/`` changes.

Each span records its name, start and end (``perf_counter_ns``), the
index of the span that was open when it began (its parent), the id of
the operation it belongs to (a cell or request id) and its thread.
Spans stay in memory; :func:`chrome_trace` turns them into Chrome-trace
JSON once the run has ended.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# Span fields, stored as lists for low overhead.
NAME, START, END, PARENT, OP, TID = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.counts: "dict[str, float]" = defaultdict(float)
        #: Id stamped on every span opened from now on (cell or request id).
        self.op_id: "str | None" = None
        self._local = threading.local()
        self._patches: "list[tuple[object, str, object]]" = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self, prefix: str) -> "str | None":
        """Name of the innermost open span whose name starts with ``prefix``."""
        for index in reversed(self._stack()):
            name = self.spans[index][NAME]
            if name.startswith(prefix):
                return name
        return None

    def add_span(
        self, name: str, start_ns: int, end_ns: int, parent: int = -1,
        op_id: "str | None" = None, tid: int = 0,
    ) -> int:
        """Record a finished span measured elsewhere; returns its index."""
        self.spans.append([name, start_ns, end_ns, parent, op_id, tid])
        return len(self.spans) - 1

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` timed as a span called ``name``.

        ``on_result(tracer, args, kwargs, result)`` runs after the span
        closes, to count work from the call's arguments or result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [
                name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                tracer.op_id, threading.get_ident(),
            ]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    # -- installing -----------------------------------------------------
    def patch_function(self, module_name: str, attr: str, name: str, on_result=None):
        """Wrap ``module.attr`` and every alias of it in loaded ``repro`` modules."""
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(name, original, on_result)
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            aliases = [k for k, v in vars(module).items() if v is original]
            for key in aliases:
                self._patches.append((module, key, original))
                setattr(module, key, traced)

    def patch_method(self, cls: type, attr: str, name: str, on_result=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def wrapper_cost_ns(calls: int = 20000, repeats: int = 5) -> float:
    """Median extra nanoseconds a traced call costs over a bare one."""
    tracer = Tracer()

    def bare() -> None:
        return None

    traced = tracer.wrap("calibration", bare)

    def per_call(fn) -> float:
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        return (time.perf_counter_ns() - start) / calls

    costs = sorted(per_call(traced) - per_call(bare) for _ in range(repeats))
    return max(costs[len(costs) // 2], 0.0)


# -- analysis -------------------------------------------------------------
def _covered_ns(intervals: "list[tuple[int, int]]", lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: "list[list]") -> "dict[str, float]":
    """Seconds per span name of duration minus the time its children cover."""
    children: "dict[int, list[tuple[int, int]]]" = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    totals: "dict[str, float]" = defaultdict(float)
    for index, span in enumerate(spans):
        covered = _covered_ns(children.get(index, []), span[START], span[END])
        totals[span[NAME]] += (span[END] - span[START] - covered) / 1e9
    return dict(totals)


def inclusive_times(spans: "list[list]", name: str) -> float:
    """Seconds covered by outermost spans called ``name``."""
    total = 0
    for span in spans:
        parent = span[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == name:
                nested = True
                break
            parent = spans[parent][PARENT]
        if span[NAME] == name and not nested:
            total += span[END] - span[START]
    return total / 1e9


def unattributed_s(spans: "list[list]", start_ns: int, end_ns: int) -> float:
    """Seconds of ``[start_ns, end_ns]`` that no root span covers."""
    roots = [(s[START], s[END]) for s in spans if s[PARENT] < 0]
    return (end_ns - start_ns - _covered_ns(roots, start_ns, end_ns)) / 1e9


def chrome_trace(spans: "list[list]", metadata: dict) -> dict:
    """Chrome-trace JSON (``chrome://tracing``, Perfetto) for ``spans``."""
    origin = min((s[START] for s in spans), default=0)
    tids: "dict[int, int]" = {}
    events = []
    for index, span in enumerate(spans):
        events.append({
            "name": span[NAME],
            "ph": "X",
            "ts": (span[START] - origin) / 1e3,
            "dur": (span[END] - span[START]) / 1e3,
            "pid": 1,
            "tid": tids.setdefault(span[TID], len(tids)),
            "args": {"index": index, "parent": span[PARENT], "op": span[OP]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}
