"""Percentiles, memory readings and run provenance for the benchmark."""

from __future__ import annotations

import math
import os
import platform
import resource
from pathlib import Path

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: "list[float]", q: float) -> "float | None":
    """Nearest-rank ``q``-th percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def median(values: "list[float]") -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: "list[float]", q: "float | None") -> "tuple[str, float]":
    """``("p<q>", value)`` when the sample supports the ``q``-th percentile,
    else (and for ``q`` None) ``("max", max)``."""
    value = None if q is None else percentile(values, q)
    if value is not None:
        return f"p{q:g}", value
    return "max", max(values)


# -- memory ---------------------------------------------------------------
def self_peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_children(pid: int) -> "list[int]":
    children = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
            children.extend(int(child) for child in text.split())
    except OSError:
        pass
    return children


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over ``pid`` and its descendants, in MiB."""
    total_kib = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
        pending.extend(_proc_children(current))
    return total_kib / 1024.0


# -- provenance -----------------------------------------------------------
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_build() -> "str | None":
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy < 1.25 has no dict mode
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return " ".join(str(blas.get(key, "")) for key in ("name", "version")).strip()


def provenance() -> dict:
    """The machine and build a result was measured on; the git revision
    is that of the current directory ("unknown" outside a git checkout)."""
    import numpy as np
    from repro.runtime.records import git_revision

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "git_sha": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas_build(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }
