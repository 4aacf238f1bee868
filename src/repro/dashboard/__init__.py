"""Repro dashboard: a read-only control plane over emitted artifacts.

Six PRs of pipeline and serving work emit schema-versioned artifacts —
run records under ``runs/``, ``BENCH_*.json`` perf results, sweep
journals, and a live server's fleet-merged ``GET /metrics`` — but until
now a human had to excavate them from JSON by hand.  ``repro dashboard``
fronts them with a small stdlib HTTP app (the same
``ThreadingHTTPServer`` style as :mod:`repro.serve.http`, zero new
dependencies):

``repro.dashboard.data``
    Pure read-side indexing: the runs directory, bench trajectories
    across ``BENCH_*.json`` files (v2 to v5), bench-vs-bench diffs,
    campaign-journal tailing, and the fleet ``/metrics`` proxy.
``repro.dashboard.server``
    The HTTP app: ``GET /`` (a tiny self-refreshing HTML page) plus the
    ``/api/*`` JSON endpoints the page — or ``curl`` — consumes.
``repro.dashboard.cli``
    The ``repro dashboard`` verb wiring.
"""

from .data import DashboardData
from .server import DashboardServer, build_dashboard_server

__all__ = [
    "DashboardData",
    "DashboardServer",
    "build_dashboard_server",
]
