"""Stdlib HTTP app for the dashboard (``repro dashboard``).

The same ``ThreadingHTTPServer`` shape as :mod:`repro.serve.http`, but
read-only and artifact-facing:

``GET /``
    A dependency-free HTML page that polls the JSON endpoints below and
    renders the run table, bench trajectory, and fleet metrics inline.
``GET /api/index``
    What this dashboard can see (directories, file counts, latest run).
``GET /api/runs?name=GLOB&status=S&last=N``
    Run-record listing (same filters as ``repro stats --list``).
``GET /api/runs/<file>``
    One record's full JSON by bare filename.
``GET /api/campaigns?last=N``
    Campaign-record listing (``repro stats --list --campaign``'s view).
``GET /api/campaigns/<file>``
    One campaign record plus a derived experiment x seed cell matrix.
``GET /api/bench/trajectory``
    One labeled point per ``BENCH_*.json`` — stage minima, throughput,
    speedups — for charting perf over time.
``GET /api/bench/diff?a=<file>&b=<file>``
    Per-stage min_s delta/ratio between two bench files.
``GET /api/journal?offset=N``
    Sweep-journal tail from line N; clients poll with ``next_offset``.
``GET /api/fleet``
    Live ``GET /metrics`` proxied from ``--server-url`` (503 when the
    fleet is down or unconfigured — the dashboard itself stays up).

Errors are typed JSON (404 unknown route/record, 400 bad query, 503
unreachable fleet), mirroring the serving front door's conventions.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..runtime.logging import get_logger
from .data import DashboardData

_log = get_logger("dashboard.server")

_INDEX_HTML = """<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>repro dashboard</title>
<style>
  body { font-family: monospace; margin: 2em; background: #111; color: #ddd; }
  h1, h2 { color: #8fd; font-weight: normal; }
  table { border-collapse: collapse; margin: 1em 0; }
  td, th { border: 1px solid #444; padding: 0.3em 0.8em; text-align: left; }
  th { background: #222; }
  .ok { color: #8f8; } .failed { color: #f88; } .unknown { color: #aaa; }
  pre { background: #181818; padding: 1em; overflow-x: auto; }
</style>
</head>
<body>
<h1>repro dashboard</h1>
<div id="index"></div>
<h2>runs</h2><div id="runs">loading...</div>
<h2>campaigns</h2><div id="campaigns">loading...</div>
<h2>bench trajectory</h2><div id="bench">loading...</div>
<h2>fleet</h2><div id="fleet">loading...</div>
<script>
async function fetchJson(url) {
  const response = await fetch(url);
  return { status: response.status, body: await response.json() };
}
function cell(value) { return value === null || value === undefined ? "-" : value; }
async function refresh() {
  const index = await fetchJson("/api/index");
  document.getElementById("index").innerHTML =
    "<pre>" + JSON.stringify(index.body, null, 2) + "</pre>";
  const runs = await fetchJson("/api/runs?last=20");
  const rows = runs.body.runs.map(r =>
    `<tr><td>${r.timestamp}</td><td>${r.name}</td>` +
    `<td class="${r.status}">${r.status}</td><td>${r.git_revision}</td>` +
    `<td>${r.file}</td></tr>`).join("");
  document.getElementById("runs").innerHTML =
    "<table><tr><th>timestamp</th><th>name</th><th>status</th>" +
    "<th>git</th><th>file</th></tr>" + rows + "</table>";
  const campaigns = await fetchJson("/api/campaigns?last=20");
  const campaignRows = campaigns.body.campaigns.map(c =>
    `<tr><td>${c.timestamp}</td><td>${c.name}</td>` +
    `<td class="${c.status}">${c.status}</td><td>${c.git_revision}</td>` +
    `<td>${c.file}</td></tr>`).join("");
  document.getElementById("campaigns").innerHTML = campaignRows
    ? "<table><tr><th>timestamp</th><th>campaign</th><th>status</th>" +
      "<th>git</th><th>file</th></tr>" + campaignRows + "</table>"
    : "<p>no campaign records</p>";
  const bench = await fetchJson("/api/bench/trajectory");
  const points = bench.body.points.map(p =>
    `<tr><td>${p.file}</td><td>${cell(p.meta && p.meta.git_sha)}</td>` +
    `<td>${cell(p.samples_per_s && p.samples_per_s.toFixed(3))}</td></tr>`
  ).join("");
  document.getElementById("bench").innerHTML =
    "<table><tr><th>file</th><th>git</th>" +
    "<th>samples/s</th></tr>" + points + "</table>";
  const fleet = await fetchJson("/api/fleet");
  document.getElementById("fleet").innerHTML = fleet.status === 200
    ? "<pre>" + JSON.stringify(fleet.body.metrics, null, 2) + "</pre>"
    : `<p class="failed">${fleet.body.error.message}</p>`;
}
refresh();
setInterval(refresh, 5000);
</script>
</body>
</html>
"""


class DashboardServer(ThreadingHTTPServer):
    """HTTP front end owning one :class:`DashboardData` view."""

    daemon_threads = True

    def __init__(self, address: "tuple[str, int]", data: DashboardData):
        super().__init__(address, _Handler)
        self.data = data

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def __enter__(self) -> "DashboardServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.server_close()


class _Handler(BaseHTTPRequestHandler):
    server: DashboardServer

    server_version = "repro-dashboard/1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_html(self, body: str) -> None:
        encoded = body.encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        parsed = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(parsed.query)
        try:
            self._route(parsed.path, query)
        except ValueError as exc:
            self._send_json(400, {
                "error": {"type": "ValidationError", "message": str(exc)}
            })
        except ConnectionError as exc:
            self._send_json(503, {
                "error": {"type": "FleetUnavailable", "message": str(exc)}
            })
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            _log.warning("dashboard request failed: %r", exc)
            self._send_json(500, {
                "error": {"type": "InternalError", "message": repr(exc)}
            })

    def _route(self, path: str, query: "dict[str, list[str]]") -> None:
        data = self.server.data
        if path == "/":
            self._send_html(_INDEX_HTML)
        elif path == "/api/index":
            self._send_json(200, data.index())
        elif path == "/api/runs":
            self._send_json(200, {"runs": data.runs(
                name=_single(query, "name"),
                status=_single(query, "status"),
                last=_int_param(query, "last"),
            )})
        elif path.startswith("/api/runs/"):
            filename = urllib.parse.unquote(path[len("/api/runs/"):])
            detail = data.run_detail(filename)
            if detail is None:
                self._send_json(404, {
                    "error": {"type": "NotFound", "message": filename}
                })
            else:
                self._send_json(200, detail)
        elif path == "/api/campaigns":
            self._send_json(200, {"campaigns": data.campaigns(
                last=_int_param(query, "last"),
            )})
        elif path.startswith("/api/campaigns/"):
            filename = urllib.parse.unquote(path[len("/api/campaigns/"):])
            detail = data.campaign_detail(filename)
            if detail is None:
                self._send_json(404, {
                    "error": {"type": "NotFound", "message": filename}
                })
            else:
                self._send_json(200, detail)
        elif path == "/api/bench/trajectory":
            self._send_json(200, data.bench_trajectory())
        elif path == "/api/bench/diff":
            file_a = _single(query, "a")
            file_b = _single(query, "b")
            if not file_a or not file_b:
                raise ValueError("bench diff requires ?a=<file>&b=<file>")
            self._send_json(200, data.bench_diff(file_a, file_b))
        elif path == "/api/journal":
            offset = _int_param(query, "offset") or 0
            self._send_json(200, data.journal_tail(offset))
        elif path == "/api/fleet":
            self._send_json(200, data.fleet_metrics())
        else:
            self._send_json(404, {
                "error": {"type": "NotFound", "message": path}
            })


def _single(query: "dict[str, list[str]]", key: str) -> "str | None":
    values = query.get(key)
    return values[-1] if values else None


def _int_param(query: "dict[str, list[str]]", key: str) -> "int | None":
    raw = _single(query, key)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"query parameter {key!r} must be an integer: {raw!r}")
    if value < 0:
        raise ValueError(f"query parameter {key!r} must be >= 0")
    return value


def build_dashboard_server(
    host: str = "127.0.0.1",
    port: int = 8078,
    runs_dir=None,
    bench_dir=None,
    journal_path=None,
    server_url: "str | None" = None,
) -> DashboardServer:
    """Directories -> ready-to-serve dashboard (call ``serve_forever``)."""
    data = DashboardData(
        runs_dir=runs_dir,
        bench_dir=bench_dir,
        journal_path=journal_path,
        server_url=server_url,
    )
    return DashboardServer((host, port), data)
