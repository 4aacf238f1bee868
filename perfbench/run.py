"""Benchmark of the reproduction: sample synthesis, one attack campaign
cell, and fleet-served predictions.

Run from the root of a checkout::

    python3 perfbench/run.py --workload datagen --seed 0 --seconds 10 --trace 0

The workload's inputs derive from ``--seed``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the workload under the per-layer
wrappers of ``perfbench/tracing.py`` (serve: from the stage timings each
reply carries) and reports per-layer metrics, writing the spans as
Chrome-trace JSON.  Every metric is printed
with its unit; the last stdout line is the JSON result.  Scratch files
live under ``.perfbench/`` in the checkout and are removed afterwards;
result and trace files stay there.  The benchmark sets no BLAS or OpenMP
thread variables; it records them, and the rest of the machine's
provenance, in the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _parse(argv: "list[str]") -> argparse.Namespace:
    sys.path.insert(0, str(HERE))
    import catalog

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="do the workload's set-up in this interpreter and exit "
             "(the benchmark times fresh interpreters doing this)",
    )
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _setup_only(workload: str, seed: int) -> None:
    import workloads

    if workload == "datagen":
        workloads._datagen_setup(seed)
    else:
        from repro.campaigns.runner import CampaignRunner

        CampaignRunner(workloads.cell_config(seed * 1000), workers=1)


def _print_report(args, outcome, units: dict, path: Path) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in outcome.metrics.items():
        print(f"  {name:24s} {value:14.6g} {units[name]}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed} "
          f"correct={outcome.correct} details={path}")


def main(argv: "list[str]") -> int:
    args = _parse(argv)
    _import_program()
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0

    import catalog
    import stats
    import tracing
    import workloads

    # Let a SIGTERM from outside unwind through the cleanup below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Nothing may touch ~/.cache, the repo's runs/ or a shared registry.
    for name, sub in (("REPRO_CACHE_DIR", "cache"), ("REPRO_RUNS_DIR", "runs")):
        env[name] = os.environ[name] = str(work / sub)
    trace = bool(args.trace)
    started = time.time()
    try:
        if args.workload == "datagen":
            outcome = workloads.datagen(args.seed, args.seconds, trace, env)
        elif args.workload == "attack_cell":
            outcome = workloads.attack_cell(args.seed, args.seconds, trace, env, work)
        else:
            outcome = workloads.serve(args.seed, args.seconds, trace, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = catalog.PER_LAYER if trace else catalog.END_TO_END
    units = {name: metric["unit"] for name, metric in wanted.items()}
    outcome.metrics = {name: outcome.metrics[name] for name in units}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = OUT / f"{stem}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "workload_spec": {
            "why": catalog.WHY[args.workload], **catalog.WORKLOADS[args.workload]
        },
        "provenance": stats.provenance(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": outcome.correct,
        "metrics": outcome.metrics,
        "info": outcome.info,
    }
    if trace:
        trace_path = OUT / f"{stem}.chrome.json"
        trace_path.write_text(json.dumps(tracing.chrome_trace(outcome.spans, record)))
        record["chrome_trace"] = str(trace_path.relative_to(ROOT))
    details.write_text(json.dumps(record, indent=2) + "\n")
    _print_report(args, outcome, units, details.relative_to(ROOT))
    print(json.dumps({
        "correct": outcome.correct and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
