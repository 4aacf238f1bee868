"""CLI verbs for the serving stack: ``publish``, ``serve``, ``infer``.

``repro publish`` trains a classifier (optionally bundling the Section
VII trigger detector) and publishes it into a registry directory
(``--gc`` then collects alias-unreachable artifacts); ``repro serve``
fronts that registry with the micro-batching HTTP server — one
in-process engine by default, a supervised crash-isolated
:class:`~repro.serve.fleet.ReplicaFleet` with ``--replicas N``;
``repro infer`` drives a running server with the concurrent load
generator (``--retry`` for the idempotent-retry client posture) and
folds the latency percentiles plus the server's metrics snapshot into a
run record, so ``repro stats`` can render the serving and fleet
histograms afterwards.  ``repro infer --chaos`` self-hosts a fleet,
injects a fault (kill -9 / hang / slow) mid-load, and asserts the
recovery SLO.

Kept separate from ``repro.cli`` so the experiment CLI stays readable;
that module registers these subparsers and dispatches here.
"""

from __future__ import annotations

import argparse
import signal
import time
from pathlib import Path

import numpy as np

from ..runtime.errors import ReproError
from ..runtime.logging import get_logger
from ..runtime.records import RunRecord, write_run_record
from ..runtime.threads import usable_cores
from .client import fetch_json, run_load
from .engine import EngineConfig
from .http import ServerConfig, build_server
from .registry import ModelRegistry

_log = get_logger("serve.cli")


def add_serve_arguments(subparsers) -> None:
    """Register the ``publish`` / ``serve`` / ``infer`` subparsers."""
    publish = subparsers.add_parser(
        "publish",
        help="train a model and publish it into a serving registry",
    )
    publish.add_argument("--registry", metavar="DIR", required=True,
                         help="registry root directory (created if missing)")
    publish.add_argument("--preset", default="fast",
                         choices=["fast", "default", "paper"])
    publish.add_argument("--seed", type=int, default=0)
    publish.add_argument("--samples-per-class", type=int, default=None,
                         metavar="N", help="override the preset's dataset size")
    publish.add_argument("--epochs", type=int, default=None, metavar="N",
                         help="override the preset's training epochs")
    publish.add_argument("--detector", action="store_true",
                         help="also train and bundle the Section VII "
                         "trigger detector for online screening")
    publish.add_argument("--detector-epochs", type=int, default=10,
                         metavar="N")
    publish.add_argument("--alias", action="append", default=None,
                         metavar="NAME",
                         help="alias(es) to point at the published model "
                         "(default: latest; repeatable)")
    publish.add_argument("--no-cache", action="store_true",
                         help="disable the on-disk dataset cache")
    publish.add_argument("--gc", action="store_true",
                         help="after publishing, remove artifact "
                         "directories unreachable from any alias")
    publish.add_argument("--gc-dry-run", action="store_true",
                         help="with --gc: report what would be removed "
                         "without deleting anything")

    serve = subparsers.add_parser(
        "serve", help="serve a model registry over HTTP"
    )
    serve.add_argument("--registry", metavar="DIR", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8077,
                       help="0 binds an ephemeral port (printed at startup)")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="most requests coalesced into one forward pass")
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="admission queue bound; beyond it requests "
                       "are shed with 429")
    serve.add_argument("--model-cache", type=int, default=2,
                       help="warm models kept resident")
    serve.add_argument("--no-screen", action="store_true",
                       help="do not run the trigger detector by default")
    serve.add_argument("--screen-threshold", type=float, default=0.5)
    serve.add_argument("--replicas", type=int, default=1, metavar="N",
                       help="engine replicas; >1 runs a supervised "
                       "crash-isolated worker fleet with health-checked "
                       "routing, respawn, and hot reload")
    serve.add_argument("--access-log", metavar="PATH", default=None,
                       help="write one JSONL access-log line per response "
                       "(request id, status, latency, replica, batch size, "
                       "per-stage spans)")

    infer = subparsers.add_parser(
        "infer", help="send predictions to a running server (load generator)"
    )
    infer.add_argument("--url", default="http://127.0.0.1:8077")
    infer.add_argument("--requests", type=int, default=16)
    infer.add_argument("--concurrency", type=int, default=8)
    infer.add_argument("--burst", action="store_true",
                       help="release every request simultaneously "
                       "(exercises 429 load shedding)")
    infer.add_argument("--deadline-ms", type=float, default=None)
    infer.add_argument("--screen", dest="screen", action="store_true",
                       default=None, help="request trigger screening")
    infer.add_argument("--no-screen", dest="screen", action="store_false",
                       help="opt out of trigger screening")
    infer.add_argument("--input", metavar="PATH", default=None,
                       help=".npy/.npz of sequences to send (default: "
                       "synthesize noise shaped by GET /healthz)")
    infer.add_argument("--seed", type=int, default=0,
                       help="seed for synthesized request sequences")
    infer.add_argument("--retry", action="store_true",
                       help="retry idempotent predicts shed with 429/503, "
                       "honoring the server's Retry-After header")
    infer.add_argument("--runs-dir", metavar="DIR", default=None,
                       help="directory for the run record "
                       "(default runs/, or REPRO_RUNS_DIR)")
    infer.add_argument("--chaos", action="store_true",
                       help="self-host a replica fleet from --registry, "
                       "inject a fault mid-load, and assert recovery")
    infer.add_argument("--registry", metavar="DIR", default=None,
                       help="registry for the self-hosted --chaos fleet")
    infer.add_argument("--chaos-fault", default="kill",
                       choices=["kill", "hang", "slow"],
                       help="fault injected by --chaos (default: kill -9)")
    infer.add_argument("--chaos-replicas", type=int, default=3, metavar="N",
                       help="fleet size for the --chaos drill")
    infer.add_argument("--chaos-slot", type=int, default=0, metavar="SLOT",
                       help="which replica slot the fault hits")


# ----------------------------------------------------------------------
# publish
# ----------------------------------------------------------------------
def run_publish(args: argparse.Namespace, log) -> int:
    # Imported lazily: the experiment stack is heavy and only this verb
    # needs it.
    from ..attack.trigger import TRIGGER_2X2
    from ..datasets.activities import ACTIVITY_NAMES
    from ..defense.augmentation import AugmentationConfig, build_augmentation_set
    from ..defense.detector import DetectorConfig, TriggerDetector
    from ..eval.experiments import ExperimentContext
    from ..eval.presets import preset_by_name
    from ..models.trainer import TrainingConfig

    preset = preset_by_name(args.preset)
    overrides = {}
    if args.samples_per_class is not None:
        overrides["samples_per_class"] = args.samples_per_class
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if overrides:
        preset = preset.scaled(**overrides)
    # The training set's samples spread over this process's cores.
    context = ExperimentContext(
        preset, seed=args.seed, use_disk_cache=not args.no_cache,
        workers=usable_cores(),
    )
    log.info(
        "training publishable model preset=%s seed=%d samples_per_class=%d",
        preset.name, args.seed, preset.samples_per_class,
    )
    model = context.train_victim(None, seed=args.seed)

    detector = None
    if args.detector:
        log.info("training trigger detector for online screening")
        triggered = build_augmentation_set(
            context.train_generator, TRIGGER_2X2, context.clean_train,
            AugmentationConfig(fraction=0.5),
        )
        config = DetectorConfig(
            training=TrainingConfig(
                epochs=args.detector_epochs, learning_rate=3e-3,
                seed=args.seed,
            )
        )
        detector = TriggerDetector(
            preset.frame_shape(), preset.num_frames, config,
            np.random.default_rng(args.seed + 7),
        )
        detector.fit(context.clean_train, triggered)

    registry = ModelRegistry(args.registry)
    aliases = tuple(args.alias) if args.alias else ("latest",)
    model_id = registry.publish(
        model, ACTIVITY_NAMES, preset.num_frames,
        detector=detector, aliases=aliases,
        extra={"preset": preset.name, "seed": args.seed},
    )
    log.info(
        "published %s to %s (aliases: %s)%s",
        model_id, args.registry, ", ".join(aliases),
        " with trigger detector" if detector is not None else "",
    )
    if args.gc or args.gc_dry_run:
        report = registry.gc(dry_run=args.gc_dry_run)
        log.info(
            "registry gc: %s %d models + %d staging dirs (%.1f KB), kept %d",
            "would remove" if report["dry_run"] else "removed",
            len(report["removed"]), report["staging_removed"],
            report["reclaimed_bytes"] / 1024, len(report["kept"]),
        )
    print(model_id)
    return 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def run_serve(args: argparse.Namespace, log) -> int:
    engine_config = EngineConfig(
        max_batch=args.max_batch,
        queue_capacity=args.queue_capacity,
        model_cache_size=args.model_cache,
        screen_by_default=not args.no_screen,
        screen_threshold=args.screen_threshold,
    )
    fleet_config = None
    if args.replicas > 1:
        from .fleet import FleetConfig

        fleet_config = FleetConfig(replicas=args.replicas, engine=engine_config)
    server = build_server(
        args.registry, engine_config,
        ServerConfig(args.host, args.port, access_log_path=args.access_log),
        fleet_config,
    )

    def _interrupt(signum: int, frame) -> None:
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _interrupt)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    # The fleet path warms on replica startup (inside server.__enter__);
    # the single-engine path warms here so the first request is not cold.
    with server:
        if fleet_config is None:
            try:
                loaded = server.engine.warm("latest")
                log.info("warmed model %s (screening: %s)",
                         loaded.model_id, loaded.detector is not None)
            except ReproError as exc:
                log.warning(
                    "no warm model yet (%s); publish one with `repro publish "
                    "--registry %s`", exc, args.registry,
                )
        else:
            log.info(
                "fleet of %d replicas up (%d READY)",
                args.replicas, server.engine.ready_count(),
            )
        print(f"serving registry {args.registry} at {server.url}", flush=True)
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            log.info("draining and shutting down")
    return 0


# ----------------------------------------------------------------------
# infer
# ----------------------------------------------------------------------
def _load_sequences(
    args: argparse.Namespace, health: dict, log
) -> "np.ndarray | None":
    """Request payloads: ``--input`` arrays, else seeded synthetic noise."""
    if args.input:
        data = np.load(args.input)
        if isinstance(data, np.lib.npyio.NpzFile):
            key = "x" if "x" in data.files else data.files[0]
            array = np.asarray(data[key])
            data.close()
        else:
            array = np.asarray(data)
        if array.ndim == 3:
            array = array[None]
        if array.ndim != 4:
            log.error(
                "--input must hold a (N, T, H, W) or (T, H, W) array, "
                "got shape %s", array.shape,
            )
            return None
        return np.ascontiguousarray(array, dtype=np.float32)
    model = health.get("model")
    if not model:
        log.error("server reports no published model and no --input given")
        return None
    shape = (
        8,
        int(model["num_frames"]),
        *(int(value) for value in model["frame_shape"]),
    )
    rng = np.random.default_rng(args.seed)
    return rng.random(shape, dtype=np.float32)


def _format_load_summary(summary: dict, model_id: "str | None") -> str:
    latency = summary["latency_ms"]
    lines = [
        f"infer: {summary['requests']} requests "
        f"({summary['mode']}, concurrency {summary['concurrency']})"
        + (f" against {model_id}" if model_id else ""),
        f"  ok {summary['ok']}  shed(429) {summary['shed_429']}  "
        f"deadline(504) {summary['deadline_504']}  "
        f"other {summary['other_errors']}",
        f"  latency ms  p50 {latency['p50']}  p95 {latency['p95']}  "
        f"p99 {latency['p99']}  mean {latency['mean']}  max {latency['max']}",
        f"  throughput  {summary['throughput_rps']} req/s "
        f"over {summary['wall_s']} s",
    ]
    if summary.get("retries"):
        lines.append(
            f"  retries     {summary['retries']} "
            f"(recovered {summary['recovered_after_retry']} requests)"
        )
    if summary["labels"]:
        label_text = " ".join(
            f"{name}={count}" for name, count in summary["labels"].items()
        )
        lines.append(f"  labels      {label_text}")
    return "\n".join(lines)


def run_infer(args: argparse.Namespace, log) -> int:
    if args.chaos:
        return _run_chaos_infer(args, log)
    base_url = args.url.rstrip("/")
    try:
        health = fetch_json(base_url, "/healthz")
    except OSError as exc:
        log.error("cannot reach server at %s: %s", base_url, exc)
        return 1
    sequences = _load_sequences(args, health, log)
    if sequences is None:
        return 2
    started = time.strftime("%Y%m%dT%H%M%S")
    summary = run_load(
        base_url,
        sequences,
        requests=args.requests,
        concurrency=args.concurrency,
        screen=args.screen,
        deadline_ms=args.deadline_ms,
        burst=args.burst,
        retry=args.retry,
    )
    try:
        server_metrics = fetch_json(base_url, "/metrics")
    except OSError as exc:  # record the load numbers even if this fails
        log.warning("could not fetch /metrics: %s", exc)
        server_metrics = {}
    model_id = (health.get("model") or {}).get("id")
    record = RunRecord(
        name="infer",
        timestamp=started,
        config={
            "url": base_url,
            "model": model_id,
            "requests": args.requests,
            "concurrency": args.concurrency,
            "burst": args.burst,
            "screen": args.screen,
            "deadline_ms": args.deadline_ms,
            "input": args.input,
            "seed": args.seed,
            "retry": args.retry,
        },
        metrics=server_metrics,
        outcome={
            "status": "ok" if summary["other_errors"] == 0 else "degraded",
            **summary,
        },
    )
    path = write_run_record(
        record, Path(args.runs_dir) if args.runs_dir else None
    )
    log.info("run record written to %s", path)
    print(_format_load_summary(summary, model_id))
    return 0 if summary["ok"] > 0 else 1


# ----------------------------------------------------------------------
# infer --chaos
# ----------------------------------------------------------------------
def _run_chaos_infer(args: argparse.Namespace, log) -> int:
    """Self-host a fleet, inject the planned fault mid-load, assert SLO."""
    import threading

    from .chaos import ChaosPlan, assert_recovery, run_chaos
    from .fleet import FleetConfig

    if not args.registry:
        log.error("--chaos needs --registry to self-host a fleet")
        return 2
    fleet_config = FleetConfig(
        replicas=args.chaos_replicas,
        engine=EngineConfig(screen_by_default=False),
        heartbeat_interval_s=0.1,
        heartbeat_miss_dead=6,
    )
    server = build_server(
        args.registry, None, ServerConfig(port=0), fleet_config
    )
    started = time.strftime("%Y%m%dT%H%M%S")
    plan = ChaosPlan(
        fault=args.chaos_fault,
        target_slot=args.chaos_slot,
        requests=args.requests,
        concurrency=args.concurrency,
    )
    with server:
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            health = fetch_json(server.url, "/healthz")
            sequences = _load_sequences(args, health, log)
            if sequences is None:
                return 2
            log.info(
                "chaos drill: %d replicas at %s, fault=%s slot=%d "
                "under %d requests",
                args.chaos_replicas, server.url, plan.fault,
                plan.target_slot, plan.requests,
            )
            report = run_chaos(server.engine, server.url, sequences, plan)
        finally:
            server.shutdown()
            thread.join()
    try:
        assert_recovery(report)
        verdict = {"status": "ok"}
    except AssertionError as exc:
        verdict = {"status": "failed", "error": str(exc)}
    record = RunRecord(
        name="chaos",
        timestamp=started,
        config={"registry": str(args.registry), **report["plan"]},
        metrics=report.get("fleet_counters") or {},
        outcome={**verdict, **report},
    )
    path = write_run_record(
        record, Path(args.runs_dir) if args.runs_dir else None
    )
    log.info("chaos run record written to %s", path)
    if verdict["status"] != "ok":
        log.error("%s", verdict["error"])
        print(f"chaos: FAILED - {verdict['error']}")
        return 1
    recovery = report["recovery"]
    print(
        f"chaos: ok - fault={plan.fault} slot={plan.target_slot} "
        f"{report['load']['ok']}/{plan.requests} requests succeeded "
        f"({report['load']['retries']} retries), recovered in "
        f"{recovery['wait_s']}s (pid {recovery['pid_before']} -> "
        f"{recovery['pid_after']}), post-recovery p99 "
        f"{report['post']['latency_ms']['p99']} ms"
    )
    return 0
