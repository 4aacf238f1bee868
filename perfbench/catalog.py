"""What the benchmark measures: ``BENCHMARK.json``, plus the wiring that
file's fixed schema cannot hold.

``BENCHMARK.json`` at the repository root names the workloads, each with
a one-line reason, and every metric with its unit, direction and bound.
This module reads it and adds each workload's operation, loop kind and
client count, and for every per-layer metric the end-to-end metric and
workload it should move.

Every workload reports every metric.  The end-to-end metrics are per
*operation*, and each workload defines its operation: one synthesized
DRAI sample, one campaign cell, or one served request.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: Metric name -> its ``BENCHMARK.json`` entry (unit, better, bound).
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in BENCHMARK["per_layer"]}
WHY = {workload["name"]: workload["why"] for workload in BENCHMARK["workloads"]}

WORKLOADS = {
    "datagen": {"op": "sample", "loop": "closed", "clients": 1},
    "attack_cell": {"op": "cell", "loop": "closed", "clients": 1},
    "serve": {"op": "request", "loop": "closed", "clients": 2},
}

_DATAGEN = (
    ("ops_per_s", "datagen"),
    ("latency_p50_ms", "datagen"),
    ("latency_p50_ms", "attack_cell"),
)
_CELL = (("latency_p50_ms", "attack_cell"),)
_SERVE = (
    ("ops_per_s", "serve"),
    ("latency_p50_ms", "serve"),
    ("latency_tail_ms", "serve"),
)

#: Per-layer metric -> ``(end-to-end metric, workload)`` pairs it should
#: move.  The ``trace.*`` entries describe the measurement, not a layer.
MOVES = {
    # Sample synthesis (also ~15% of a campaign cell).
    **dict.fromkeys(
        "geometry.pose_s radar.simulate_s radar.noise_s radar.drai_s "
        "radar.range_fft_s radar.doppler_fft_s radar.angle_fft_s "
        "datasets.generate_s datasets.samples radar.chirps".split(),
        _DATAGEN,
    ),
    # Campaign cell: the model, the attack chain and the campaign layer.
    **dict.fromkeys(
        "nn.conv2d_fwd_s nn.maxpool_fwd_s nn.lstm_fwd_s nn.linear_fwd_s "
        "nn.loss_s nn.backward_s nn.conv2d_bwd_s nn.maxpool_bwd_s "
        "nn.optimizer_s models.fit_s models.validate_s models.infer_s "
        "models.infer_incl_s xai.shap_s attack.placement_s attack.pair_pool_s "
        "attack.triggered_test_s datasets.cache_s eval.experiments_s "
        "campaigns.overhead_s nn.train_samples models.epochs attack.candidates "
        "models.useful_epochs".split(),
        _CELL,
    ),
    # Serving stages, from the spans_ms every response carries.
    **dict.fromkeys(
        "serve.enqueue_ms serve.dispatch_ms serve.batch_wait_ms "
        "serve.predict_ms serve.fanout_ms serve.client_ms serve.batch_fill "
        "serve.replica_skew serve.requests serve.non_200".split(),
        _SERVE,
    ),
    **dict.fromkeys("trace.wall_s trace.unattributed_s trace_overhead".split(), ()),
}
