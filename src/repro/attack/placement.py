"""Per-frame optimal trigger position search (paper Eq. 2).

For every candidate position on the human body, the optimizer simulates
the trigger's signal contribution, regenerates the DRAI heatmaps, extracts
CNN features with the surrogate model, and scores

    alpha * || l(h(R(y'))) - l(h(R(y))) ||_2          (feature change)
    - beta * || h(R(y')) - h(R(y)) ||_2               (heatmap deviation)

per frame — maximizing the feature shift the LSTM can latch onto while
keeping the poisoned heatmaps close to clean ones (stealth, Fig. 5).

The paper notes measuring this physically at every body position is
impractical; like the paper, we run the search entirely inside the RF
simulator.  The trigger rides rigidly on the torso, so its facet
contribution is computed once per candidate and added to every frame's
base cube (arm-trigger occlusion interplay is neglected, a second-order
effect for chest-front candidates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.generation import SampleGenerator
from ..geometry.human import BODY_ATTACHMENT_POINTS, BodyShape, HumanModel, TrajectoryStyle
from ..geometry.mesh import place_sequence
from ..models.cnn_lstm import CNNLSTMClassifier
from ..radar.heatmap import drai_sequence
from ..runtime.telemetry import metrics, span
from .trigger import ReflectorTrigger


@dataclass(frozen=True)
class PlacementConfig:
    """Weights and candidate-set options of the Eq. 2 search."""

    #: Weight of the feature-distance term (``alpha`` in Eq. 2).
    alpha: float = 1.0
    #: Weight of the heatmap-deviation penalty (``beta`` in Eq. 2).
    beta: float = 0.25
    #: Include the named body attachment points as candidates.
    use_named_points: bool = True
    #: Torso-front grid resolution (0 disables the grid).
    grid_nx: int = 3
    grid_nz: int = 5

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if not self.use_named_points and (self.grid_nx < 1 or self.grid_nz < 1):
            raise ValueError("candidate set would be empty")


@dataclass
class PlacementResult:
    """Output of the per-frame position search.

    ``objective`` is the ``(num_candidates, num_frames)`` Eq. 2 score
    matrix; per-frame optima are its argmax rows.
    """

    candidate_positions: np.ndarray  # (C, 3) subject-local
    candidate_names: "list[str]"
    objective: np.ndarray  # (C, T)
    feature_distance: np.ndarray  # (C, T)
    heatmap_deviation: np.ndarray  # (C, T)

    @property
    def num_frames(self) -> int:
        return self.objective.shape[1]

    @property
    def per_frame_best_index(self) -> np.ndarray:
        """``(T,)`` candidate index maximizing the objective per frame."""
        return self.objective.argmax(axis=0)

    @property
    def per_frame_best_position(self) -> np.ndarray:
        """``(T, 3)`` the per-frame optimal positions ``op_i`` of Eq. 4."""
        return self.candidate_positions[self.per_frame_best_index]

    def best_overall_index(self, frame_weights: np.ndarray | None = None) -> int:
        """Candidate maximizing the (optionally weighted) mean objective."""
        if frame_weights is None:
            scores = self.objective.mean(axis=1)
        else:
            weights = np.asarray(frame_weights, dtype=float)
            weights = np.clip(weights, 0.0, None)
            total = weights.sum()
            if total <= 0.0:
                weights = np.ones(self.num_frames) / self.num_frames
            else:
                weights = weights / total
            scores = self.objective @ weights
        return int(scores.argmax())


def candidate_positions(
    model: HumanModel, config: PlacementConfig
) -> "tuple[np.ndarray, list[str]]":
    """The candidate set: named attachment points plus a torso-front grid."""
    positions = []
    names = []
    if config.use_named_points:
        for name, point in BODY_ATTACHMENT_POINTS.items():
            positions.append(np.asarray(point, dtype=float))
            names.append(name)
    if config.grid_nx >= 1 and config.grid_nz >= 1:
        grid = model.torso_front_grid(config.grid_nx, config.grid_nz)
        for index, point in enumerate(grid):
            positions.append(point)
            names.append(f"grid_{index}")
    return np.stack(positions), names


#: Cap on the synthesized trigger-cube bytes held live per scoring batch;
#: candidates are sliced so ``C_batch * sizeof(sequence cube)`` stays
#: under it (the default preset's 32-frame cube is ~1 MB/frame, so the
#: full ~22-candidate set fits in one batch at micro/test sizes while
#: paper-scale sequences still get sliced).
BATCH_CUBE_BUDGET_BYTES = 256 * 1024 * 1024


def _score_from_trigger_cubes(
    trigger_cubes,
    surrogate,
    base_cubes,
    clean_heatmaps,
    clean_features,
    heatmap_config,
) -> "tuple[np.ndarray, np.ndarray]":
    """Eq. 2 terms from one candidate's synthesized trigger contribution.

    DRAI regeneration stays per-candidate: background clutter removal
    subtracts a sequence-long mean, so heatmaps (and hence features) are
    only well-defined over one candidate's ``T``-frame sequence at a time.
    """
    num_frames = len(base_cubes)
    poisoned = drai_sequence(base_cubes + trigger_cubes, heatmap_config)
    poisoned_features = surrogate.frame_features(poisoned)[0]
    d_feat = np.linalg.norm(poisoned_features - clean_features, axis=1)
    d_heat = np.linalg.norm(
        (poisoned - clean_heatmaps).reshape(num_frames, -1), axis=1
    )
    return d_feat, d_heat


def _score_candidates_batched(
    simulator,
    surrogate,
    trigger,
    positions,
    transforms,
    base_cubes,
    clean_heatmaps,
    clean_features,
    heatmap_config,
    max_batch_bytes: int = BATCH_CUBE_BUDGET_BYTES,
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Score many candidates with one stacked synthesis per batch.

    Every candidate is the same trigger mesh translated to a different
    attachment point, riding the same per-frame torso transforms — so all
    ``C x T`` posed meshes share topology and one ``simulate_sequence``
    call covers them.  The batched simulator kernel computes each frame
    from its own contiguous facet rows (per-row phase terms, one GEMM per
    frame), so concatenating candidates along the frame axis is
    bit-identical to synthesizing each candidate's ``T`` frames alone.
    Velocity estimation is off (static rigid trigger), which also removes
    the only cross-frame operation.

    Only synthesis is batched; DRAI and feature extraction remain
    per-candidate (see :func:`_score_from_trigger_cubes`).  Candidate
    slices are bounded by ``max_batch_bytes`` of synthesized cube.
    """
    num_frames = len(base_cubes)
    per_candidate_bytes = max(1, int(np.asarray(base_cubes).nbytes))
    per_batch = max(1, int(max_batch_bytes // per_candidate_bytes))
    scores: "list[tuple[np.ndarray, np.ndarray]]" = []
    for start in range(0, len(positions), per_batch):
        chunk = positions[start:start + per_batch]
        posed = [
            trigger.mesh_at(position).transformed(tr)
            for position in chunk
            for tr in transforms
        ]
        with span(
            "attack.placement.synthesize_batch",
            candidates=len(chunk), frames=num_frames,
        ):
            stacked = simulator.simulate_sequence(
                posed, estimate_velocities=False
            )
        cubes = stacked.reshape(len(chunk), num_frames, *stacked.shape[1:])
        for index in range(len(chunk)):
            scores.append(
                _score_from_trigger_cubes(
                    cubes[index], surrogate,
                    base_cubes, clean_heatmaps, clean_features, heatmap_config,
                )
            )
    return scores


class TriggerPlacementOptimizer:
    """Runs the Eq. 2 search for one activity execution."""

    def __init__(
        self,
        surrogate: CNNLSTMClassifier,
        generator: SampleGenerator,
        trigger: ReflectorTrigger,
        config: PlacementConfig | None = None,
    ):
        self.surrogate = surrogate
        self.generator = generator
        self.trigger = trigger
        self.config = config or PlacementConfig()

    def optimize(
        self,
        activity: str,
        distance_m: float,
        angle_deg: float,
        stature: float = 1.0,
        style: TrajectoryStyle | None = None,
    ) -> PlacementResult:
        """Score every candidate position for every frame of one execution."""
        with span("attack.placement.optimize", activity=activity) as _span:
            generator = self.generator
            simulator = generator.simulator
            style = style or TrajectoryStyle()
            bodies, transforms = generator.sample_scene(
                activity, distance_m, angle_deg, stature, style
            )
            base_cubes = simulator.simulate_sequence(
                place_sequence(bodies, transforms),
                extra_facets=generator._environment_facets or None,
            )
            heatmap_config = generator.config.heatmap
            clean_heatmaps = drai_sequence(base_cubes, heatmap_config)
            clean_features = self.surrogate.frame_features(clean_heatmaps)[0]

            human = HumanModel(BodyShape(stature_scale=stature))
            candidates, names = candidate_positions(human, self.config)
            _span.set(candidates=len(candidates))

            num_frames = len(base_cubes)
            objective = np.zeros((len(candidates), num_frames))
            feature_distance = np.zeros_like(objective)
            heatmap_deviation = np.zeros_like(objective)

            with span("attack.placement.candidates", candidates=len(candidates)):
                scores = _score_candidates_batched(
                    simulator, self.surrogate, self.trigger, candidates,
                    transforms, base_cubes, clean_heatmaps, clean_features,
                    heatmap_config,
                )
            for c_index, (d_feat, d_heat) in enumerate(scores):
                feature_distance[c_index] = d_feat
                heatmap_deviation[c_index] = d_heat
                objective[c_index] = (
                    self.config.alpha * d_feat - self.config.beta * d_heat
                )
            metrics().counter("attack.candidates_scored").inc(len(candidates))

        return PlacementResult(
            candidate_positions=candidates,
            candidate_names=names,
            objective=objective,
            feature_distance=feature_distance,
            heatmap_deviation=heatmap_deviation,
        )
