"""Design-choice ablations for the modelling decisions in DESIGN.md.

DESIGN.md documents four physics-driven modelling choices (torso
micro-motion, clutter-map + temporal-median DRAI, the specular trigger
gain, and the brighter moving limb).  The functions here quantify each one
directly on the signal pipeline — no model training — so the ablations run
in seconds and make the design trade-offs inspectable:

* :func:`ablate_clutter_removal` — how well each clutter strategy keeps
  the gesturing hand while suppressing the (breathing) torso.
* :func:`ablate_sway_amplitude` — how body micro-motion controls what
  survives background subtraction (and hence whether a body-worn trigger
  is visible at all).
* :func:`ablate_specular_gain` — trigger visibility in the DRAI heatmaps
  as a function of the flat-plate specular gain.
* :func:`ablate_shap_estimators` — kernel vs permutation Shapley:
  agreement and cost as the sampling budget grows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..attack.trigger import ReflectorTrigger
from ..datasets.generation import GenerationConfig, SampleGenerator
from ..geometry.human import BODY_ATTACHMENT_POINTS
from ..geometry.mesh import TriangleMesh, place_sequence
from ..models.cnn_lstm import CNNLSTMClassifier
from ..radar.heatmap import drai_sequence, heatmap_deviation
from ..radar.noise import add_thermal_noise
from ..xai.shap import KernelShapExplainer, PermutationShapExplainer, ShapConfig

CHEST = np.array(BODY_ATTACHMENT_POINTS["chest"])


def _hand_range_bins(
    generator: SampleGenerator, meshes: "list[TriangleMesh]", hand: slice
) -> np.ndarray:
    """Per-frame range bin of the hand (ground truth from the world meshes).

    ``hand`` is the hand sphere's vertex block; its vertex closest to the
    radar is the leading edge of the hand.
    """
    chirp = generator.config.radar.chirp
    start = generator.config.heatmap.range_bin_start
    return np.asarray([
        chirp.range_bin_for(float(np.linalg.norm(mesh.vertices[hand], axis=1).min()))
        - start
        for mesh in meshes
    ])


@dataclass
class ClutterRemovalAblation:
    """Per-strategy gesture-tracking score.

    ``tracking_score`` is the fraction of frames whose heatmap peak falls
    within +/- 2 range bins of the hand's true position — the quantity the
    classifier ultimately depends on.
    """

    rows: "list[tuple[str, float]]"  # (strategy label, tracking score)

    def best(self) -> str:
        return max(self.rows, key=lambda row: row[1])[0]


def ablate_clutter_removal(
    generator: SampleGenerator,
    activity: str = "push",
    distance_m: float = 1.2,
    tolerance_bins: int = 2,
) -> ClutterRemovalAblation:
    """Compare DRAI clutter strategies on hand-tracking fidelity.

    One execution is sampled; its world meshes are both simulated (with
    the generator's environment and thermal noise) and the ground truth.
    """
    bodies, transforms = generator.sample_scene(activity, distance_m, 0.0)
    meshes = place_sequence(bodies, transforms)
    cubes = generator.simulator.simulate_sequence(
        meshes, extra_facets=generator._environment_facets or None
    )
    cubes = add_thermal_noise(cubes, generator.config.snr_db, generator.rng)
    truth = _hand_range_bins(
        generator, meshes, generator._human_model(1.0).hand_vertices
    )
    base = generator.config.heatmap
    strategies = [
        ("background+median", replace(base, clutter_removal="background",
                                      dynamic_median=True)),
        ("background", replace(base, clutter_removal="background",
                               dynamic_median=False)),
        ("mti", replace(base, clutter_removal="mti", dynamic_median=False)),
        ("none", replace(base, clutter_removal="none", dynamic_median=False)),
    ]
    rows = []
    for label, config in strategies:
        heatmaps = drai_sequence(cubes, config)
        peaks = heatmaps.sum(axis=2).argmax(axis=1)
        hits = np.abs(peaks - truth) <= tolerance_bins
        rows.append((label, float(hits.mean())))
    return ClutterRemovalAblation(rows=rows)


@dataclass
class SwayAblation:
    """Residual subject energy after clutter removal vs sway amplitude."""

    amplitudes_m: "tuple[float, ...]"
    residual_energy: "list[float]"


def ablate_sway_amplitude(
    base_config: GenerationConfig,
    amplitudes_m: "tuple[float, ...]" = (0.0, 0.001, 0.002, 0.004, 0.008),
    seed: int = 0,
) -> SwayAblation:
    """How micro-motion controls post-clutter-removal visibility.

    With zero sway the (static) torso vanishes entirely from DRAI — the
    degenerate case that also hides any body-worn trigger; real
    millimeter-scale motion saturates quickly because it spans multiple
    carrier wavelengths.
    """
    energies = []
    for amplitude in amplitudes_m:
        config = replace(
            base_config,
            sway_amplitude_m=amplitude,
            breathing_amplitude_m=amplitude,
            environment_objects=0,
        )
        generator = SampleGenerator(config, seed=seed)
        # A "null gesture": hand held still, so everything that survives
        # clutter removal is micro-motion residual.
        heatmap_config = replace(config.heatmap, normalize=False)
        bodies, transforms = generator.sample_scene("push", 1.2, 0.0)
        still = [bodies[0]] * len(bodies)
        cubes = generator.simulator.simulate_sequence(place_sequence(still, transforms))
        heatmaps = drai_sequence(cubes, heatmap_config)
        energies.append(float(np.abs(heatmaps).sum()))
    return SwayAblation(amplitudes_m=tuple(amplitudes_m), residual_energy=energies)


@dataclass
class SpecularGainAblation:
    """Trigger heatmap deviation vs specular gain."""

    gains: "tuple[float, ...]"
    relative_l2: "list[float]"
    max_abs: "list[float]"


def ablate_specular_gain(
    generator: SampleGenerator,
    gains: "tuple[float, ...]" = (1.0, 5.0, 15.0, 30.0),
    activity: str = "push",
) -> SpecularGainAblation:
    """Trigger visibility as a function of the flat-plate gain factor."""
    relative, peaks = [], []
    for gain in gains:
        trigger = ReflectorTrigger(specular_gain=gain)
        mesh = trigger.mesh_at(CHEST)
        clean, triggered = generator.generate_paired_sample(
            activity, 1.2, 0.0, mesh
        )
        deviation = heatmap_deviation(clean, triggered)
        relative.append(deviation["relative_l2"])
        peaks.append(deviation["max_abs"])
    return SpecularGainAblation(gains=tuple(gains), relative_l2=relative,
                                max_abs=peaks)


@dataclass
class ShapEstimatorAblation:
    """Kernel vs permutation Shapley as the budget grows."""

    budgets: "tuple[int, ...]"
    agreement: "list[float]"  # Pearson correlation between estimators
    kernel_seconds: "list[float]"
    permutation_seconds: "list[float]"


def ablate_shap_estimators(
    model: CNNLSTMClassifier,
    features: np.ndarray,
    budgets: "tuple[int, ...]" = (32, 64, 128, 256),
    class_index: int = 0,
    seed: int = 0,
) -> ShapEstimatorAblation:
    """Estimator agreement and cost vs sampling budget."""
    agreement, kernel_times, permutation_times = [], [], []
    for budget in budgets:
        config = ShapConfig(num_samples=budget, seed=seed)
        start = time.perf_counter()
        phi_k = KernelShapExplainer(model, config).explain(features, class_index)
        kernel_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        phi_p = PermutationShapExplainer(model, config).explain(
            features, class_index
        )
        permutation_times.append(time.perf_counter() - start)
        agreement.append(float(np.corrcoef(phi_k, phi_p)[0, 1]))
    return ShapEstimatorAblation(
        budgets=tuple(budgets),
        agreement=agreement,
        kernel_seconds=kernel_times,
        permutation_seconds=permutation_times,
    )


def format_clutter_ablation(result: ClutterRemovalAblation) -> str:
    lines = ["Hand-tracking score by clutter strategy (fraction of frames"
             " whose peak tracks the hand):"]
    for label, score in result.rows:
        lines.append(f"  {label:>18}: {score:.0%}")
    lines.append(f"  best: {result.best()}")
    return "\n".join(lines)


def format_sway_ablation(result: SwayAblation) -> str:
    lines = ["Residual DRAI energy of a motionless subject vs micro-motion"
             " amplitude:"]
    for amplitude, energy in zip(result.amplitudes_m, result.residual_energy):
        lines.append(f"  {amplitude * 1000:>5.1f} mm: {energy:,.0f}")
    return "\n".join(lines)


def format_specular_ablation(result: SpecularGainAblation) -> str:
    lines = ["Trigger heatmap deviation vs specular gain:"]
    for gain, rel, peak in zip(result.gains, result.relative_l2, result.max_abs):
        lines.append(f"  gain {gain:>5.1f}: relative L2 {rel:.1%}, "
                     f"max pixel {peak:.3f}")
    return "\n".join(lines)


def format_shap_ablation(result: ShapEstimatorAblation) -> str:
    lines = ["Kernel vs permutation Shapley (agreement / cost vs budget):"]
    for budget, corr, tk, tp in zip(
        result.budgets, result.agreement,
        result.kernel_seconds, result.permutation_seconds,
    ):
        lines.append(f"  budget {budget:>4}: corr {corr:+.3f}  "
                     f"kernel {tk * 1000:.0f} ms  permutation {tp * 1000:.0f} ms")
    return "\n".join(lines)
