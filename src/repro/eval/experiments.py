"""Per-figure experiment runners (one per table/figure in the paper).

The :class:`ExperimentContext` owns the expensive shared state — simulated
datasets, the attacker's surrogate model, attack plans, and clean/triggered
pair pools — caching them in memory and on disk so that the 13 experiment
runners (Figs. 3-15, Table I, Sections VI-D and VII) can share work.

Experiment-to-paper mapping is listed in DESIGN.md; each runner returns a
plain result object that the benchmark harness prints with
:mod:`repro.eval.reporting`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attack.backdoor import AttackPlan, BackdoorAttack, BackdoorConfig
from ..attack.poisoning import (
    PairPool,
    PoisonRecipe,
    build_pair_pool,
    build_triggered_test_set,
    compose_poisoned_dataset,
    inject_poison,
)
from ..attack.trigger import TRIGGER_2X2, TRIGGER_4X4, ReflectorTrigger
from ..datasets.activities import (
    ROBUSTNESS_ANGLES_DEG,
    ROBUSTNESS_DISTANCES_M,
    SIMILAR_SCENARIOS,
    AttackScenario,
)
from ..datasets.cache import cached_dataset
from ..datasets.dataset import HeatmapDataset
from ..datasets.generation import SampleGenerator
from ..defense.augmentation import (
    AugmentationConfig,
    augment_training_set,
    build_augmentation_set,
)
from ..defense.detector import DetectionReport, DetectorConfig, TriggerDetector
from ..defense.spectral import SpectralConfig, SpectralDefense
from ..models.cnn_lstm import CNNLSTMClassifier
from ..models.metrics import (
    AttackMetrics,
    accuracy,
    confusion_matrix,
    evaluate_attack,
    mean_attack_metrics,
)
from ..models.trainer import Trainer
from ..radar.heatmap import heatmap_deviation
from ..runtime.guards import ensure_finite
from ..runtime.logging import get_logger
from ..runtime.telemetry import span, telemetry
from ..xai.frame_importance import FrameImportanceAnalyzer
from .presets import DEFAULT, ExperimentPreset

#: Environment seeds: training data comes from the "hallway", attacks run
#: in the "classroom" (paper Section VI-C cross-environment setup).
TRAIN_ENVIRONMENT_SEED = 100
ATTACK_ENVIRONMENT_SEED = 200

_log = get_logger("eval.experiments")


class ExperimentContext:
    """Shared, lazily-built state for all experiment runners."""

    def __init__(
        self,
        preset: ExperimentPreset | None = None,
        seed: int = 0,
        use_disk_cache: bool = True,
        workers: int = 1,
    ):
        self.preset = preset or DEFAULT
        self.seed = seed
        self.use_disk_cache = use_disk_cache
        #: Process-pool width for dataset generation (1 = in-process).
        self.workers = max(1, int(workers))
        self._train_generator: SampleGenerator | None = None
        self._attacker_generator: SampleGenerator | None = None
        self._attack_generator: SampleGenerator | None = None
        self._clean_splits: "tuple[HeatmapDataset, HeatmapDataset] | None" = None
        self._attacker_dataset: HeatmapDataset | None = None
        self._surrogate: CNNLSTMClassifier | None = None
        self._plans: "dict[tuple, AttackPlan]" = {}
        self._pools: "dict[tuple, PairPool]" = {}
        self._triggered_tests: "dict[tuple, HeatmapDataset]" = {}

    # ------------------------------------------------------------------
    # Generators (one per environment)
    # ------------------------------------------------------------------
    @property
    def train_generator(self) -> SampleGenerator:
        if self._train_generator is None:
            self._train_generator = SampleGenerator(
                self.preset.generation_config(),
                seed=self.seed,
                environment_seed=TRAIN_ENVIRONMENT_SEED,
            )
        return self._train_generator

    @property
    def attacker_generator(self) -> SampleGenerator:
        if self._attacker_generator is None:
            self._attacker_generator = SampleGenerator(
                self.preset.generation_config(),
                seed=self.seed + 1,
                environment_seed=TRAIN_ENVIRONMENT_SEED,
            )
        return self._attacker_generator

    @property
    def attack_generator(self) -> SampleGenerator:
        if self._attack_generator is None:
            self._attack_generator = SampleGenerator(
                self.preset.generation_config(),
                seed=self.seed + 2,
                environment_seed=ATTACK_ENVIRONMENT_SEED,
            )
        return self._attack_generator

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------
    def _dataset(self, generator_name: str, samples_per_class: int) -> HeatmapDataset:
        params = {
            "kind": generator_name,
            "preset": self.preset.name,
            "num_frames": self.preset.num_frames,
            "samples_per_class": samples_per_class,
            "seed": self.seed,
            # Plan-based per-task seeding changed the sample stream; the
            # marker keys those bytes so pre-pool archives regenerate.
            # ``workers`` itself is deliberately absent: parallel output is
            # bit-identical to serial, so any width shares one archive.
            "sampling": "per-task-v1",
        }
        generator = getattr(self, f"{generator_name}_generator")

        def build() -> HeatmapDataset:
            _log.info(
                "generating dataset kind=%s samples_per_class=%d preset=%s "
                "workers=%d",
                generator_name, samples_per_class, self.preset.name,
                self.workers,
            )
            return generator.generate_dataset(
                samples_per_class=samples_per_class, workers=self.workers
            )

        with span(
            "stage.dataset",
            kind=generator_name,
            samples_per_class=samples_per_class,
        ):
            if self.use_disk_cache:
                dataset = cached_dataset(params, build)
            else:
                dataset = build()
            # Guard the cache-load path too: heatmaps must be finite before
            # they reach training or evaluation.
            ensure_finite(dataset.x, f"{generator_name} dataset heatmaps")
        return dataset

    @property
    def clean_train(self) -> HeatmapDataset:
        return self._splits()[0]

    @property
    def clean_test(self) -> HeatmapDataset:
        return self._splits()[1]

    def _splits(self) -> "tuple[HeatmapDataset, HeatmapDataset]":
        if self._clean_splits is None:
            dataset = self._dataset("train", self.preset.samples_per_class)
            rng = np.random.default_rng(self.seed)
            self._clean_splits = dataset.split(self.preset.train_fraction, rng)
        return self._clean_splits

    @property
    def attacker_dataset(self) -> HeatmapDataset:
        if self._attacker_dataset is None:
            self._attacker_dataset = self._dataset(
                "attacker", self.preset.attacker_samples_per_class
            )
        return self._attacker_dataset

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    @property
    def surrogate(self) -> CNNLSTMClassifier:
        """The attacker's surrogate, trained once on attacker-side data."""
        if self._surrogate is None:
            dataset = self.attacker_dataset
            with span("stage.surrogate_train", samples=len(dataset)):
                model = CNNLSTMClassifier(
                    self.preset.model_config(), np.random.default_rng(self.seed + 77)
                )
                Trainer(self.preset.training_config(seed=self.seed)).fit(
                    model, dataset.x, dataset.y
                )
            self._surrogate = model
        return self._surrogate

    def train_victim(
        self, poisoned: HeatmapDataset | None, seed: int
    ) -> CNNLSTMClassifier:
        """Phase 2: operator trains on clean (+ optionally poisoned) data."""
        train_set = self.clean_train
        with span("stage.train_victim", seed=seed):
            rng = np.random.default_rng(seed)
            if poisoned is not None and len(poisoned):
                train_set = inject_poison(train_set, poisoned, rng)
            model = CNNLSTMClassifier(self.preset.model_config(), rng)
            Trainer(self.preset.training_config(seed=seed)).fit(
                model, train_set.x, train_set.y
            )
        return model

    # ------------------------------------------------------------------
    # Attack plans / pools / test sets (memoized)
    # ------------------------------------------------------------------
    def attack_plan(
        self,
        scenario: AttackScenario,
        trigger: ReflectorTrigger = TRIGGER_2X2,
        num_poisoned_frames: int = 8,
        use_optimal_frames: bool = True,
        use_optimal_position: bool = True,
    ) -> AttackPlan:
        key = (
            scenario.key,
            trigger.name,
            num_poisoned_frames,
            use_optimal_frames,
            use_optimal_position,
        )
        if key not in self._plans:
            with span(
                "stage.attack_plan", scenario=scenario.key, trigger=trigger.name
            ):
                config = BackdoorConfig(
                    scenario=scenario,
                    trigger=trigger,
                    num_poisoned_frames=num_poisoned_frames,
                    use_optimal_frames=use_optimal_frames,
                    use_optimal_position=use_optimal_position,
                    shap=self.preset.shap_config(seed=self.seed),
                    num_shap_samples=self.preset.num_shap_executions,
                )
                attack = BackdoorAttack(
                    self.surrogate, self.attacker_generator, config
                )
                self._plans[key] = attack.plan()
        return self._plans[key]

    def pair_pool(
        self,
        scenario: AttackScenario,
        trigger: ReflectorTrigger,
        plan: AttackPlan,
        num_samples: int,
    ) -> PairPool:
        key = (scenario.victim, trigger.name, plan.attachment_name, num_samples)
        if key not in self._pools:
            with span(
                "stage.pair_pool", victim=scenario.victim, samples=num_samples
            ):
                self._pools[key] = build_pair_pool(
                    self.attacker_generator,
                    scenario.victim,
                    trigger,
                    plan.attachment_position,
                    num_samples,
                    attachment_name=plan.attachment_name,
                )
        return self._pools[key]

    def triggered_test(
        self,
        scenario: AttackScenario,
        trigger: ReflectorTrigger,
        plan: AttackPlan,
    ) -> HeatmapDataset:
        key = (scenario.victim, trigger.name, plan.attachment_name)
        if key not in self._triggered_tests:
            with span("stage.triggered_test", victim=scenario.victim):
                recipe = PoisonRecipe(
                    scenario=scenario,
                    trigger=trigger,
                    attachment_position=plan.attachment_position,
                    frame_indices=plan.frame_indices,
                    injection_rate=0.4,
                    attachment_name=plan.attachment_name,
                )
                self._triggered_tests[key] = build_triggered_test_set(
                    self.attack_generator, recipe, self.preset.num_attack_samples
                )
        return self._triggered_tests[key]

    def max_pool_size(self, scenario: AttackScenario) -> int:
        victim_count = len(self.clean_train.class_indices(scenario.victim_label))
        return max(
            2, int(np.ceil(victim_count * self.preset.max_injection_rate
                           * self.preset.pool_margin))
        )

    # ------------------------------------------------------------------
    # One attack evaluation
    # ------------------------------------------------------------------
    def attack_metrics(
        self,
        scenario: AttackScenario,
        trigger: ReflectorTrigger,
        plan: AttackPlan,
        injection_rate: float,
        frame_indices: np.ndarray,
        repetitions: int | None = None,
    ) -> AttackMetrics:
        """Train ``repetitions`` victims and average ASR/UASR/CDR."""
        repetitions = repetitions or self.preset.repetitions
        pool = self.pair_pool(scenario, trigger, plan, self.max_pool_size(scenario))
        victim_count = len(self.clean_train.class_indices(scenario.victim_label))
        num_poisoned = max(1, int(round(victim_count * injection_rate)))
        num_poisoned = min(num_poisoned, len(pool))
        poisoned = compose_poisoned_dataset(
            pool, frame_indices, scenario.target_label, num_poisoned
        )
        triggered = self.triggered_test(scenario, trigger, plan)
        results = []
        with span(
            "stage.attack_eval",
            scenario=scenario.key,
            injection_rate=injection_rate,
            repetitions=repetitions,
        ):
            for rep in range(repetitions):
                model = self.train_victim(poisoned, seed=self.seed + 1000 + rep)
                results.append(
                    evaluate_attack(
                        model.predict(triggered.x),
                        triggered.y,
                        scenario.target_label,
                        model.predict(self.clean_test.x),
                        self.clean_test.y,
                    )
                )
        return mean_attack_metrics(results)


# ----------------------------------------------------------------------
# Fig. 7 — clean prototype confusion matrix
# ----------------------------------------------------------------------
@dataclass
class CleanPrototypeResult:
    accuracy: float
    confusion: np.ndarray
    history_epochs: int


def run_clean_prototype(ctx: ExperimentContext) -> CleanPrototypeResult:
    """Train and evaluate the clean HAR prototype (paper Fig. 7)."""
    model = ctx.train_victim(None, seed=ctx.seed + 500)
    predictions = model.predict(ctx.clean_test.x)
    return CleanPrototypeResult(
        accuracy=accuracy(predictions, ctx.clean_test.y),
        confusion=confusion_matrix(predictions, ctx.clean_test.y, 6),
        history_epochs=ctx.preset.epochs,
    )


# ----------------------------------------------------------------------
# Fig. 3 — most-important-frame histogram
# ----------------------------------------------------------------------
@dataclass
class FrameImportanceExperimentResult:
    histogram: np.ndarray
    mean_importance: np.ndarray
    num_samples: int


def run_frame_importance(
    ctx: ExperimentContext, samples_per_activity: int = 2
) -> FrameImportanceExperimentResult:
    """SHAP the surrogate over samples of every activity (paper Fig. 3)."""
    analyzer = FrameImportanceAnalyzer(ctx.surrogate, ctx.preset.shap_config(ctx.seed))
    dataset = ctx.attacker_dataset
    chosen: "list[int]" = []
    for label in np.unique(dataset.y):
        chosen.extend(dataset.class_indices(int(label))[:samples_per_activity])
    subset = dataset.subset(np.asarray(chosen))
    result = analyzer.analyze(subset.x, labels=subset.y, k=1)
    return FrameImportanceExperimentResult(
        histogram=result.most_important_histogram(),
        mean_importance=result.mean_importance(),
        num_samples=len(subset),
    )


# ----------------------------------------------------------------------
# Fig. 5 — heatmap stealth
# ----------------------------------------------------------------------
@dataclass
class StealthResult:
    deviation: "dict[str, float]"
    clean_frame: np.ndarray
    triggered_frame: np.ndarray


def run_heatmap_stealth(
    ctx: ExperimentContext, trigger: ReflectorTrigger = TRIGGER_2X2
) -> StealthResult:
    """Clean vs triggered DRAI for a Clockwise sample (paper Fig. 5)."""
    scenario = AttackScenario("clockwise", "anticlockwise", similar=True)
    plan = ctx.attack_plan(scenario, trigger)
    trigger_mesh = trigger.mesh_at(plan.attachment_position)
    clean, triggered = ctx.attack_generator.generate_paired_sample(
        "clockwise", 1.2, 0.0, trigger_mesh
    )
    middle = clean.shape[0] // 2
    return StealthResult(
        deviation=heatmap_deviation(clean, triggered),
        clean_frame=clean[middle],
        triggered_frame=triggered[middle],
    )


# ----------------------------------------------------------------------
# Figs. 8-13 — sweeps
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """Metrics over a 1-D parameter sweep for several curves."""

    parameter_name: str
    parameter_values: "tuple[float, ...]"
    curves: "dict[str, list[AttackMetrics]]"

    def series(self, curve: str, metric: str) -> "list[float]":
        return [getattr(m, metric) for m in self.curves[curve]]


def run_injection_rate_sweep(
    ctx: ExperimentContext,
    scenarios: "tuple[AttackScenario, ...]",
    trigger: ReflectorTrigger = TRIGGER_2X2,
    num_poisoned_frames: int = 8,
    rates: "tuple[float, ...] | None" = None,
) -> SweepResult:
    """ASR/UASR/CDR vs injection rate (paper Figs. 8 and 10), k fixed."""
    rates = rates or ctx.preset.injection_rates
    curves: "dict[str, list[AttackMetrics]]" = {}
    for scenario in scenarios:
        plan = ctx.attack_plan(scenario, trigger, num_poisoned_frames)
        row = []
        for rate in rates:
            row.append(
                ctx.attack_metrics(
                    scenario, trigger, plan, rate, plan.frame_indices
                )
            )
        curves[scenario.key] = row
    return SweepResult("injection_rate", tuple(rates), curves)


def run_poisoned_frames_sweep(
    ctx: ExperimentContext,
    scenarios: "tuple[AttackScenario, ...]",
    trigger: ReflectorTrigger = TRIGGER_2X2,
    injection_rate: float = 0.4,
    frame_counts: "tuple[int, ...] | None" = None,
) -> SweepResult:
    """ASR/UASR/CDR vs #poisoned frames (paper Figs. 9 and 11), rate fixed."""
    frame_counts = frame_counts or ctx.preset.poisoned_frame_counts
    max_k = max(frame_counts)
    curves: "dict[str, list[AttackMetrics]]" = {}
    for scenario in scenarios:
        plan = ctx.attack_plan(scenario, trigger, max_k)
        # SHAP ranked all frames once; each k keeps the top slice.
        row = []
        for k in frame_counts:
            frame_indices = plan.frame_indices[:k]
            row.append(
                ctx.attack_metrics(
                    scenario, trigger, plan, injection_rate, frame_indices
                )
            )
        curves[scenario.key] = row
    return SweepResult("num_poisoned_frames", tuple(float(k) for k in frame_counts), curves)


def run_trigger_size_injection_sweep(ctx: ExperimentContext) -> SweepResult:
    """2x2 vs 4x4 trigger over injection rates, Push->Pull (paper Fig. 12)."""
    scenario = SIMILAR_SCENARIOS[0]
    curves: "dict[str, list[AttackMetrics]]" = {}
    for trigger in (TRIGGER_2X2, TRIGGER_4X4):
        plan = ctx.attack_plan(scenario, trigger, 8)
        curves[trigger.name] = [
            ctx.attack_metrics(scenario, trigger, plan, rate, plan.frame_indices)
            for rate in ctx.preset.injection_rates
        ]
    return SweepResult("injection_rate", ctx.preset.injection_rates, curves)


def run_trigger_size_frames_sweep(ctx: ExperimentContext) -> SweepResult:
    """2x2 vs 4x4 trigger over #poisoned frames (paper Fig. 13)."""
    scenario = SIMILAR_SCENARIOS[0]
    frame_counts = ctx.preset.poisoned_frame_counts
    curves: "dict[str, list[AttackMetrics]]" = {}
    for trigger in (TRIGGER_2X2, TRIGGER_4X4):
        plan = ctx.attack_plan(scenario, trigger, max(frame_counts))
        curves[trigger.name] = [
            ctx.attack_metrics(
                scenario, trigger, plan, 0.4, plan.frame_indices[:k]
            )
            for k in frame_counts
        ]
    return SweepResult(
        "num_poisoned_frames", tuple(float(k) for k in frame_counts), curves
    )


# ----------------------------------------------------------------------
# Figs. 14-15 — angle / distance robustness
# ----------------------------------------------------------------------
@dataclass
class RobustnessResult:
    parameter_name: str
    parameter_values: "tuple[float, ...]"
    seen_mask: "tuple[bool, ...]"
    asr: "list[float]"
    uasr: "list[float]"


def _robustness_sweep(
    ctx: ExperimentContext,
    positions: "list[tuple[float, float]]",
    parameter_name: str,
    parameter_values: "tuple[float, ...]",
    seen_values: "tuple[float, ...]",
    samples_per_position: int = 6,
) -> RobustnessResult:
    """Train one backdoored model, probe it across positions."""
    scenario = SIMILAR_SCENARIOS[0]
    trigger = TRIGGER_2X2
    plan = ctx.attack_plan(scenario, trigger, 8)
    pool = ctx.pair_pool(scenario, trigger, plan, ctx.max_pool_size(scenario))
    victim_count = len(ctx.clean_train.class_indices(scenario.victim_label))
    num_poisoned = min(max(1, int(round(victim_count * 0.4))), len(pool))
    poisoned = compose_poisoned_dataset(
        pool, plan.frame_indices, scenario.target_label, num_poisoned
    )
    # The paper "select[s] our best-trained model" for the robustness
    # probes: train a few and keep the one whose backdoor fires best on
    # the standard triggered test set.
    reference_test = ctx.triggered_test(scenario, trigger, plan)
    model = None
    best_asr = -1.0
    for attempt in range(max(1, ctx.preset.repetitions + 1)):
        candidate = ctx.train_victim(poisoned, seed=ctx.seed + 4242 + attempt)
        asr = float(
            (candidate.predict(reference_test.x) == scenario.target_label).mean()
        )
        if asr > best_asr:
            best_asr = asr
            model = candidate
        if best_asr >= 0.75:
            break

    recipe = plan.recipe(
        BackdoorConfig(scenario=scenario, trigger=trigger, injection_rate=0.4)
    )
    asr, uasr = [], []
    for position in positions:
        test = build_triggered_test_set(
            ctx.attack_generator,
            recipe,
            samples_per_position,
            positions=[position],
        )
        predictions = model.predict(test.x)
        asr.append(float((predictions == scenario.target_label).mean()))
        uasr.append(float((predictions != scenario.victim_label).mean()))
    return RobustnessResult(
        parameter_name=parameter_name,
        parameter_values=parameter_values,
        seen_mask=tuple(v in seen_values for v in parameter_values),
        asr=asr,
        uasr=uasr,
    )


def run_angle_robustness(
    ctx: ExperimentContext, samples_per_position: int = 6
) -> RobustnessResult:
    """ASR vs attacker angle at 1.6 m (paper Fig. 14)."""
    angles = ROBUSTNESS_ANGLES_DEG
    positions = [(1.6, angle) for angle in angles]
    return _robustness_sweep(
        ctx, positions, "angle_deg", angles, (-30.0, 0.0, 30.0), samples_per_position
    )


def run_distance_robustness(
    ctx: ExperimentContext, samples_per_position: int = 6
) -> RobustnessResult:
    """ASR vs attacker distance at 0 degrees (paper Fig. 15)."""
    distances = ROBUSTNESS_DISTANCES_M
    positions = [(distance, 0.0) for distance in distances]
    return _robustness_sweep(
        ctx, positions, "distance_m", distances, (0.8, 1.2, 1.6, 2.0),
        samples_per_position,
    )


# ----------------------------------------------------------------------
# Table I — module ablation and under-clothing triggers
# ----------------------------------------------------------------------
ABLATION_CONFIGURATIONS = (
    ("With Optimal Frames and Positions", True, True, False),
    ("Without Optimal Trigger Position", True, False, False),
    ("Without Optimal Frames", False, True, False),
    ("Without Optimal Frames and Positions", False, False, False),
    ("With Under Clothing Stealthy Trigger", True, True, True),
)


@dataclass
class AblationResult:
    rows: "list[tuple[str, float]]"  # (configuration, ASR)


def run_ablation(
    ctx: ExperimentContext, injection_rate: float = 0.4, num_poisoned_frames: int = 8
) -> AblationResult:
    """Each module's contribution + under-clothing attack (paper Table I)."""
    scenario = SIMILAR_SCENARIOS[0]
    rows = []
    for label, optimal_frames, optimal_position, concealed in ABLATION_CONFIGURATIONS:
        trigger = TRIGGER_2X2.concealed() if concealed else TRIGGER_2X2
        plan = ctx.attack_plan(
            scenario,
            trigger,
            num_poisoned_frames,
            use_optimal_frames=optimal_frames,
            use_optimal_position=optimal_position,
        )
        metrics = ctx.attack_metrics(
            scenario, trigger, plan, injection_rate, plan.frame_indices
        )
        rows.append((label, metrics.asr))
    return AblationResult(rows=rows)


# ----------------------------------------------------------------------
# Section VI-D — simulator throughput
# ----------------------------------------------------------------------
@dataclass
class ThroughputResult:
    seconds_per_pair_activity: float
    seconds_per_activity: float
    num_virtual_antennas: int
    num_frames: int


def run_simulator_throughput(ctx: ExperimentContext) -> ThroughputResult:
    """IF-simulation cost per TX-RX pair per activity (paper Section VI-D).

    The paper reports ~0.87 s per pair per activity (~75 s for 86 virtual
    antennas); our vectorized NumPy path is compared on the same basis.
    """
    generator = ctx.attack_generator
    meshes = generator.sample_meshes("push", 1.2, 0.0)
    simulator = generator.simulator
    timer = telemetry().span(
        "stage.simulator_throughput", force=True, frames=len(meshes)
    )
    with timer:
        simulator.simulate_sequence(meshes)
    elapsed = timer.duration_s
    num_virtual = simulator.config.antennas.num_virtual
    return ThroughputResult(
        seconds_per_pair_activity=elapsed / num_virtual,
        seconds_per_activity=elapsed,
        num_virtual_antennas=num_virtual,
        num_frames=len(meshes),
    )


# ----------------------------------------------------------------------
# Section VII — defenses
# ----------------------------------------------------------------------
@dataclass
class DefenseResult:
    detector_report: DetectionReport
    asr_without_defense: float
    asr_with_augmentation: float
    cdr_with_augmentation: float


def run_defenses(ctx: ExperimentContext) -> DefenseResult:
    """Trigger detection + augmentation hardening (paper Section VII)."""
    scenario = SIMILAR_SCENARIOS[0]
    trigger = TRIGGER_2X2
    plan = ctx.attack_plan(scenario, trigger, 8)

    # --- detector: train on defender-side clean + triggered samples.
    augmentation_train = build_augmentation_set(
        ctx.train_generator, trigger, ctx.clean_train,
        AugmentationConfig(fraction=0.25),
    )
    detector = TriggerDetector(
        ctx.preset.frame_shape(),
        ctx.preset.num_frames,
        DetectorConfig(training=ctx.preset.training_config(seed=ctx.seed + 9)),
        np.random.default_rng(ctx.seed + 9),
    )
    detector.fit(ctx.clean_train, augmentation_train)
    triggered_test = ctx.triggered_test(scenario, trigger, plan)
    report = detector.evaluate(ctx.clean_test, triggered_test)

    # --- augmentation: ASR with vs without hardening.
    baseline = ctx.attack_metrics(
        scenario, trigger, plan, 0.4, plan.frame_indices, repetitions=1
    )
    pool = ctx.pair_pool(scenario, trigger, plan, ctx.max_pool_size(scenario))
    victim_count = len(ctx.clean_train.class_indices(scenario.victim_label))
    num_poisoned = min(max(1, int(round(victim_count * 0.4))), len(pool))
    poisoned = compose_poisoned_dataset(
        pool, plan.frame_indices, scenario.target_label, num_poisoned
    )
    rng = np.random.default_rng(ctx.seed + 31)
    hardened_train = augment_training_set(
        ctx.clean_train, augmentation_train, rng
    )
    contaminated = inject_poison(hardened_train, poisoned, rng)
    hardened_model = CNNLSTMClassifier(ctx.preset.model_config(), rng)
    Trainer(ctx.preset.training_config(seed=ctx.seed + 31)).fit(
        hardened_model, contaminated.x, contaminated.y
    )
    hardened_metrics = evaluate_attack(
        hardened_model.predict(triggered_test.x),
        triggered_test.y,
        scenario.target_label,
        hardened_model.predict(ctx.clean_test.x),
        ctx.clean_test.y,
    )
    return DefenseResult(
        detector_report=report,
        asr_without_defense=baseline.asr,
        asr_with_augmentation=hardened_metrics.asr,
        cdr_with_augmentation=hardened_metrics.cdr,
    )


@dataclass
class SpectralDefenseResult:
    """Spectral-signature filtering of a poisoned training set."""

    poison_recall: float
    removed_fraction: float
    asr_before: float
    asr_after: float
    cdr_after: float


def run_spectral_defense(
    ctx: ExperimentContext,
    injection_rate: float = 0.4,
    num_poisoned_frames: int = 8,
) -> SpectralDefenseResult:
    """Extension of Section VII: spectral signatures (Tran et al.).

    The operator trains once on the contaminated pool, scores every
    training sample's LSTM representation against its class's top singular
    direction, drops the per-class outliers, and retrains.  Reported:
    what fraction of the actual poison was caught, and the ASR before vs
    after filtering.
    """
    scenario = SIMILAR_SCENARIOS[0]
    trigger = TRIGGER_2X2
    plan = ctx.attack_plan(scenario, trigger, num_poisoned_frames)
    pool = ctx.pair_pool(scenario, trigger, plan, ctx.max_pool_size(scenario))
    victim_count = len(ctx.clean_train.class_indices(scenario.victim_label))
    num_poisoned = min(
        max(1, int(round(victim_count * injection_rate))), len(pool)
    )
    poisoned = compose_poisoned_dataset(
        pool, plan.frame_indices, scenario.target_label, num_poisoned
    )
    rng = np.random.default_rng(ctx.seed + 606)
    contaminated = inject_poison(ctx.clean_train, poisoned, rng)

    victim = CNNLSTMClassifier(ctx.preset.model_config(), rng)
    Trainer(ctx.preset.training_config(seed=ctx.seed + 606)).fit(
        victim, contaminated.x, contaminated.y
    )
    triggered = ctx.triggered_test(scenario, trigger, plan)
    before = evaluate_attack(
        victim.predict(triggered.x), triggered.y, scenario.target_label,
        victim.predict(ctx.clean_test.x), ctx.clean_test.y,
    )

    # Size the removal to ~1.5x the worst-case per-class poison fraction.
    target_class_size = len(contaminated.class_indices(scenario.target_label))
    poison_fraction = num_poisoned / max(target_class_size, 1)
    removal = float(np.clip(1.5 * poison_fraction, 0.1, 0.6))
    defense = SpectralDefense(victim, SpectralConfig(removal_fraction=removal))
    filtered, report = defense.filter(contaminated)
    truth = np.array([meta.has_trigger for meta in contaminated.meta])
    recall = report.recall(truth)

    retrained = CNNLSTMClassifier(ctx.preset.model_config(), rng)
    Trainer(ctx.preset.training_config(seed=ctx.seed + 607)).fit(
        retrained, filtered.x, filtered.y
    )
    after = evaluate_attack(
        retrained.predict(triggered.x), triggered.y, scenario.target_label,
        retrained.predict(ctx.clean_test.x), ctx.clean_test.y,
    )
    return SpectralDefenseResult(
        poison_recall=recall,
        removed_fraction=report.num_removed / len(contaminated),
        asr_before=before.asr,
        asr_after=after.asr,
        cdr_after=after.cdr,
    )
