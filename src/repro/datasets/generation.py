"""Simulator-driven dataset synthesis.

Replaces the paper's physical data collection (Section VI-B): participants
of different statures perform the six activities at the 12-position grid
(4 distances x 3 angles), each sample rendered to a 32-frame DRAI heatmap
sequence through the Eq. 3 RF simulator plus receiver noise and static
environment clutter.

Dataset campaigns are *planned* before they are executed: the campaign
seed first deterministically fixes every sample's position, participant,
and per-sample RNG root (``SeedSequence((campaign_seed, task_index))``),
and only then are samples synthesized — serially or fanned out across a
:class:`~repro.runtime.pool.WorkerPool` whose workers fork from the
generator.  Because each sample's random stream depends only on the plan
(never on execution order or worker identity), parallel generation is
bit-identical to serial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..geometry.human import (
    ACTIVITY_NAMES,
    BodyShape,
    HumanModel,
    TrajectoryStyle,
    hand_trajectory,
)
from ..geometry.mesh import TriangleMesh, place_sequence
from ..geometry.transforms import RigidTransform, subject_placement
from ..radar.heatmap import HeatmapConfig, drai_sequence
from ..radar.noise import (
    add_thermal_noise,
    complex_awgn,
    noise_sigma,
    random_environment,
)
from ..radar.simulator import FmcwRadarSimulator, RadarConfig
from ..runtime.errors import SimulationError
from ..runtime.guards import ensure_finite
from ..runtime.pool import PoolConfig, PoolTask, derive_task_seed, run_tasks
from ..runtime.telemetry import metrics, span
from .activities import TRAINING_ANGLES_DEG, TRAINING_DISTANCES_M, activity_label
from .dataset import HeatmapDataset, SampleMeta

#: Stature scales of the three prototype participants (Section VI-B).
PARTICIPANT_STATURES = (0.93, 1.0, 1.07)

#: SeedSequence stream index reserved for campaign *planning* randomness
#: (position order, participant choice) — far outside any realistic task
#: index, so plan and sample streams never collide.
_PLAN_STREAM = 2**31 - 1


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs of the synthetic data collection campaign."""

    num_frames: int = 32
    radar: RadarConfig = field(default_factory=RadarConfig)
    heatmap: HeatmapConfig = field(default_factory=HeatmapConfig)
    distances_m: "tuple[float, ...]" = TRAINING_DISTANCES_M
    angles_deg: "tuple[float, ...]" = TRAINING_ANGLES_DEG
    snr_db: float = 22.0
    environment_objects: int = 2
    participants: "tuple[float, ...]" = PARTICIPANT_STATURES
    #: Torso micro-motion.  Real bodies are never radar-static: breathing
    #: and postural sway move the torso by millimeters — several carrier
    #: wavelengths of phase at 77 GHz — which is what keeps the subject
    #: (and anything taped to them, like a reflector trigger) visible
    #: after clutter-map background subtraction.
    sway_amplitude_m: float = 0.004
    breathing_amplitude_m: float = 0.0035
    sway_frequency_hz: float = 0.45
    breathing_frequency_hz: float = 0.28

    def __post_init__(self) -> None:
        if self.num_frames < 2:
            raise ValueError("need at least 2 frames")
        if not self.distances_m or not self.angles_deg:
            raise ValueError("need at least one distance and one angle")
        if any(d <= 0.0 for d in self.distances_m):
            raise ValueError(f"distances must be positive, got {self.distances_m}")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if self.environment_objects < 0:
            raise ValueError(
                f"environment_objects must be >= 0, got {self.environment_objects}"
            )
        if not self.participants:
            raise ValueError("need at least one participant stature")
        if any(stature <= 0.0 for stature in self.participants):
            raise ValueError(
                f"participant statures must be positive, got {self.participants}"
            )
        if self.sway_amplitude_m < 0.0 or self.breathing_amplitude_m < 0.0:
            raise ValueError(
                "sway/breathing amplitudes must be >= 0, got "
                f"{self.sway_amplitude_m}/{self.breathing_amplitude_m}"
            )
        if self.sway_frequency_hz < 0.0 or self.breathing_frequency_hz < 0.0:
            raise ValueError(
                "sway/breathing frequencies must be >= 0, got "
                f"{self.sway_frequency_hz}/{self.breathing_frequency_hz}"
            )


@dataclass(frozen=True)
class SampleTask:
    """One planned sample of a dataset campaign.

    The plan fixes everything that used to be drawn incrementally from the
    generator's shared RNG — position, participant — plus the task index
    that roots the sample's own random stream.
    """

    index: int
    activity: str
    label: int
    distance_m: float
    angle_deg: float
    participant: int
    stature: float


def plan_dataset_tasks(
    config: GenerationConfig, campaign_seed: int, samples_per_class: int
) -> "list[SampleTask]":
    """The deterministic task list of one dataset campaign.

    Positions follow the configured grid round-robin with random order and
    participants are drawn per sample, exactly as the prototype campaign —
    but from a dedicated planning stream
    (``SeedSequence((campaign_seed, _PLAN_STREAM))``), so the plan is
    identical no matter how the samples are later executed.
    """
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be >= 1")
    plan_rng = np.random.default_rng(
        np.random.SeedSequence((int(campaign_seed), _PLAN_STREAM))
    )
    positions = [(d, a) for d in config.distances_m for a in config.angles_deg]
    tasks: "list[SampleTask]" = []
    for activity in ACTIVITY_NAMES:
        label = activity_label(activity)
        order = plan_rng.permutation(
            len(positions) * max(1, -(-samples_per_class // len(positions)))
        )
        for i in range(samples_per_class):
            slot = int(order[i]) % len(positions)
            distance, angle = positions[slot]
            participant = int(plan_rng.integers(len(config.participants)))
            tasks.append(
                SampleTask(
                    index=len(tasks),
                    activity=activity,
                    label=label,
                    distance_m=distance,
                    angle_deg=angle,
                    participant=participant,
                    stature=config.participants[participant],
                )
            )
    return tasks


class SampleGenerator:
    """Generates labeled DRAI heatmap samples through the RF simulator.

    One generator models one *environment* (training hallway vs attacking
    classroom — paper Section VI-C): construct two generators with
    different ``environment_seed`` values for cross-environment studies.
    """

    def __init__(
        self,
        config: GenerationConfig | None = None,
        seed: int = 0,
        environment_seed: int | None = None,
    ):
        self.config = config or GenerationConfig()
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.environment_seed = (
            seed + 7919 if environment_seed is None else environment_seed
        )
        env_rng = np.random.default_rng(self.environment_seed)
        self.simulator = FmcwRadarSimulator(self.config.radar)
        self._models: "dict[float, HumanModel]" = {}
        if self.config.environment_objects > 0:
            environment = random_environment(
                env_rng, num_objects=self.config.environment_objects
            )
            self._environment_facets = [self.simulator.facet_set(environment)]
        else:
            self._environment_facets = []

    def _human_model(self, stature: float) -> HumanModel:
        if stature not in self._models:
            self._models[stature] = HumanModel(BodyShape(stature_scale=stature))
        return self._models[stature]

    # ------------------------------------------------------------------
    # Single-sample synthesis
    # ------------------------------------------------------------------
    def _frame_transforms(
        self, distance_m: float, angle_deg: float
    ) -> "list[RigidTransform]":
        """Per-frame subject-to-world transforms: placement plus sway.

        Breathing moves the torso along the subject's depth axis and sway
        laterally, with random phases per sample.  Millimeter amplitudes
        are several 77-GHz wavelengths of two-way phase, so background
        subtraction leaves a strong residual — as with a live subject.
        """
        config = self.config
        placement = subject_placement(distance_m, angle_deg)
        phase_sway = float(self.rng.uniform(0.0, 2.0 * np.pi))
        phase_breath = float(self.rng.uniform(0.0, 2.0 * np.pi))
        dt = config.radar.chirp.frame_period_s
        transforms = []
        for t in range(config.num_frames):
            time_s = t * dt
            sway = config.sway_amplitude_m * np.sin(
                2.0 * np.pi * config.sway_frequency_hz * time_s + phase_sway
            )
            breath = config.breathing_amplitude_m * np.sin(
                2.0 * np.pi * config.breathing_frequency_hz * time_s + phase_breath
            )
            local = RigidTransform.from_translation([sway, breath, 0.0])
            transforms.append(placement.compose(local))
        return transforms

    def sample_scene(
        self,
        activity: str,
        distance_m: float,
        angle_deg: float,
        stature: float = 1.0,
        style: TrajectoryStyle | None = None,
    ) -> "tuple[list[TriangleMesh], list[RigidTransform]]":
        """(subject-local posed bodies, per-frame world transforms)."""
        model = self._human_model(stature)
        style = style or TrajectoryStyle.random(self.rng)
        trajectory = hand_trajectory(
            activity,
            self.config.num_frames,
            style,
            shoulder=model.right_shoulder,
            rng=self.rng,
        )
        bodies = model.pose_sequence(trajectory)
        transforms = self._frame_transforms(distance_m, angle_deg)
        return bodies, transforms

    def sample_meshes(
        self,
        activity: str,
        distance_m: float,
        angle_deg: float,
        stature: float = 1.0,
        style: TrajectoryStyle | None = None,
        attachment_mesh: TriangleMesh | None = None,
    ) -> "list[TriangleMesh]":
        """World-frame mesh sequence for one activity execution.

        ``attachment_mesh`` (subject-local, e.g. a reflector trigger from
        :mod:`repro.attack.trigger`) rides rigidly on the torso through the
        per-frame transforms — exactly how the paper tapes reflectors to
        the experimenter.
        """
        bodies, transforms = self.sample_scene(
            activity, distance_m, angle_deg, stature, style
        )
        return place_sequence(bodies, transforms, attachment_mesh)

    def generate_sample(
        self,
        activity: str,
        distance_m: float,
        angle_deg: float,
        stature: float = 1.0,
        style: TrajectoryStyle | None = None,
        attachment_mesh: TriangleMesh | None = None,
        return_cubes: bool = False,
    ) -> np.ndarray:
        """One DRAI heatmap sequence ``(T, H, W)`` (or raw IF cubes)."""
        with span("dataset.generate_sample", activity=activity):
            meshes = self.sample_meshes(
                activity, distance_m, angle_deg, stature, style, attachment_mesh
            )
            cubes = self.simulator.simulate_sequence(
                meshes, extra_facets=self._environment_facets or None
            )
            cubes = add_thermal_noise(cubes, self.config.snr_db, self.rng)
            # Simulator -> heatmap boundary guard: an unstable kernel must fail
            # here, not as garbage training data three stages later.
            ensure_finite(cubes, f"simulated IF cubes for {activity!r}")
            metrics().counter("dataset.samples_generated").inc()
            if return_cubes:
                return cubes
            return ensure_finite(
                drai_sequence(cubes, self.config.heatmap),
                f"DRAI heatmaps for {activity!r}",
            )

    def generate_paired_sample(
        self,
        activity: str,
        distance_m: float,
        angle_deg: float,
        attachment_mesh: TriangleMesh,
        stature: float = 1.0,
        style: TrajectoryStyle | None = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """(clean, triggered) DRAI sequences of the *same* execution.

        Both sequences share the trajectory, the environment, and the
        thermal-noise realization; they differ only by the trigger's
        static signal contribution — the matched pair the poisoning step
        needs for frame replacement, and what the placement optimizer
        diffs.
        """
        bodies, transforms = self.sample_scene(
            activity, distance_m, angle_deg, stature, style
        )
        clean_cubes = self.simulator.simulate_sequence(
            place_sequence(bodies, transforms),
            extra_facets=self._environment_facets or None,
        )
        # The rigid trigger is static within each frame: no Doppler phase,
        # and the shared topology across frames lets the batched sequence
        # path synthesize all trigger contributions in one pass.
        trigger_cubes = self.simulator.simulate_sequence(
            place_sequence([attachment_mesh] * len(transforms), transforms),
            estimate_velocities=False,
        )
        triggered_cubes = clean_cubes + trigger_cubes

        # One shared noise realization, scaled from the clean signal power.
        sigma = noise_sigma(clean_cubes, self.config.snr_db)
        if sigma > 0.0:
            noise = complex_awgn(clean_cubes.shape, sigma, self.rng)
            clean_cubes = clean_cubes + noise
            triggered_cubes = triggered_cubes + noise
        ensure_finite(clean_cubes, f"simulated IF cubes for {activity!r}")
        ensure_finite(triggered_cubes, f"triggered IF cubes for {activity!r}")
        return (
            drai_sequence(clean_cubes, self.config.heatmap),
            drai_sequence(triggered_cubes, self.config.heatmap),
        )

    # ------------------------------------------------------------------
    # Dataset synthesis
    # ------------------------------------------------------------------
    def synthesize_planned_sample(
        self, campaign_seed: int, task: SampleTask
    ) -> np.ndarray:
        """One planned sample, from its own derived random stream.

        The sample's RNG is rooted at
        ``SeedSequence((campaign_seed, task.index))`` for exactly the
        duration of the synthesis, so the result depends only on the plan —
        the worker, execution order, and this generator's shared stream
        are all irrelevant.
        """
        rng = np.random.default_rng(derive_task_seed(campaign_seed, task.index))
        original_rng = self.rng
        self.rng = rng
        try:
            return self.generate_sample(
                task.activity, task.distance_m, task.angle_deg, stature=task.stature
            )
        finally:
            self.rng = original_rng

    def generate_dataset(
        self, samples_per_class: int, workers: int = 1
    ) -> HeatmapDataset:
        """A dataset cycling positions and participants per class.

        Positions follow the configured grid round-robin with random
        order, so every class covers all distances/angles/participants as
        in the prototype campaign.  ``workers > 1`` fans sample synthesis
        out across a supervised process pool, whose workers fork holding
        this generator; the result is bit-identical to the serial path
        because every sample draws from a per-task seed derived from
        ``(campaign seed, task index)``.
        """
        plan = plan_dataset_tasks(self.config, self.seed, samples_per_class)
        tasks = [
            PoolTask(
                key=f"sample-{task.index:06d}",
                fn=self.synthesize_planned_sample,
                args=(self.seed, task),
            )
            for task in plan
        ]
        with span(
            "dataset.generate",
            samples_per_class=samples_per_class,
            activities=len(ACTIVITY_NAMES),
            workers=workers,
        ):
            results = run_tasks(tasks, PoolConfig(workers=workers))
        failed = [result for result in results if not result.ok]
        if failed:
            raise SimulationError(
                f"{len(failed)}/{len(tasks)} dataset samples failed after "
                f"retries; first: {failed[0].key}: {failed[0].error}"
            )
        metas = [
            SampleMeta(
                activity=task.activity,
                distance_m=task.distance_m,
                angle_deg=task.angle_deg,
                participant=task.participant,
            )
            for task in plan
        ]
        labels = np.asarray([task.label for task in plan])
        return HeatmapDataset(
            np.stack([result.value for result in results]), labels, metas
        )
