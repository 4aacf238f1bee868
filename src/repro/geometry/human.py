"""Articulated human body model and hand-activity trajectories.

The paper drives its RF simulator with time-series 3D human meshes
reconstructed from video via GLoT.  We have no video or GLoT, so this module
synthesizes the equivalent input directly: a triangulated articulated body
(torso, head, legs, arm, hand) whose right hand follows a parametric
trajectory for each of the six prototype activities — "Push", "Pull",
"Left Swipe", "Right Swipe", "Clockwise Turning", "Anticlockwise Turning".

Subject-local coordinates: the subject stands at the origin facing ``-y``
(toward the radar once placed), ``+x`` is the *radar's* left / subject's
right, ``z = 0`` is radar boresight height (roughly chest height).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .mesh import SKIN_REFLECTIVITY, TriangleMesh, merge_meshes
from .primitives import capsule, ellipsoid, uv_sphere
from .transforms import RigidTransform, rotation_about_axis


@dataclass(frozen=True)
class BodyShape:
    """Anthropometric parameters of a participant.

    ``stature_scale`` scales all linear dimensions; the paper's three
    participants "of different heights" map to scales around 0.95 - 1.05.
    """

    stature_scale: float = 1.0
    torso_half_width: float = 0.19
    torso_half_depth: float = 0.11
    torso_half_height: float = 0.30
    head_radius: float = 0.10
    arm_radius: float = 0.045
    hand_radius: float = 0.05
    leg_radius: float = 0.07
    leg_length: float = 0.75
    shoulder_offset: "tuple[float, float, float]" = (-0.22, 0.0, 0.22)
    mesh_detail: int = 6

    def scaled(self) -> "BodyShape":
        """Shape with all linear dimensions multiplied by ``stature_scale``."""
        s = self.stature_scale
        return replace(
            self,
            stature_scale=1.0,
            torso_half_width=self.torso_half_width * s,
            torso_half_depth=self.torso_half_depth * s,
            torso_half_height=self.torso_half_height * s,
            head_radius=self.head_radius * s,
            arm_radius=self.arm_radius * s,
            hand_radius=self.hand_radius * s,
            leg_radius=self.leg_radius * s,
            leg_length=self.leg_length * s,
            shoulder_offset=tuple(v * s for v in self.shoulder_offset),
        )


#: Named attachment points on the body, in subject-local coordinates.  These
#: are the candidate trigger positions the placement optimizer searches, plus
#: the "suboptimal" locations used in the Table I ablation (e.g. the leg).
BODY_ATTACHMENT_POINTS: "dict[str, tuple[float, float, float]]" = {
    "chest": (0.0, -0.115, 0.10),
    "upper_chest": (0.0, -0.115, 0.20),
    "abdomen": (0.0, -0.115, -0.10),
    "waist": (0.0, -0.115, -0.25),
    "left_shoulder": (0.20, -0.10, 0.24),
    "right_shoulder": (-0.20, -0.10, 0.24),
    "left_ribs": (0.15, -0.10, 0.0),
    "right_ribs": (-0.15, -0.10, 0.0),
    "right_upper_arm": (-0.26, -0.06, 0.10),
    "right_forearm": (-0.30, -0.18, 0.0),
    "left_leg": (0.10, -0.08, -0.70),
    "right_leg": (-0.10, -0.08, -0.70),
    "head": (0.0, -0.09, 0.42),
}

#: Locations considered "suboptimal" in the Table I ablation.
SUBOPTIMAL_ATTACHMENT = "left_leg"


def _limb_frames(
    start: np.ndarray, ends: np.ndarray, radius: float
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Poses of capsules from ``start`` to each of the ``(T, 3)`` ``ends``.

    Returns the ``(T, 3, 3)`` rotations taking a z-aligned capsule onto
    each axis, the ``(T, 3)`` axis midpoints and the ``(T,)`` cylinder
    heights.  Norms, dot products and rotations are taken frame by frame,
    as for a single limb: batched reductions could round differently.
    """
    start = np.asarray(start, dtype=float)
    ends = np.asarray(ends, dtype=float)
    axes = ends - start
    lengths = np.array([float(np.linalg.norm(axis)) for axis in axes])
    z_axis = np.array([0.0, 0.0, 1.0])
    directions = axes / np.where(lengths > 1e-9, lengths, 1.0)[:, None]
    rot_axes = np.cross(z_axis, directions)
    rotations = np.tile(np.eye(3), (len(axes), 1, 1))
    for rotation, length, direction, rot_axis in zip(rotations, lengths, directions, rot_axes):
        if length <= 1e-9:
            continue
        sin_angle = np.linalg.norm(rot_axis)
        cos_angle = float(np.dot(z_axis, direction))
        if sin_angle > 1e-9:
            rotation[:] = rotation_about_axis(rot_axis, math.atan2(sin_angle, cos_angle))
        elif cos_angle < 0.0:
            rotation[:] = rotation_about_axis(np.array([1.0, 0.0, 0.0]), math.pi)
    return rotations, (start + ends) / 2.0, np.maximum(lengths - 2.0 * radius, 1e-3)


def _limb_between(
    start: np.ndarray,
    end: np.ndarray,
    radius: float,
    segments: int,
    name: str,
) -> TriangleMesh:
    """A capsule mesh whose axis runs from ``start`` to ``end``."""
    rotations, centers, heights = _limb_frames(start, np.reshape(end, (1, 3)), radius)
    limb = capsule(radius, float(heights[0]), rings=3, segments=segments, name=name)
    return limb.transformed(RigidTransform(rotation=rotations[0], translation=centers[0]))


class HumanModel:
    """A posable human body mesh generator.

    Everything that does not move is built once: the static parts (torso,
    head, legs, idle left arm), the right arm's and hand's sphere
    templates, and the faces and reflectivity of the whole posed body.  A
    pose computes only vertices: the right arm is a capsule from the
    shoulder to the hand and the hand a sphere at the hand position.
    """

    def __init__(
        self,
        shape: BodyShape | None = None,
        reflectivity: float = SKIN_REFLECTIVITY,
        arm_reflectivity: float = 0.75,
        hand_reflectivity: float = 0.95,
    ):
        self.shape = (shape or BodyShape()).scaled()
        self.reflectivity = reflectivity
        # The gesturing limb reflects more strongly than bare skin area
        # suggests: a moving articulated arm presents continually changing
        # specular glints and the cupped hand acts as a partial corner
        # reflector, so gesture returns dominate mmWave HAR heatmaps.
        self.arm_reflectivity = arm_reflectivity
        self.hand_reflectivity = hand_reflectivity
        self._static = self._build_static()
        # capsule() is this sphere with its z >= 0 half shifted up and the
        # rest shifted down by half the cylinder height.
        segments = max(5, self.shape.mesh_detail - 1)
        arm = uv_sphere(self.shape.arm_radius, rings=3, segments=segments,
                        reflectivity=arm_reflectivity, name="right_arm")
        hand = uv_sphere(self.shape.hand_radius, rings=3, segments=segments,
                         reflectivity=hand_reflectivity, name="hand")
        body = merge_meshes([self._static, arm, hand], name="body")
        self._arm_sphere = arm.vertices
        self._arm_upper = arm.vertices[:, 2] >= 0.0
        self._hand_sphere = hand.vertices
        self._faces = body.faces
        self._reflectivity = body.reflectivity
        self._faces.flags.writeable = False
        self._reflectivity.flags.writeable = False
        arm_start = self._static.num_vertices
        self._arm_vertices = slice(arm_start, arm_start + arm.num_vertices)
        #: The hand sphere's block of every posed body's vertices.
        self.hand_vertices = slice(self._arm_vertices.stop, body.num_vertices)

    def _build_static(self) -> TriangleMesh:
        s = self.shape
        detail = s.mesh_detail
        torso = ellipsoid(
            (s.torso_half_width, s.torso_half_depth, s.torso_half_height),
            rings=detail,
            segments=detail + 2,
            reflectivity=self.reflectivity,
            name="torso",
        )
        head = uv_sphere(
            s.head_radius, rings=max(3, detail - 2), segments=detail,
            reflectivity=self.reflectivity, name="head",
        ).translated([0.0, 0.0, s.torso_half_height + s.head_radius + 0.03])
        legs = []
        for side, x_sign in (("left_leg", 1.0), ("right_leg", -1.0)):
            top = np.array([x_sign * s.torso_half_width * 0.55, 0.0, -s.torso_half_height])
            bottom = top + np.array([0.0, 0.0, -s.leg_length])
            legs.append(_limb_between(top, bottom, s.leg_radius, max(5, detail - 1), side))
        left_shoulder = np.array([abs(s.shoulder_offset[0]), s.shoulder_offset[1],
                                  s.shoulder_offset[2]])
        left_hand_rest = left_shoulder + np.array([0.06, 0.0, -0.48])
        left_arm = _limb_between(
            left_shoulder, left_hand_rest, s.arm_radius, max(5, detail - 1), "left_arm"
        )
        return merge_meshes([torso, head, *legs, left_arm], name="body_static")

    @property
    def right_shoulder(self) -> np.ndarray:
        return np.array(self.shape.shoulder_offset, dtype=float)

    def attachment_point(self, name: str) -> np.ndarray:
        """Subject-local coordinates of a named attachment point."""
        if name not in BODY_ATTACHMENT_POINTS:
            raise KeyError(f"unknown attachment point {name!r}; "
                           f"choose from {sorted(BODY_ATTACHMENT_POINTS)}")
        return np.array(BODY_ATTACHMENT_POINTS[name], dtype=float)

    def torso_front_grid(self, nx: int = 5, nz: int = 7) -> np.ndarray:
        """An ``(nx*nz, 3)`` grid of candidate points on the torso front.

        These supplement the named attachment points as search candidates
        for the Eq. 2 placement optimizer.
        """
        s = self.shape
        xs = np.linspace(-0.8 * s.torso_half_width, 0.8 * s.torso_half_width, nx)
        zs = np.linspace(-0.85 * s.torso_half_height, 0.85 * s.torso_half_height, nz)
        grid_x, grid_z = np.meshgrid(xs, zs, indexing="ij")
        # Project onto the ellipsoid front surface (y < 0 half).
        norm_x = grid_x / s.torso_half_width
        norm_z = grid_z / s.torso_half_height
        inside = np.clip(1.0 - norm_x**2 - norm_z**2, 0.0, None)
        ys = -s.torso_half_depth * np.sqrt(inside) - 0.005
        return np.stack([grid_x.ravel(), ys.ravel(), grid_z.ravel()], axis=1)

    def pose(self, hand_position: np.ndarray) -> TriangleMesh:
        """The full body mesh with the right hand at ``hand_position``."""
        return self.pose_sequence(np.reshape(hand_position, (1, 3)))[0]

    def pose_sequence(self, hand_positions: np.ndarray) -> "list[TriangleMesh]":
        """Body meshes for a ``(T, 3)`` hand trajectory.

        The frames share this model's read-only faces and reflectivity;
        each frame's vertices are one slice of a ``(T, V, 3)`` array.
        """
        positions = np.asarray(hand_positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"hand positions must be (T, 3), got {positions.shape}")
        if not len(positions):
            return []
        rotations, centers, heights = _limb_frames(
            self.right_shoulder, positions, self.shape.arm_radius
        )
        half = heights[:, None] / 2.0
        arm = np.repeat(self._arm_sphere[None], len(positions), axis=0)
        arm[:, :, 2] += np.where(self._arm_upper, half, -half)
        vertices = np.empty((len(positions), self.hand_vertices.stop, 3))
        vertices[:, : self._arm_vertices.start] = self._static.vertices
        vertices[:, self._arm_vertices] = (
            np.matmul(arm, rotations.transpose(0, 2, 1)) + centers[:, None]
        )
        vertices[:, self.hand_vertices] = self._hand_sphere + positions[:, None]
        return [
            TriangleMesh(frame, self._faces, self._reflectivity, "body")
            for frame in vertices
        ]


# ----------------------------------------------------------------------
# Hand trajectories for the six prototype activities
# ----------------------------------------------------------------------

#: Canonical activity names, in label order (fixed across the project).
ACTIVITY_NAMES = (
    "push",
    "pull",
    "left_swipe",
    "right_swipe",
    "clockwise",
    "anticlockwise",
)


@dataclass(frozen=True)
class TrajectoryStyle:
    """Per-sample execution style of a gesture (natural human variation)."""

    amplitude_scale: float = 1.0
    speed_scale: float = 1.0
    phase_offset: float = 0.0
    center_jitter: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tremor: float = 0.004

    @classmethod
    def random(cls, rng: np.random.Generator) -> "TrajectoryStyle":
        return cls(
            amplitude_scale=float(rng.uniform(0.85, 1.15)),
            speed_scale=float(rng.uniform(0.85, 1.15)),
            phase_offset=float(rng.uniform(-0.08, 0.08)),
            center_jitter=rng.normal(0.0, 0.015, size=3),
            tremor=float(rng.uniform(0.002, 0.006)),
        )


#: Rest position of the right hand, relative to the right shoulder.
_HAND_REST_OFFSET = np.array([-0.05, -0.30, -0.10])
#: Center of gesture space, relative to the right shoulder.
_GESTURE_CENTER = np.array([0.0, -0.38, -0.05])


def _smooth_ramp(progress: np.ndarray) -> np.ndarray:
    """Smoothstep easing: 0 -> 1 with zero end-point velocity."""
    p = np.clip(progress, 0.0, 1.0)
    return p * p * (3.0 - 2.0 * p)


def _gesture_progress(n_frames: int, style: TrajectoryStyle) -> np.ndarray:
    """Normalized time in [0, 1] per frame, warped by speed and phase."""
    t = np.linspace(0.0, 1.0, n_frames)
    warped = np.clip((t - style.phase_offset) * style.speed_scale, 0.0, 1.0)
    return warped


def hand_trajectory(
    activity: str,
    n_frames: int,
    style: TrajectoryStyle | None = None,
    shoulder: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """``(n_frames, 3)`` subject-local right-hand positions for an activity.

    The trajectories encode the range/angle signatures the classifier
    learns: Push/Pull move radially (range), Left/Right Swipe move
    laterally (angle), Clockwise/Anticlockwise trace circles facing the
    radar (oscillation in both with opposite chirality).  Mirror pairs
    (push/pull, left/right, cw/acw) traverse the same spatial support in
    opposite temporal order — the "similar trajectory" structure the
    paper's evaluation leans on.
    """
    if activity not in ACTIVITY_NAMES:
        raise ValueError(f"unknown activity {activity!r}; choose from {ACTIVITY_NAMES}")
    if n_frames < 2:
        raise ValueError("need at least 2 frames")
    style = style or TrajectoryStyle()
    shoulder = np.array([-0.22, 0.0, 0.22]) if shoulder is None else np.asarray(shoulder, float)
    center = shoulder + _GESTURE_CENTER + style.center_jitter
    amp = 0.22 * style.amplitude_scale
    progress = _gesture_progress(n_frames, style)
    eased = _smooth_ramp(progress)

    offsets = np.zeros((n_frames, 3))
    if activity == "push":
        # Extend toward the radar: y decreases (radar is at -y).
        offsets[:, 1] = amp * (0.5 - eased)
    elif activity == "pull":
        offsets[:, 1] = amp * (eased - 0.5)
    elif activity == "left_swipe":
        # "Left" from the radar's point of view is +x in subject space.
        # The arm arcs slightly toward the radar mid-swipe.
        offsets[:, 0] = amp * (eased - 0.5) * 2.0
        offsets[:, 1] = -0.25 * amp * np.sin(math.pi * eased)
    elif activity == "right_swipe":
        offsets[:, 0] = amp * (0.5 - eased) * 2.0
        offsets[:, 1] = -0.25 * amp * np.sin(math.pi * eased)
    elif activity in ("clockwise", "anticlockwise"):
        # A circle in the x-z plane facing the radar; clockwise as seen
        # from the radar corresponds to decreasing angle in subject +x/+z.
        turns = 1.0
        sign = -1.0 if activity == "clockwise" else 1.0
        theta = sign * 2.0 * math.pi * turns * eased + math.pi / 2.0
        radius = amp * 0.85
        offsets[:, 0] = radius * np.cos(theta)
        offsets[:, 2] = radius * np.sin(theta) - radius * 0.2
        offsets[:, 1] = -0.02  # slightly extended throughout

    trajectory = center[None, :] + offsets
    if rng is not None and style.tremor > 0.0:
        noise = rng.normal(0.0, style.tremor, size=(n_frames, 3))
        # Smooth the tremor so consecutive frames stay coherent.
        kernel = np.array([0.25, 0.5, 0.25])
        for axis in range(3):
            # "full" trimmed to n_frames: "same" returns 3 samples for 2.
            noise[:, axis] = np.convolve(noise[:, axis], kernel, mode="full")[1:-1]
        trajectory = trajectory + noise
    return trajectory


def mirror_activity(activity: str) -> str:
    """The mirrored counterpart used in "similar trajectory" attacks."""
    pairs = {
        "push": "pull",
        "pull": "push",
        "left_swipe": "right_swipe",
        "right_swipe": "left_swipe",
        "clockwise": "anticlockwise",
        "anticlockwise": "clockwise",
    }
    if activity not in pairs:
        raise ValueError(f"unknown activity {activity!r}")
    return pairs[activity]
