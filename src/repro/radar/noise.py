"""Receiver noise and static environment clutter.

The prototype's IF signals include thermal receiver noise and returns from
static furniture (chairs, tables, walls in the dormitory hallway / classroom
environments).  Both are modeled here; clutter facets feed the simulator as
extra static :class:`~repro.radar.simulator.FacetSet` contributions, while
thermal noise is added directly on the IF cubes.
"""

from __future__ import annotations

import numpy as np

from ..geometry.mesh import CLUTTER_REFLECTIVITY, TriangleMesh, merge_meshes
from ..geometry.primitives import box
from ..geometry.transforms import RigidTransform, rotation_z


def complex_awgn(
    shape: "tuple[int, ...]", sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise, one batched draw.

    A single float32 ``standard_normal`` fills the real/imaginary parts of
    the whole tensor (a sequence draws its ``(T, N_s, N_c, K)`` noise in
    one call, like the signal path synthesizes its phases), then a
    zero-copy view pairs them into ``complex64``.  Per-element re/im
    interleaving means a per-frame loop over the same generator consumes
    the identical stream — the equivalence the noise tests pin.
    """
    draws = rng.standard_normal(size=(*shape, 2), dtype=np.float32)
    draws *= np.float32(sigma)
    return draws.view(np.complex64)[..., 0]


def noise_sigma(cube: np.ndarray, snr_db: float) -> float:
    """Per-component noise std for ``snr_db`` below the cube's mean power.

    Referenced to the whole array — a sequence's quiet frames stay quiet
    instead of getting their own inflated noise floor.
    """
    signal_power = float(np.mean(np.abs(np.asarray(cube)) ** 2))
    if signal_power == 0.0:
        return 0.0
    return float(np.sqrt(signal_power / (10.0 ** (snr_db / 10.0)) / 2.0))


def add_thermal_noise(
    cube: np.ndarray, snr_db: float, rng: np.random.Generator
) -> np.ndarray:
    """Add complex AWGN at the given SNR relative to the signal RMS.

    ``cube`` may be a single frame ``(N_s, N_c, K)`` or a sequence
    ``(T, N_s, N_c, K)``; the full noise tensor comes from one batched
    :func:`complex_awgn` draw.
    """
    cube = np.asarray(cube)
    sigma = noise_sigma(cube, snr_db)
    if sigma == 0.0:
        return cube.copy()
    return cube + complex_awgn(cube.shape, sigma, rng)


def random_environment(
    rng: np.random.Generator,
    num_objects: int = 3,
    span_x: "tuple[float, float]" = (-2.0, 2.0),
    span_y: "tuple[float, float]" = (1.5, 4.0),
) -> TriangleMesh:
    """Static clutter: a few furniture-sized boxes scattered in the room.

    The returned mesh is static across a sample's frames, so after MTI
    clutter removal it mostly vanishes from DRAI heatmaps — exactly the
    role the hallway furniture plays for the real prototype.
    """
    if num_objects < 1:
        raise ValueError("need at least one clutter object")
    objects = []
    for index in range(num_objects):
        size = (
            float(rng.uniform(0.3, 0.8)),
            float(rng.uniform(0.2, 0.5)),
            float(rng.uniform(0.4, 1.0)),
        )
        obj = box(size, reflectivity=CLUTTER_REFLECTIVITY, name=f"clutter_{index}")
        yaw = float(rng.uniform(0.0, 2.0 * np.pi))
        position = np.array(
            [
                rng.uniform(*span_x),
                rng.uniform(*span_y),
                rng.uniform(-0.6, 0.2),
            ]
        )
        objects.append(obj.transformed(RigidTransform(rotation_z(yaw), position)))
    return merge_meshes(objects, name="environment")
