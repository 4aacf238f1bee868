"""FMCW IF-signal synthesis over triangulated scenes (paper Eq. 3).

Each visible triangular facet ``i`` contributes one attenuated complex
exponential to the IF signal of every TX-RX pair:

    S(t, k) = sum_i  (omega * A_g * A_m * A_a) / ((4 pi)^2 d_Ti d_iR)
              * exp(-j 2 pi (gamma * tau_ik * t + f0 * tau_ik))

with ``tau_ik = (d_Ti + d_iR) / c``.  The ``gamma * tau * t`` term is the
range-proportional beat the paper's Eq. 3 writes explicitly; we also keep
the standard carrier term ``f0 * tau`` because it carries the per-antenna
phase differences the Angle-FFT needs and the chirp-to-chirp phase
progression the Doppler-FFT needs.

Two execution paths are provided:

* :meth:`FmcwRadarSimulator.simulate_sequence` — the *batched* path used
  for dataset generation.  A pose sequence shares mesh topology, so
  visibility, centroids, areas and incidence extraction run once over a
  stacked ``(T, F, ...)`` geometry tensor, all per-frame facet phases are
  synthesized in one vectorized complex64 pass, and the beat x doppler x
  channel contraction runs as chunked BLAS matmuls.
* :meth:`FmcwRadarSimulator.frame_cube` /
  :meth:`FmcwRadarSimulator.simulate_sequence_reference` — the *per-frame
  separable* path: one :meth:`facet_set` + one einsum-style contraction
  per frame.  It is the pinned reference the batched path is equivalence-
  tested against.

``tests/radar/oracles.py`` keeps the *exact* synthesis that re-evaluates
every facet-antenna delay at every chirp; it is orders of magnitude slower
and bounds the error of the separable approximation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from ..geometry.mesh import TriangleMesh
from ..geometry.visibility import visibility_geometry, visible_mask_from_geometry
from ..runtime.telemetry import metrics, span
from ..runtime.threads import blas_threads, usable_cores
from .antenna import AntennaArray
from .chirp import SPEED_OF_LIGHT, ChirpConfig

#: Baseline facet budget per batched chunk, tuned on a 1-CPU container.
#: Bounds the flat phase workspaces to roughly
#: ``budget * (N_s + N_c * K)`` complex64 elements per chunk.
_BASE_FACET_BUDGET = 32768

#: Clamp bounds of the adaptive budget: below the floor the per-frame
#: GEMMs are too small to amortize dispatch; above the ceiling the
#: workspaces outgrow the last-level caches the chunking exists to fit.
_MIN_FACET_BUDGET = 4096
_MAX_FACET_BUDGET = 262144


def chunk_facet_budget() -> int:
    """Visible-facet budget per synthesis chunk, adapted to the machine.

    Scales the 1-CPU baseline with this process's BLAS threads (its
    usable cores where BLAS threads cannot be read) — more threads have
    proportionally more aggregate cache and BLAS parallelism to feed, so
    larger chunks keep the GEMMs efficient — and clamps the result to
    ``[_MIN_FACET_BUDGET, _MAX_FACET_BUDGET]``.  ``REPRO_FACET_BUDGET``
    overrides the heuristic (still clamped); an unparsable override is
    ignored rather than crashing mid-simulation.
    """
    override = os.environ.get("REPRO_FACET_BUDGET")
    if override is not None:
        try:
            return max(_MIN_FACET_BUDGET, min(_MAX_FACET_BUDGET, int(override)))
        except ValueError:
            pass
    cores = blas_threads() or usable_cores()
    return max(_MIN_FACET_BUDGET, min(_MAX_FACET_BUDGET, _BASE_FACET_BUDGET * cores))


@dataclass(frozen=True)
class RadarConfig:
    """Bundle of waveform + array + simulation options."""

    chirp: ChirpConfig = field(default_factory=ChirpConfig)
    antennas: AntennaArray = field(default_factory=AntennaArray)
    #: Multiplies every facet amplitude; chosen so IF magnitudes are O(1).
    amplitude_scale: float = 3.0e-5
    #: Whether to apply the coarse sector occlusion test on top of
    #: backface culling when selecting visible facets.
    use_occlusion: bool = True

    @property
    def cube_shape(self) -> "tuple[int, int, int]":
        """(fast-time, slow-time, antenna) shape of one frame's IF cube."""
        return (
            self.chirp.num_adc_samples,
            self.chirp.num_chirps,
            self.antennas.num_virtual,
        )


@dataclass
class FacetSet:
    """Precomputed per-facet quantities for one frame.

    Attributes
    ----------
    amplitudes:
        ``(F, K)`` real amplitude of each facet at each virtual channel
        (the full Eq. 3 prefactor including ``amplitude_scale``).
    delays:
        ``(F, K)`` round-trip delays ``tau_ik`` in seconds.
    delay_rates:
        ``(F,)`` time-derivative of the round-trip delay (s/s), i.e. the
        bistatic radial velocity divided by ``c``; drives Doppler phase.
    """

    amplitudes: np.ndarray
    delays: np.ndarray
    delay_rates: np.ndarray

    @property
    def num_facets(self) -> int:
        return len(self.delay_rates)

    @staticmethod
    def empty(num_channels: int) -> "FacetSet":
        return FacetSet(
            amplitudes=np.zeros((0, num_channels)),
            delays=np.zeros((0, num_channels)),
            delay_rates=np.zeros(0),
        )


def _unit_phasor(arg_cycles: np.ndarray) -> np.ndarray:
    """``exp(-2j pi arg)`` as complex64, accurate for large phase counts.

    The carrier term ``f0 * tau`` is thousands of radians; reducing to the
    fractional cycle in float64 *before* dropping to float32 keeps phase
    error at ~1e-7 cycles where a naive float32 product would lose four
    digits.  The complex exponential itself — the expensive part — then
    runs in single precision.  ``x - floor(x)`` equals
    ``np.remainder(x, 1.0)`` bit for bit on every finite input, in about
    a tenth of the time.
    """
    whole = np.floor(arg_cycles)
    phi = np.subtract(arg_cycles, whole, out=whole).astype(np.float32)
    phi *= np.float32(-2.0 * np.pi)
    # Separate float32 cos/sin into the real/imag planes of the output:
    # ~4x faster than numpy's complex exp, identical to 1e-7.
    out = np.empty(phi.shape, dtype=np.complex64)
    view = out.view(np.float32).reshape(phi.shape + (2,))
    np.cos(phi, out=view[..., 0])
    np.sin(phi, out=view[..., 1])
    return out


class FmcwRadarSimulator:
    """Synthesizes IF-signal frame cubes from triangle-mesh scenes."""

    def __init__(self, config: RadarConfig | None = None):
        self.config = config or RadarConfig()
        self._tx = self.config.antennas.tx_positions()
        self._rx = self.config.antennas.rx_positions()
        self._radar_position = self.config.antennas.phase_center()
        chirp = self.config.chirp
        self._fast_time = chirp.fast_time_axis()
        self._slow_time = np.arange(chirp.num_chirps) * chirp.chirp_repetition_s

    # ------------------------------------------------------------------
    # Facet preparation
    # ------------------------------------------------------------------
    def facet_set(
        self, mesh: TriangleMesh, velocities: np.ndarray | None = None
    ) -> FacetSet:
        """Per-facet amplitudes, delays and delay rates for one frame.

        Single-sided visibility filtering (paper Fig. 4) is applied
        *before* areas, gains and distances are derived, so occluded faces
        (typically half the scene or more) cost nothing beyond the culling
        pass itself.

        Parameters
        ----------
        mesh:
            Scene geometry at the frame time (radar at the array's phase
            center, i.e. near the origin).
        velocities:
            Optional ``(F, 3)`` per-face centroid velocities (m/s).  When
            omitted the scene is treated as static for this frame.
        """
        config = self.config
        with span("simulate.facet_set", faces=mesh.num_faces) as _span:
            if not mesh.num_faces:
                return FacetSet.empty(config.antennas.num_virtual)
            mask, cos, centroids_all = visibility_geometry(
                mesh, self._radar_position, use_occlusion=config.use_occlusion
            )
            if not mask.any():
                return FacetSet.empty(config.antennas.num_virtual)
            centroids = centroids_all[mask]
            gains = np.clip(cos[mask], 0.0, None)

            # Areas only for the surviving faces.
            tri = mesh.vertices[mesh.faces[mask]]
            areas = 0.5 * np.linalg.norm(
                np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
            )
            reflectivity = mesh.reflectivity[mask]

            # Distances facet -> each TX / RX element.
            d_tx = np.linalg.norm(centroids[:, None, :] - self._tx[None, :, :], axis=2)
            d_rx = np.linalg.norm(centroids[:, None, :] - self._rx[None, :, :], axis=2)
            # Virtual channel (t, r) delay and amplitude, flattened t-major to
            # match AntennaArray.pair_index.
            d_sum = d_tx[:, :, None] + d_rx[:, None, :]  # (F, n_tx, n_rx)
            d_prod = d_tx[:, :, None] * d_rx[:, None, :]
            num_f = centroids.shape[0]
            delays = (d_sum / SPEED_OF_LIGHT).reshape(num_f, -1)

            omega = 2.0 * math.pi * config.chirp.start_frequency_hz
            prefactor = (
                config.amplitude_scale
                * omega
                * (gains * reflectivity * areas)[:, None]
                / ((4.0 * math.pi) ** 2 * d_prod.reshape(num_f, -1))
            )

            if velocities is None:
                delay_rates = np.zeros(num_f)
            else:
                velocities = np.asarray(velocities, dtype=float)[mask]
                delay_rates = self._delay_rates(centroids, velocities)

            _span.set(visible=num_f)
            metrics().counter("simulator.facets_processed").inc(num_f)
            return FacetSet(amplitudes=prefactor, delays=delays, delay_rates=delay_rates)

    def _delay_rates(self, centroids: np.ndarray, velocities: np.ndarray) -> np.ndarray:
        """Bistatic delay rates from centroid velocities, any batch shape."""
        to_radar = self._radar_position - centroids
        dist = np.linalg.norm(to_radar, axis=-1, keepdims=True)
        dist = np.where(dist > 0.0, dist, 1.0)
        radial = (velocities * (-to_radar / dist)).sum(axis=-1)
        # Bistatic round trip: outbound + return path both lengthen.
        return 2.0 * radial / SPEED_OF_LIGHT

    # ------------------------------------------------------------------
    # Fast separable synthesis
    # ------------------------------------------------------------------
    def frame_cube_from_facets(self, facets: FacetSet) -> np.ndarray:
        """IF cube ``(N_s, N_c, K)`` from a prepared :class:`FacetSet`.

        Separable approximation: within a frame, each facet's range (beat
        frequency) is frozen at the frame time while its Doppler phase
        advances chirp to chirp — the standard range/Doppler decoupling,
        valid while motion per frame is well below a range bin.
        """
        config = self.config
        shape = config.cube_shape
        if facets.num_facets == 0:
            return np.zeros(shape, dtype=np.complex64)

        with span("simulate.frame_cube", facets=facets.num_facets):
            chirp = config.chirp
            f0 = chirp.start_frequency_hz
            gamma = chirp.slope_hz_per_s
            # Beat phase uses the channel-averaged delay; the sub-centimeter
            # array span is far below a range bin so per-channel beat
            # differences are negligible (per-channel *carrier* phases are
            # kept exactly below — they carry the angle information).
            tau_mean = facets.delays.mean(axis=1)
            beat = np.exp(
                (-2j * math.pi * gamma) * np.outer(tau_mean, self._fast_time)
            ).astype(np.complex64)
            doppler = np.exp(
                (-2j * math.pi * f0) * np.outer(facets.delay_rates, self._slow_time)
            ).astype(np.complex64)
            channel = (
                facets.amplitudes * np.exp((-2j * math.pi * f0) * facets.delays)
            ).astype(np.complex64)
            # sum_i beat[i,s] * doppler[i,m] * channel[i,k], contracted as one
            # BLAS matmul: (s, i) @ (i, m*k) — much faster than a raw einsum.
            num_facets = facets.num_facets
            chirps_by_channels = (doppler[:, :, None] * channel[:, None, :]).reshape(
                num_facets, -1
            )
            cube = beat.T @ chirps_by_channels
            metrics().counter("simulator.chirps_synthesized").inc(chirp.num_chirps)
            return cube.reshape(shape)

    def frame_cube(
        self, mesh: TriangleMesh, velocities: np.ndarray | None = None
    ) -> np.ndarray:
        """IF cube for one scene frame (fast path)."""
        return self.frame_cube_from_facets(self.facet_set(mesh, velocities))

    # ------------------------------------------------------------------
    # Sequences
    # ------------------------------------------------------------------
    def sequence_velocities(self, meshes: "list[TriangleMesh]") -> "list[np.ndarray]":
        """Per-frame facet-centroid velocities by central finite difference.

        Requires all meshes in the sequence to share topology (identical
        face counts), which holds for :class:`~repro.geometry.human
        .HumanModel` pose sequences.
        """
        if not meshes:
            return []
        counts = {mesh.num_faces for mesh in meshes}
        if len(counts) != 1:
            raise ValueError("mesh sequence must share topology for velocity estimation")
        centroids = np.stack([mesh.face_centroids() for mesh in meshes])
        dt = self.config.chirp.frame_period_s
        velocities = np.gradient(centroids, dt, axis=0)
        return [velocities[t] for t in range(len(meshes))]

    @staticmethod
    def _shares_topology(meshes: "list[TriangleMesh]") -> bool:
        """True when all meshes share faces and reflectivity (pose sequences)."""
        first = meshes[0]
        return all(
            mesh.num_faces == first.num_faces
            and mesh.num_vertices == first.num_vertices
            and np.array_equal(mesh.faces, first.faces)
            and np.array_equal(mesh.reflectivity, first.reflectivity)
            for mesh in meshes[1:]
        )

    def simulate_sequence(
        self,
        meshes: "list[TriangleMesh]",
        extra_facets: "list[FacetSet] | None" = None,
        estimate_velocities: bool = True,
        batched: bool = True,
    ) -> np.ndarray:
        """IF cubes ``(T, N_s, N_c, K)`` for a mesh sequence.

        ``extra_facets`` optionally adds precomputed static contributions
        (e.g. environment clutter) to every frame without re-deriving them.
        ``estimate_velocities=False`` treats every frame as static (no
        Doppler phase), which is how rigid trigger attachments are
        synthesized.  When the meshes share topology — the normal case for
        pose sequences — the batched fast path runs the whole sequence
        through one stacked geometry/phase pass; otherwise (or with
        ``batched=False``) it falls back to per-frame synthesis.
        """
        if not meshes:
            raise ValueError("empty mesh sequence")
        use_batched = batched and self._shares_topology(meshes)
        with span(
            "simulate.sequence", frames=len(meshes), batched=use_batched
        ) as _span:
            if use_batched:
                stacked = self._simulate_sequence_batched(
                    meshes, extra_facets, estimate_velocities
                )
            else:
                stacked = self._simulate_sequence_frames(
                    meshes, extra_facets, estimate_velocities
                )
        # Synthesis rate for the run record: chirps per wall-second (the
        # disabled no-op span reports zero duration, skipping the gauge).
        duration = _span.duration_s
        if duration > 0.0:
            num_chirps = len(meshes) * self.config.chirp.num_chirps
            metrics().gauge("simulator.chirps_per_s").set(num_chirps / duration)
        return stacked

    def simulate_sequence_reference(
        self,
        meshes: "list[TriangleMesh]",
        extra_facets: "list[FacetSet] | None" = None,
        estimate_velocities: bool = True,
    ) -> np.ndarray:
        """The pinned per-frame path: one facet_set + frame cube per frame.

        Kept as the equivalence oracle for the batched fast path and the
        baseline the benchmark suite reports speedups against.
        """
        return self.simulate_sequence(
            meshes,
            extra_facets,
            estimate_velocities=estimate_velocities,
            batched=False,
        )

    def _static_cube(self, extra_facets: "list[FacetSet] | None") -> np.ndarray | None:
        if not extra_facets:
            return None
        return sum(
            (self.frame_cube_from_facets(f) for f in extra_facets),
            np.zeros(self.config.cube_shape, dtype=np.complex64),
        )

    def _simulate_sequence_frames(
        self,
        meshes: "list[TriangleMesh]",
        extra_facets: "list[FacetSet] | None",
        estimate_velocities: bool,
    ) -> np.ndarray:
        if estimate_velocities:
            velocities = self.sequence_velocities(meshes)
        else:
            velocities = [None] * len(meshes)
        static = self._static_cube(extra_facets)
        frames = []
        for mesh, vel in zip(meshes, velocities):
            cube = self.frame_cube(mesh, vel)
            if static is not None:
                cube = cube + static
            frames.append(cube)
        return np.stack(frames)

    def _simulate_sequence_batched(
        self,
        meshes: "list[TriangleMesh]",
        extra_facets: "list[FacetSet] | None",
        estimate_velocities: bool,
    ) -> np.ndarray:
        """One stacked geometry/phase pass for a shared-topology sequence."""
        config = self.config
        chirp = config.chirp
        num_frames = len(meshes)
        n_s, n_c, n_k = config.cube_shape
        out = np.zeros((num_frames, n_s, n_c * n_k), dtype=np.complex64)

        faces = meshes[0].faces
        reflectivity = meshes[0].reflectivity
        if len(faces):
            with span(
                "simulate.sequence_geometry", frames=num_frames, faces=len(faces)
            ):
                vertices = np.stack([mesh.vertices for mesh in meshes])  # (T, V, 3)
                tri = vertices[:, faces, :]  # (T, F, 3 corners, 3)
                a, b, c = tri[:, :, 0], tri[:, :, 1], tri[:, :, 2]
                cross = np.cross(b - a, c - a)
                norms = np.linalg.norm(cross, axis=-1)
                areas = 0.5 * norms  # (T, F)
                safe = np.where(norms > 0.0, norms, 1.0)[..., None]
                normals = np.where(norms[..., None] > 0.0, cross / safe, 0.0)
                centroids = (a + b + c) / 3.0  # (T, F, 3)
                mask, cos = visible_mask_from_geometry(
                    centroids,
                    normals,
                    self._radar_position,
                    use_occlusion=config.use_occlusion,
                )  # both (T, F)
                if estimate_velocities:
                    velocities = np.gradient(
                        centroids, chirp.frame_period_s, axis=0
                    )
                else:
                    velocities = None
            # Flatten visible (frame, facet) pairs; np.nonzero is row-major,
            # so each frame's facets occupy one contiguous slice.
            idx_t, idx_f = np.nonzero(mask)
            counts = mask.sum(axis=1)
            offsets = np.concatenate(([0], np.cumsum(counts)))
        else:
            idx_t = idx_f = np.zeros(0, dtype=int)
            offsets = np.zeros(num_frames + 1, dtype=int)

        num_visible = len(idx_t)
        if num_visible:
            with span("simulate.sequence_facets", facets=num_visible):
                cen = centroids[idx_t, idx_f]  # (N, 3)
                gains = cos[idx_t, idx_f]  # > 0 by construction of the mask
                weight = gains * reflectivity[idx_f] * areas[idx_t, idx_f]
                d_tx = np.linalg.norm(cen[:, None, :] - self._tx[None, :, :], axis=2)
                d_rx = np.linalg.norm(cen[:, None, :] - self._rx[None, :, :], axis=2)
                d_sum = (d_tx[:, :, None] + d_rx[:, None, :]).reshape(num_visible, -1)
                d_prod = (d_tx[:, :, None] * d_rx[:, None, :]).reshape(num_visible, -1)
                delays = d_sum / SPEED_OF_LIGHT  # (N, K)
                omega = 2.0 * math.pi * chirp.start_frequency_hz
                prefactor = (
                    config.amplitude_scale
                    * omega
                    * weight[:, None]
                    / ((4.0 * math.pi) ** 2 * d_prod)
                ).astype(np.float32)
                if velocities is None:
                    delay_rates = np.zeros(num_visible)
                else:
                    delay_rates = self._delay_rates(cen, velocities[idx_t, idx_f])
            metrics().counter("simulator.facets_processed").inc(num_visible)

            f0 = chirp.start_frequency_hz
            gamma = chirp.slope_hz_per_s
            with span("simulate.sequence_synthesis", facets=num_visible):
                # Chunk the frame axis so the flat complex64 workspaces stay
                # bounded; each chunk is one vectorized phase pass plus one
                # BLAS matmul per frame on contiguous slices.
                facet_budget = chunk_facet_budget()
                start_frame = 0
                while start_frame < num_frames:
                    stop_frame = start_frame + 1
                    while (
                        stop_frame < num_frames
                        and offsets[stop_frame + 1] - offsets[start_frame]
                        <= facet_budget
                    ):
                        stop_frame += 1
                    lo, hi = offsets[start_frame], offsets[stop_frame]
                    tau = delays[lo:hi]
                    # Same separable decomposition as frame_cube_from_facets:
                    # beat at the channel-averaged delay, exact per-channel
                    # carrier phases, chirp-to-chirp Doppler progression.
                    beat = _unit_phasor(
                        np.outer(gamma * tau.mean(axis=1), self._fast_time)
                    )  # (n, N_s)
                    doppler = _unit_phasor(
                        np.outer(f0 * delay_rates[lo:hi], self._slow_time)
                    )  # (n, N_c)
                    channel = prefactor[lo:hi] * _unit_phasor(f0 * tau)  # (n, K)
                    chirps_by_channels = (
                        doppler[:, :, None] * channel[:, None, :]
                    ).reshape(hi - lo, -1)
                    for t in range(start_frame, stop_frame):
                        s0, s1 = offsets[t] - lo, offsets[t + 1] - lo
                        np.matmul(
                            beat[s0:s1].T, chirps_by_channels[s0:s1], out=out[t]
                        )
                    start_frame = stop_frame

        static = self._static_cube(extra_facets)
        if static is not None:
            out += static.reshape(1, n_s, -1)
        metrics().counter("simulator.chirps_synthesized").inc(num_frames * n_c)
        return out.reshape(num_frames, n_s, n_c, n_k)
