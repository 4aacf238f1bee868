"""Reference formulation of the Eq. 2 placement scoring, for tests only.

This is the one-candidate scoring that ``repro.attack.placement`` ran
before candidates were synthesized in stacked batches: each candidate's
trigger is posed and synthesized on its own.  It is kept verbatim so
``test_placement.py`` can pin the batched scorer to it; nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.attack.placement import _score_from_trigger_cubes


def score_candidate(
    simulator,
    surrogate,
    trigger,
    position,
    transforms,
    base_cubes,
    clean_heatmaps,
    clean_features,
    heatmap_config,
) -> "tuple[np.ndarray, np.ndarray]":
    """Eq. 2 terms for one candidate: (feature distance, heatmap deviation).

    Pure function of its arguments (no RNG), so scoring a candidate in a
    pool worker is bit-identical to scoring it in-process.  The pinned
    one-candidate reference for ``_score_candidates_batched``.
    """
    trigger_local = trigger.mesh_at(position)
    # Static rigid trigger, shared topology across frames: one batched
    # sequence synthesis instead of a per-frame loop.
    trigger_cubes = simulator.simulate_sequence(
        [trigger_local.transformed(tr) for tr in transforms],
        estimate_velocities=False,
    )
    return _score_from_trigger_cubes(
        trigger_cubes, surrogate,
        base_cubes, clean_heatmaps, clean_features, heatmap_config,
    )
