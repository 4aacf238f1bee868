"""repro — reproduction of "Physical Backdoor Attacks against mmWave-based
Human Activity Recognition" (ICDCS 2025).

Subpackages
-----------
``repro.geometry``
    Triangle meshes, rigid transforms, visibility filtering, and the
    articulated human model with the six hand-activity trajectories.
``repro.radar``
    FMCW chirp/antenna configuration, the Eq. 3 IF-signal simulator, and
    the Range/Doppler/Angle-FFT heatmap pipelines (RDI, DRAI).
``repro.nn``
    From-scratch NumPy autodiff, layers, LSTM, and optimizers.
``repro.models``
    The CNN-LSTM HAR prototype, trainer, and ASR/UASR/CDR metrics.
``repro.xai``
    KernelSHAP / permutation-Shapley frame attribution (Eq. 1).
``repro.datasets``
    Simulator-driven data collection across the 12-position grid.
``repro.attack``
    The physical backdoor: reflector triggers, the Eq. 2 placement
    optimizer, the Eq. 4 global position, poisoning, orchestration.
``repro.defense``
    Trigger detection and data-augmentation hardening (Section VII).
``repro.eval``
    Per-figure experiment runners, scale presets, and reporting.

Importing the package keeps the heap this process frees mapped for its
next allocation (:func:`repro.runtime.heap.keep_heap_mapped`).
"""

from . import attack, datasets, defense, eval, geometry, models, nn, radar, xai
from .runtime.heap import keep_heap_mapped

keep_heap_mapped()

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "attack",
    "datasets",
    "defense",
    "eval",
    "geometry",
    "models",
    "nn",
    "radar",
    "xai",
]
