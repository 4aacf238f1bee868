"""Explainable-AI substrate: SHAP frame attribution (paper Eq. 1, Fig. 3)."""

from .frame_importance import (
    FrameImportanceAnalyzer,
    FrameImportanceResult,
    top_k_frames,
)
from .shap import KernelShapExplainer, PermutationShapExplainer, ShapConfig

__all__ = [
    "FrameImportanceAnalyzer",
    "FrameImportanceResult",
    "KernelShapExplainer",
    "PermutationShapExplainer",
    "ShapConfig",
    "top_k_frames",
]
