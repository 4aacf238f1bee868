"""Plain-text reporting: the rows/series each paper figure shows.

Benchmarks print these tables so a run's stdout reads like the paper's
evaluation section (who wins, by what factor, where crossovers fall).
"""

from __future__ import annotations

from ..datasets.activities import ACTIVITY_DISPLAY_NAMES
from .experiments import (
    AblationResult,
    SpectralDefenseResult,
    CleanPrototypeResult,
    DefenseResult,
    FrameImportanceExperimentResult,
    RobustnessResult,
    StealthResult,
    SweepResult,
    ThroughputResult,
)


def format_confusion_matrix(result: CleanPrototypeResult) -> str:
    """Fig. 7-style confusion matrix with display names."""
    names = [name[:6] for name in ACTIVITY_DISPLAY_NAMES]
    header = " " * 8 + " ".join(f"{n:>6}" for n in names)
    lines = [f"Clean prototype accuracy: {result.accuracy:.2%}", header]
    for i, row in enumerate(result.confusion):
        cells = " ".join(f"{int(v):>6}" for v in row)
        lines.append(f"{names[i]:>8}{cells}")
    return "\n".join(lines)


def format_sweep(result: SweepResult, metric: str) -> str:
    """One metric of a sweep as a table: rows = curves, columns = values."""
    header = f"{metric.upper()} vs {result.parameter_name}"
    value_row = "  ".join(f"{v:>7.2f}" for v in result.parameter_values)
    lines = [header, f"{'curve':>24}  {value_row}"]
    for curve, metrics in result.curves.items():
        cells = "  ".join(f"{getattr(m, metric):>7.2%}" for m in metrics)
        lines.append(f"{curve:>24}  {cells}")
    return "\n".join(lines)


def format_full_sweep(result: SweepResult) -> str:
    """All three metrics of a sweep (the (a)/(b)/(c) subplot triplet)."""
    return "\n\n".join(
        format_sweep(result, metric) for metric in ("asr", "uasr", "cdr")
    )


def format_histogram(result: FrameImportanceExperimentResult, width: int = 40) -> str:
    """Fig. 3: ASCII histogram of most-important frame indexes."""
    counts = result.histogram
    peak = max(int(counts.max()), 1)
    lines = [f"Most-important-frame index distribution over {result.num_samples} samples"]
    for index, count in enumerate(counts):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"frame {index:>2}: {count:>3} {bar}")
    return "\n".join(lines)


def format_stealth(result: StealthResult) -> str:
    """Fig. 5: deviation statistics between clean/triggered heatmaps."""
    dev = result.deviation
    return (
        "Clean vs triggered DRAI (Clockwise, optimal position):\n"
        f"  max pixel deviation : {dev['max_abs']:.4f} (heatmaps are in [0, 1])\n"
        f"  sequence L2         : {dev['l2']:.4f}\n"
        f"  relative L2         : {dev['relative_l2']:.2%}"
    )


def format_robustness(result: RobustnessResult) -> str:
    """Figs. 14/15: ASR/UASR per angle or distance, zero-shot flagged."""
    lines = [f"ASR/UASR vs {result.parameter_name} (* = zero-shot)"]
    for value, seen, asr, uasr in zip(
        result.parameter_values, result.seen_mask, result.asr, result.uasr
    ):
        marker = " " if seen else "*"
        lines.append(
            f"  {value:>6.2f}{marker}  ASR={asr:>7.2%}  UASR={uasr:>7.2%}"
        )
    return "\n".join(lines)


def format_ablation(result: AblationResult) -> str:
    """Table I."""
    lines = ["| Experiment | Attack Success Rate |", "|---|---|"]
    for label, asr in result.rows:
        lines.append(f"| {label} | {asr:.0%} |")
    return "\n".join(lines)


def format_throughput(result: ThroughputResult) -> str:
    """Section VI-D simulator timing."""
    return (
        f"IF simulation: {result.seconds_per_activity:.2f} s per activity "
        f"({result.num_frames} frames, {result.num_virtual_antennas} virtual antennas); "
        f"{result.seconds_per_pair_activity * 1000:.1f} ms per TX-RX pair per activity "
        "(paper: ~0.87 s per pair on GPU-accelerated PyTorch)"
    )


def format_defense(result: DefenseResult) -> str:
    """Section VII defense summary."""
    return (
        f"Trigger detector: {result.detector}\n"
        f"Augmentation defense: ASR {result.asr_without_defense:.1%} -> "
        f"{result.asr_with_augmentation:.1%} "
        f"(CDR with defense: {result.cdr_with_augmentation:.1%})"
    )


def format_spectral_defense(result: SpectralDefenseResult) -> str:
    """Spectral-signature defense summary (Section VII extension)."""
    return (
        f"Spectral filtering caught {result.poison_recall:.0%} of the poison "
        f"while removing {result.removed_fraction:.0%} of training data;\n"
        f"ASR {result.asr_before:.1%} -> {result.asr_after:.1%} "
        f"(CDR after retraining: {result.cdr_after:.1%})"
    )
