"""Section VII — trigger detection and augmentation defenses."""

import pytest

from repro.eval import format_defense, run_defenses


@pytest.mark.figure("sec7")
def test_sec7_defenses(ctx, run_once):
    result = run_once(run_defenses, ctx)
    print()
    print(format_defense(result))
    # The detector must beat coin flipping, and augmentation must not
    # destroy clean accuracy.
    assert result.detector.auc > 0.5
    assert result.cdr_with_augmentation > 1.0 / 6.0
