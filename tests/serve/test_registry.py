"""Model registry: atomic publish, aliases, and tamper detection."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.activities import ACTIVITY_NAMES
from repro.models import CNNLSTMClassifier
from repro.runtime.errors import ModelNotFoundError, RegistryError
from repro.serve import ModelRegistry
from repro.serve.registry import REGISTRY_SCHEMA_VERSION

from ..conftest import MICRO_MODEL_CONFIG
from .conftest import NUM_FRAMES


def test_publish_creates_content_addressed_artifact(published_registry):
    registry, model_id = published_registry
    assert model_id.startswith("m-")
    assert registry.list_models() == [model_id]
    assert registry.resolve("latest") == model_id
    assert registry.resolve(model_id) == model_id
    manifest = registry.manifest("latest")
    assert manifest["model_id"] == model_id
    assert manifest["schema_version"] == REGISTRY_SCHEMA_VERSION
    assert manifest["labels"] == list(ACTIVITY_NAMES)
    assert manifest["preprocessing"]["num_frames"] == NUM_FRAMES
    assert manifest["detector"] is not None


def test_republish_identical_content_is_idempotent(
    published_registry, trained_micro_model, micro_detector
):
    registry, model_id = published_registry
    again = registry.publish(
        trained_micro_model, ACTIVITY_NAMES, NUM_FRAMES,
        detector=micro_detector,
    )
    assert again == model_id
    assert registry.list_models() == [model_id]
    # No leftover staging directories from the no-op republish.
    leftovers = [
        entry.name
        for entry in registry.models_dir.iterdir()
        if entry.name.startswith(".staging-")
    ]
    assert leftovers == []


def test_unknown_reference_raises_model_not_found(published_registry):
    registry, _ = published_registry
    with pytest.raises(ModelNotFoundError):
        registry.resolve("m-000000000000")
    with pytest.raises(ModelNotFoundError):
        registry.load("no-such-alias")


def test_alias_must_point_at_existing_model(published_registry):
    registry, _ = published_registry
    with pytest.raises(ModelNotFoundError):
        registry.set_alias("canary", "m-000000000000")


def test_alias_repoint_and_pinned_id_coexist(tmp_path, trained_micro_model):
    registry = ModelRegistry(tmp_path)
    first = registry.publish(trained_micro_model, ACTIVITY_NAMES, NUM_FRAMES)
    other_model = CNNLSTMClassifier(
        MICRO_MODEL_CONFIG, np.random.default_rng(99)
    )
    second = registry.publish(other_model, ACTIVITY_NAMES, NUM_FRAMES)
    assert first != second
    assert registry.resolve("latest") == second  # repointed by publish
    assert registry.resolve(first) == first  # pinned id still resolves
    registry.set_alias("stable", first)
    assert registry.resolve("stable") == first


def test_tampered_weights_detected_by_checksum(tmp_path, trained_micro_model):
    registry = ModelRegistry(tmp_path)
    model_id = registry.publish(trained_micro_model, ACTIVITY_NAMES, NUM_FRAMES)
    weights = registry.model_dir(model_id) / "weights.npz"
    corrupted = bytearray(weights.read_bytes())
    corrupted[len(corrupted) // 2] ^= 0xFF
    weights.write_bytes(bytes(corrupted))
    with pytest.raises(RegistryError, match="checksum mismatch"):
        registry.load("latest")


def test_hand_edited_manifest_detected_by_id_recheck(
    tmp_path, trained_micro_model
):
    """Even a self-consistent manifest edit (checksum swapped to match
    replaced bytes) fails the content-derived-id recomputation."""
    registry = ModelRegistry(tmp_path)
    model_id = registry.publish(trained_micro_model, ACTIVITY_NAMES, NUM_FRAMES)
    manifest_path = registry.model_dir(model_id) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["labels"][0] = "tampered"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(RegistryError, match="does not match its model id"):
        registry.verify("latest")


def test_missing_artifact_file_detected(tmp_path, trained_micro_model):
    registry = ModelRegistry(tmp_path)
    model_id = registry.publish(trained_micro_model, ACTIVITY_NAMES, NUM_FRAMES)
    (registry.model_dir(model_id) / "weights.npz").unlink()
    with pytest.raises(RegistryError, match="missing artifact file"):
        registry.load("latest")


def test_stale_schema_version_refused(tmp_path, trained_micro_model):
    registry = ModelRegistry(tmp_path)
    model_id = registry.publish(trained_micro_model, ACTIVITY_NAMES, NUM_FRAMES)
    manifest_path = registry.model_dir(model_id) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = REGISTRY_SCHEMA_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(RegistryError, match="manifest schema"):
        registry.manifest("latest")


_PUBLISH_UNDER_UMASK_022 = """
import os, stat, sys
os.umask(0o022)  # before the import: the package reads the umask once

import numpy as np

from repro.datasets.activities import ACTIVITY_NAMES
from repro.models import CNNLSTMClassifier, ModelConfig
from repro.serve import ModelRegistry

config = ModelConfig(frame_shape=(16, 16), conv_channels=(4, 8),
                     feature_dim=12, lstm_hidden=16, dropout=0.0)
registry = ModelRegistry(sys.argv[1])
model_id = registry.publish(
    CNNLSTMClassifier(config, np.random.default_rng(0)), ACTIVITY_NAMES, 8
)
for path in (registry.models_dir, registry.model_dir(model_id),
             registry.model_dir(model_id) / "manifest.json"):
    print(oct(stat.S_IMODE(os.stat(path).st_mode)))
"""


def test_published_model_directory_honours_the_umask(tmp_path):
    """Under umask 022 ``models/m-…`` is 0755 like ``models/`` itself,
    not the 0700 of the temporary directory it was staged in."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    modes = subprocess.run(
        [sys.executable, "-c", _PUBLISH_UNDER_UMASK_022, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout.split()
    assert modes == ["0o755", "0o755", "0o644"]


def test_label_count_must_match_model(trained_micro_model, tmp_path):
    registry = ModelRegistry(tmp_path)
    with pytest.raises(ValueError, match="labels"):
        registry.publish(trained_micro_model, ("just-one",), NUM_FRAMES)


def _publish_three(tmp_path, trained_micro_model):
    """Three distinct models; ``stable`` pins the first, ``latest`` the
    third, and the second is reachable by id only."""
    registry = ModelRegistry(tmp_path)
    first = registry.publish(trained_micro_model, ACTIVITY_NAMES, NUM_FRAMES)
    second = registry.publish(
        CNNLSTMClassifier(MICRO_MODEL_CONFIG, np.random.default_rng(7)),
        ACTIVITY_NAMES, NUM_FRAMES,
    )
    third = registry.publish(
        CNNLSTMClassifier(MICRO_MODEL_CONFIG, np.random.default_rng(8)),
        ACTIVITY_NAMES, NUM_FRAMES,
    )
    registry.set_alias("stable", first)
    return registry, first, second, third


def test_gc_removes_only_alias_unreachable_models(
    tmp_path, trained_micro_model
):
    registry, first, second, third = _publish_three(
        tmp_path, trained_micro_model
    )
    report = registry.gc()
    assert report["removed"] == [second]
    assert sorted(report["kept"]) == sorted([first, third])
    assert report["reclaimed_bytes"] > 0
    assert report["dry_run"] is False
    assert sorted(registry.list_models()) == sorted([first, third])
    # Both alias-reachable models still verify end to end.
    registry.verify("stable")
    registry.verify("latest")
    with pytest.raises(ModelNotFoundError):
        registry.resolve(second)


def test_gc_dry_run_reports_without_deleting(tmp_path, trained_micro_model):
    registry, first, second, third = _publish_three(
        tmp_path, trained_micro_model
    )
    report = registry.gc(dry_run=True)
    assert report["removed"] == [second]
    assert report["dry_run"] is True
    assert sorted(registry.list_models()) == sorted([first, second, third])
    registry.verify(second)


def test_gc_collects_stale_staging_directories(
    tmp_path, trained_micro_model
):
    registry = ModelRegistry(tmp_path)
    registry.publish(trained_micro_model, ACTIVITY_NAMES, NUM_FRAMES)
    stale = registry.models_dir / ".staging-dead"
    stale.mkdir()
    (stale / "weights.npz").write_bytes(b"half-written")
    report = registry.gc()
    assert report["staging_removed"] == 1
    assert report["removed"] == []
    assert not stale.exists()


def test_gc_on_empty_registry_is_a_no_op(tmp_path):
    registry = ModelRegistry(tmp_path / "empty")
    report = registry.gc()
    assert report == {
        "removed": [], "kept": [], "staging_removed": 0,
        "reclaimed_bytes": 0, "dry_run": False,
    }
