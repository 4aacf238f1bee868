"""Model registry: immutable, checksum-manifested serving artifacts.

A published model is a directory under ``<root>/models/<model_id>/``::

    manifest.json    schema version, configs, label map, file checksums
    weights.npz      CNN-LSTM state dict (``nn.serialization`` layout)
    detector.npz     optional Section VII trigger-detector state dict

The ``model_id`` is derived from the SHA-256 of the manifest core (which
itself pins the SHA-256 of every weight file), so an id names exactly one
set of bytes forever: republishing identical content is a no-op, and any
post-publish tampering is detected at load time and surfaced as a typed
:class:`~repro.runtime.errors.RegistryError` rather than silently serving
corrupted weights.

Publish is atomic (stage into a temp directory, then one ``os.rename``)
and aliases (``latest``, deployment-pinned names) live in a single
``aliases.json`` rewritten with the repo's write-then-rename pattern, so
a crash mid-publish can never leave a half-visible model.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..defense.detector import DetectorConfig, TriggerDetector
from ..models.cnn_lstm import CNNLSTMClassifier, ModelConfig
from ..nn.serialization import load_arrays, save_arrays
from ..runtime.errors import ModelNotFoundError, RegistryError
from ..runtime.logging import get_logger
from ..runtime.telemetry import DIR_MODE, metrics, span

_log = get_logger("serve.registry")

#: Bump when the manifest layout changes; ``load`` refuses other versions.
REGISTRY_SCHEMA_VERSION = 2

_WEIGHTS_FILE = "weights.npz"
_DETECTOR_FILE = "detector.npz"
_MANIFEST_FILE = "manifest.json"
_ALIASES_FILE = "aliases.json"


def sha256_file(path: "str | os.PathLike") -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _tree_bytes(root: Path) -> int:
    total = 0
    for path in root.rglob("*"):
        try:
            if path.is_file():
                total += path.stat().st_size
        except OSError:
            continue
    return total


@dataclass
class LoadedModel:
    """A verified, ready-to-serve model resolved from the registry."""

    model_id: str
    model: CNNLSTMClassifier
    labels: "tuple[str, ...]"
    num_frames: int
    detector: "TriggerDetector | None"
    manifest: dict

    @property
    def frame_shape(self) -> "tuple[int, int]":
        return self.model.config.frame_shape

    @property
    def sequence_shape(self) -> "tuple[int, int, int]":
        """The ``(T, H, W)`` shape every request sequence must match."""
        return (self.num_frames, *self.frame_shape)


def _detector_manifest(detector: TriggerDetector) -> dict:
    config = detector.config
    return {
        "conv_channels": list(config.conv_channels),
        "feature_dim": config.feature_dim,
        "lstm_hidden": config.lstm_hidden,
        "dropout": config.dropout,
        "canonicalize": config.canonicalize,
    }


def _rebuild_detector(
    entry: dict, frame_shape: "tuple[int, int]", num_frames: int
) -> TriggerDetector:
    config = DetectorConfig(
        conv_channels=tuple(entry["conv_channels"]),
        feature_dim=int(entry["feature_dim"]),
        lstm_hidden=int(entry["lstm_hidden"]),
        dropout=float(entry["dropout"]),
        canonicalize=bool(entry["canonicalize"]),
    )
    return TriggerDetector(frame_shape, num_frames, config)


class ModelRegistry:
    """Filesystem-backed store of published serving artifacts."""

    def __init__(self, root: "str | os.PathLike"):
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def models_dir(self) -> Path:
        return self.root / "models"

    def model_dir(self, model_id: str) -> Path:
        return self.models_dir / model_id

    @property
    def aliases_path(self) -> Path:
        return self.root / _ALIASES_FILE

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(
        self,
        model: CNNLSTMClassifier,
        labels: "tuple[str, ...] | list[str]",
        num_frames: int,
        detector: "TriggerDetector | None" = None,
        extra: "dict | None" = None,
        aliases: "tuple[str, ...]" = ("latest",),
    ) -> str:
        """Publish a trained model atomically; returns its ``model_id``.

        The artifact is staged in a temp directory next to its final
        location and made visible with one rename, so readers either see
        the complete artifact or none of it.  Publishing byte-identical
        content again is a no-op returning the existing id.
        """
        labels = tuple(str(label) for label in labels)
        if len(labels) != model.config.num_classes:
            raise ValueError(
                f"{len(labels)} labels for {model.config.num_classes} classes"
            )
        if num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {num_frames}")
        with span("serve.publish"):
            self.models_dir.mkdir(parents=True, exist_ok=True)
            staging = Path(
                tempfile.mkdtemp(dir=self.models_dir, prefix=".staging-")
            )
            try:
                # ``mkdtemp`` makes the directory 0700; the published
                # artifact gets the mode ``mkdir`` would have given it.
                os.chmod(staging, DIR_MODE)
                save_arrays(model.state_dict(), staging / _WEIGHTS_FILE)
                files = {_WEIGHTS_FILE: sha256_file(staging / _WEIGHTS_FILE)}
                detector_entry = None
                if detector is not None:
                    save_arrays(
                        detector.model.state_dict(), staging / _DETECTOR_FILE
                    )
                    files[_DETECTOR_FILE] = sha256_file(staging / _DETECTOR_FILE)
                    detector_entry = _detector_manifest(detector)
                core = {
                    "schema_version": REGISTRY_SCHEMA_VERSION,
                    "model": asdict(model.config),
                    "detector": detector_entry,
                    "labels": list(labels),
                    "preprocessing": {
                        "num_frames": int(num_frames),
                        "frame_shape": list(model.config.frame_shape),
                        "dtype": "float32",
                        **(extra or {}),
                    },
                    "files": files,
                }
                model_id = "m-" + hashlib.sha256(
                    _canonical_json(core).encode()
                ).hexdigest()[:12]
                manifest = {"model_id": model_id, **core}
                (staging / _MANIFEST_FILE).write_text(
                    json.dumps(manifest, indent=2, sort_keys=True) + "\n"
                )
                target = self.model_dir(model_id)
                if target.exists():
                    # Content-derived id: an existing directory holds the
                    # same bytes, so republish degenerates to alias update.
                    shutil.rmtree(staging)
                else:
                    os.rename(staging, target)
            except BaseException:
                shutil.rmtree(staging, ignore_errors=True)
                raise
        for alias in aliases:
            self.set_alias(alias, model_id)
        metrics().counter("serve.models_published").inc()
        _log.info("published model %s (aliases: %s)", model_id, ", ".join(aliases))
        return model_id

    # ------------------------------------------------------------------
    # Aliases
    # ------------------------------------------------------------------
    def aliases(self) -> "dict[str, str]":
        if not self.aliases_path.exists():
            return {}
        try:
            payload = json.loads(self.aliases_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(self.aliases_path, f"unreadable aliases: {exc}")
        if not isinstance(payload, dict):
            raise RegistryError(self.aliases_path, "aliases must be an object")
        return {str(k): str(v) for k, v in payload.items()}

    def set_alias(self, alias: str, model_id: str) -> None:
        """Point ``alias`` at ``model_id`` (atomic rewrite)."""
        if not self.model_dir(model_id).is_dir():
            raise ModelNotFoundError(model_id)
        table = self.aliases()
        table[str(alias)] = model_id
        from ..runtime.telemetry import write_text_atomic

        write_text_atomic(
            self.aliases_path, json.dumps(table, indent=2, sort_keys=True) + "\n"
        )

    def resolve(self, ref: str) -> str:
        """Alias or id -> model id; raises :class:`ModelNotFoundError`."""
        table = self.aliases()
        model_id = table.get(ref, ref)
        if not self.model_dir(model_id).is_dir():
            raise ModelNotFoundError(ref)
        return model_id

    def list_models(self) -> "list[str]":
        if not self.models_dir.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.models_dir.iterdir()
            if entry.is_dir() and not entry.name.startswith(".")
        )

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def gc(self, dry_run: bool = False) -> dict:
        """Remove artifact directories unreachable from any alias.

        A model is *live* iff some alias (``latest`` or a pinned
        deployment name) resolves to it — live artifacts are never
        touched, so an alias flip back to an older model keeps working.
        Stale ``.staging-*`` directories (a publisher that died mid-stage)
        are also collected.  Returns a report::

            {"removed": [...], "kept": [...], "staging_removed": int,
             "reclaimed_bytes": int, "dry_run": bool}
        """
        with span("serve.registry_gc"):
            live = set(self.aliases().values())
            removed: "list[str]" = []
            kept: "list[str]" = []
            staging_removed = 0
            reclaimed = 0
            if self.models_dir.is_dir():
                for entry in sorted(self.models_dir.iterdir()):
                    if not entry.is_dir():
                        continue
                    if entry.name.startswith("."):
                        reclaimed += _tree_bytes(entry)
                        if not dry_run:
                            shutil.rmtree(entry, ignore_errors=True)
                        staging_removed += 1
                        continue
                    if entry.name in live:
                        kept.append(entry.name)
                        continue
                    reclaimed += _tree_bytes(entry)
                    if not dry_run:
                        shutil.rmtree(entry)
                    removed.append(entry.name)
            if removed or staging_removed:
                metrics().counter("serve.models_collected").inc(
                    len(removed) + staging_removed
                )
                _log.info(
                    "%s %d unreferenced models + %d stale staging dirs "
                    "(%.1f KB)",
                    "would remove" if dry_run else "removed",
                    len(removed), staging_removed, reclaimed / 1024,
                )
            return {
                "removed": removed,
                "kept": kept,
                "staging_removed": staging_removed,
                "reclaimed_bytes": reclaimed,
                "dry_run": dry_run,
            }

    # ------------------------------------------------------------------
    # Load + verify
    # ------------------------------------------------------------------
    def manifest(self, ref: str) -> dict:
        """The parsed manifest of ``ref`` (schema-checked, no weights IO)."""
        model_id = self.resolve(ref)
        path = self.model_dir(model_id) / _MANIFEST_FILE
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(model_id, f"unreadable manifest: {exc}")
        version = manifest.get("schema_version")
        if version != REGISTRY_SCHEMA_VERSION:
            raise RegistryError(
                model_id,
                f"manifest schema {version!r} != {REGISTRY_SCHEMA_VERSION}",
            )
        return manifest

    def verify(self, ref: str) -> dict:
        """Checksum every artifact file against the manifest.

        Also recomputes the content-derived id from the manifest core, so
        a hand-edited manifest (e.g. a swapped checksum) is caught even
        when its file checksums are self-consistent.
        """
        manifest = self.manifest(ref)
        model_id = manifest["model_id"]
        directory = self.model_dir(model_id)
        core = {k: v for k, v in manifest.items() if k != "model_id"}
        expected_id = "m-" + hashlib.sha256(
            _canonical_json(core).encode()
        ).hexdigest()[:12]
        if expected_id != model_id:
            raise RegistryError(model_id, "manifest does not match its model id")
        for name, digest in manifest["files"].items():
            path = directory / name
            if not path.is_file():
                raise RegistryError(model_id, f"missing artifact file {name}")
            actual = sha256_file(path)
            if actual != digest:
                raise RegistryError(
                    model_id,
                    f"checksum mismatch for {name}: "
                    f"manifest {digest[:12]}.., file {actual[:12]}..",
                )
        return manifest

    def load(self, ref: str) -> LoadedModel:
        """Verify and reconstruct a published model (and its detector)."""
        with span("serve.model_load", ref=ref):
            manifest = self.verify(ref)
            model_id = manifest["model_id"]
            directory = self.model_dir(model_id)
            entry = dict(manifest["model"])
            entry["frame_shape"] = tuple(entry["frame_shape"])
            entry["conv_channels"] = tuple(entry["conv_channels"])
            config = ModelConfig(**entry)
            model = CNNLSTMClassifier(config, np.random.default_rng(0))
            try:
                model.load_state_dict(load_arrays(directory / _WEIGHTS_FILE))
            except (KeyError, ValueError, OSError) as exc:
                raise RegistryError(model_id, f"weights unusable: {exc}")
            model.eval()
            num_frames = int(manifest["preprocessing"]["num_frames"])
            detector = None
            if manifest.get("detector"):
                detector = _rebuild_detector(
                    manifest["detector"], config.frame_shape, num_frames
                )
                try:
                    detector.model.load_state_dict(
                        load_arrays(directory / _DETECTOR_FILE)
                    )
                except (KeyError, ValueError, OSError) as exc:
                    raise RegistryError(
                        model_id, f"detector weights unusable: {exc}"
                    )
                detector.model.eval()
            metrics().counter("serve.models_loaded").inc()
            return LoadedModel(
                model_id=model_id,
                model=model,
                labels=tuple(manifest["labels"]),
                num_frames=num_frames,
                detector=detector,
                manifest=manifest,
            )
