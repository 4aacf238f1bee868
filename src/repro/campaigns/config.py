"""Schema-versioned campaign configs and deterministic grid expansion.

A campaign declares a parameter grid over the paper's experiment runners:

.. code-block:: toml

    campaign = "sec6-attack-grid"
    schema_version = 1
    preset = "default"

    [axes]
    experiment = ["fig8", "fig9"]
    seed = [0, 1]

    [stop]
    max_failures = 2

``axes`` take the cartesian product in declared order; ``cells`` appends
explicit cells after the grid; ``seeds`` replicates every grid cell per
seed.  Axis/cell keys beyond ``experiment``/``preset``/``seed`` must be
:class:`~repro.eval.presets.ExperimentPreset` fields and become per-cell
preset overrides (``num_frames = [16, 32]`` sweeps the frame count).

Validation is strict: unknown keys, non-list axes, and empty grids are
rejected with ``field.path: message`` errors
(:class:`~repro.runtime.errors.CampaignConfigError`), collected so one
pass reports every typo.  The config digest — SHA-256 over the canonical
JSON form — fingerprints the journal (mismatched resumes refuse) and is
stamped into the campaign record's meta block.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import tomllib
from dataclasses import dataclass, field, fields as dataclass_fields
from itertools import product
from pathlib import Path

import numpy as np

from ..eval.presets import ExperimentPreset, preset_by_name
from ..runtime.errors import CampaignConfigError

#: Bump when the config layout changes; other versions are refused.
CAMPAIGN_SCHEMA_VERSION = 1

#: Cell keys that are not preset overrides.
_CELL_KEYS = ("experiment", "preset", "seed")

#: Preset fields a campaign may override per cell.  ``name`` is identity,
#: ``generation`` is a nested config object with no TOML representation.
PRESET_OVERRIDE_FIELDS = tuple(
    f.name for f in dataclass_fields(ExperimentPreset)
    if f.name not in ("name", "generation")
)

_TOP_LEVEL_KEYS = (
    "campaign", "schema_version", "description", "seed", "preset",
    "experiment", "seeds", "axes", "cells", "stop", "use_disk_cache",
)

_STOP_KEYS = ("max_cells", "max_failures")

_PRESET_NAMES = ("fast", "default", "paper")


def known_experiments() -> "tuple[str, ...]":
    """Experiment ids a campaign cell may name (the paper's runners)."""
    from .runner import EXPERIMENTS

    return tuple(EXPERIMENTS)


@dataclass(frozen=True)
class StopCriteria:
    """When to stop a campaign short of the full grid.

    ``max_cells`` bounds the expansion (a validation-time guard against a
    typo'd axis exploding the grid); ``max_failures`` stops dispatching
    new cells once that many have failed — already-finished cells keep
    their journal entries, undispatched ones are recorded as skipped.
    """

    max_cells: "int | None" = None
    max_failures: "int | None" = None


@dataclass(frozen=True)
class CampaignCell:
    """One fully-resolved unit of campaign work."""

    index: int
    experiment: str
    preset: str
    seed: int
    overrides: "tuple[tuple[str, object], ...]" = ()

    @property
    def key(self) -> str:
        """Stable journal key: position, experiment, and seed."""
        return f"cell-{self.index:04d}-{self.experiment}-s{self.seed}"

    def spec(self) -> dict:
        """Canonical JSON-able description (recorded per cell)."""
        return {
            "index": self.index,
            "experiment": self.experiment,
            "preset": self.preset,
            "seed": self.seed,
            "overrides": dict(self.overrides),
        }

    def resolved_preset(self) -> ExperimentPreset:
        preset = preset_by_name(self.preset)
        if self.overrides:
            preset = preset.scaled(**_scaled_overrides(dict(self.overrides)))
        return preset


def _scaled_overrides(overrides: dict) -> dict:
    """Lists from TOML become the tuples preset fields expect."""
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in overrides.items()
    }


@dataclass(frozen=True)
class CampaignConfig:
    """A validated campaign: identity, defaults, grid, stop criteria."""

    name: str
    schema_version: int = CAMPAIGN_SCHEMA_VERSION
    description: str = ""
    seed: int = 0
    preset: str = "fast"
    experiment: "str | None" = None
    seeds: "tuple[int, ...] | None" = None
    axes: "tuple[tuple[str, tuple], ...]" = ()
    cells: "tuple[dict, ...]" = ()
    stop: StopCriteria = field(default_factory=StopCriteria)
    use_disk_cache: bool = True

    def canonical_dict(self) -> dict:
        """The digest-stable JSON form (independent of TOML formatting)."""
        return {
            "campaign": self.name,
            "schema_version": self.schema_version,
            "seed": self.seed,
            "preset": self.preset,
            "experiment": self.experiment,
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "axes": [[name, list(values)] for name, values in self.axes],
            "cells": [dict(cell) for cell in self.cells],
            "stop": {
                "max_cells": self.stop.max_cells,
                "max_failures": self.stop.max_failures,
            },
            "use_disk_cache": self.use_disk_cache,
        }


def config_digest(config: CampaignConfig) -> str:
    """SHA-256 hex digest of the canonical config (journal fingerprint)."""
    canonical = json.dumps(
        config.canonical_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def journal_fingerprint(config: CampaignConfig) -> dict:
    """The header :class:`~repro.runtime.journal.SweepJournal` verifies."""
    return {
        "campaign": config.name,
        "schema_version": config.schema_version,
        "config_digest": config_digest(config),
    }


def derive_cell_seed(campaign_seed: int, cell_index: int) -> int:
    """Deterministic per-cell seed: ``SeedSequence((campaign_seed, i))``.

    Same discipline the worker pool uses for per-task streams — cells
    that do not pin an explicit seed get one that is stable under
    resume, reordering, and parallelism.
    """
    sequence = np.random.SeedSequence((campaign_seed, cell_index))
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


# ----------------------------------------------------------------------
# Parsing + validation
# ----------------------------------------------------------------------
def load_campaign(path: "str | Path") -> CampaignConfig:
    """Read and validate a TOML campaign config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CampaignConfigError(str(path), [f"unreadable: {exc}"])
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise CampaignConfigError(str(path), [f"TOML parse error: {exc}"])
    return parse_campaign(data, source=str(path))


def parse_campaign(data: object, source: str = "<config>") -> CampaignConfig:
    """Validate a parsed mapping into a :class:`CampaignConfig`.

    Collects every violation as ``field.path: message`` and raises one
    :class:`CampaignConfigError` listing all of them; a valid config also
    has its grid expanded once to catch empty grids and bad cells early.
    """
    errors: "list[str]" = []
    if not isinstance(data, dict):
        raise CampaignConfigError(
            source, [f"top level: expected a mapping, got {type(data).__name__}"]
        )

    for key in data:
        if key not in _TOP_LEVEL_KEYS:
            errors.append(
                f"{key}: unknown key (allowed: {', '.join(_TOP_LEVEL_KEYS)})"
            )
    _check_no_datetimes(data, "", errors)

    name = data.get("campaign")
    if not isinstance(name, str) or not name.strip():
        errors.append("campaign: required, must be a non-empty string")
        name = str(name or "")

    schema_version = data.get("schema_version", CAMPAIGN_SCHEMA_VERSION)
    if schema_version != CAMPAIGN_SCHEMA_VERSION:
        errors.append(
            f"schema_version: {schema_version!r} is not supported "
            f"(expected {CAMPAIGN_SCHEMA_VERSION})"
        )

    description = data.get("description", "")
    if not isinstance(description, str):
        errors.append("description: must be a string")
        description = ""

    seed = _check_int(data, "seed", 0, errors)
    preset = _check_choice(data, "preset", "fast", _PRESET_NAMES, errors)
    experiment = data.get("experiment")
    experiments = known_experiments()
    if experiment is not None and experiment not in experiments:
        errors.append(
            f"experiment: unknown experiment {experiment!r} "
            f"(known: {', '.join(experiments)})"
        )

    seeds = _check_seed_list(data, errors)
    axes = _check_axes(data, experiments, errors)
    cells = _check_cells(data, experiments, errors)
    stop = _check_stop(data, errors)

    use_disk_cache = data.get("use_disk_cache", True)
    if not isinstance(use_disk_cache, bool):
        errors.append("use_disk_cache: must be a boolean")
        use_disk_cache = True

    axis_names = [axis_name for axis_name, _ in axes]
    if seeds is not None and "seed" in axis_names:
        errors.append("seeds: mutually exclusive with axes.seed")
    if experiment is None and "experiment" not in axis_names and not any(
        "experiment" in cell for cell in cells
    ):
        if not errors:
            errors.append(
                "experiment: no experiment anywhere — set a top-level "
                "experiment, an axes.experiment list, or per-cell experiments"
            )

    config = CampaignConfig(
        name=name,
        schema_version=CAMPAIGN_SCHEMA_VERSION,
        description=description,
        seed=seed,
        preset=preset,
        experiment=experiment,
        seeds=seeds,
        axes=axes,
        cells=cells,
        stop=stop,
        use_disk_cache=use_disk_cache,
    )

    if not errors:
        try:
            expanded = expand_cells(config)
        except CampaignConfigError as exc:
            errors.extend(exc.errors)
        else:
            if not expanded:
                errors.append("grid: campaign expands to zero cells")
    if errors:
        raise CampaignConfigError(source, errors)
    return config


def _check_no_datetimes(value: object, path: str, errors: "list[str]") -> None:
    """Reject TOML dates and times: the JSON config digest cannot hold them."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_no_datetimes(item, f"{path}.{key}" if path else key, errors)
    elif isinstance(value, list):
        for position, item in enumerate(value):
            _check_no_datetimes(item, f"{path}[{position}]", errors)
    elif isinstance(value, (datetime.date, datetime.time)):
        errors.append(f"{path}: dates and times are not supported")


def _check_int(data: dict, key: str, default: int, errors: "list[str]") -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{key}: must be an integer")
        return default
    return value


def _check_choice(
    data: dict, key: str, default: str, choices: "tuple[str, ...]",
    errors: "list[str]",
) -> str:
    value = data.get(key, default)
    if value not in choices:
        errors.append(f"{key}: {value!r} is not one of {', '.join(choices)}")
        return default
    return value


def _check_seed_list(
    data: dict, errors: "list[str]"
) -> "tuple[int, ...] | None":
    raw = data.get("seeds")
    if raw is None:
        return None
    if not isinstance(raw, list):
        errors.append("seeds: must be a list of integers")
        return None
    if not raw:
        errors.append("seeds: must not be empty")
        return None
    out = []
    for position, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"seeds[{position}]: must be an integer")
            return None
        out.append(value)
    return tuple(out)


def _axis_value_ok(name: str, value: object) -> bool:
    if name == "experiment" or name == "preset":
        return isinstance(value, str)
    if name == "seed":
        return isinstance(value, int) and not isinstance(value, bool)
    return True  # preset overrides are type-checked by expansion


def _check_axes(
    data: dict, experiments: "tuple[str, ...]", errors: "list[str]"
) -> "tuple[tuple[str, tuple], ...]":
    raw = data.get("axes")
    if raw is None:
        return ()
    if not isinstance(raw, dict):
        errors.append("axes: must be a mapping of axis name to value list")
        return ()
    axes = []
    allowed = _CELL_KEYS + PRESET_OVERRIDE_FIELDS
    for axis_name, values in raw.items():
        path = f"axes.{axis_name}"
        if axis_name not in allowed:
            errors.append(
                f"{path}: unknown axis (allowed: experiment, preset, seed, "
                f"or a preset field: {', '.join(PRESET_OVERRIDE_FIELDS)})"
            )
            continue
        if not isinstance(values, list):
            errors.append(
                f"{path}: must be a list, got {type(values).__name__}"
            )
            continue
        if not values:
            errors.append(f"{path}: must not be empty")
            continue
        for position, value in enumerate(values):
            if not _axis_value_ok(axis_name, value):
                errors.append(
                    f"{path}[{position}]: bad value {value!r} for this axis"
                )
            if axis_name == "experiment" and value not in experiments:
                errors.append(
                    f"{path}[{position}]: unknown experiment {value!r}"
                )
            if axis_name == "preset" and value not in _PRESET_NAMES:
                errors.append(
                    f"{path}[{position}]: unknown preset {value!r}"
                )
        axes.append((axis_name, tuple(values)))
    return tuple(axes)


def _check_cells(
    data: dict, experiments: "tuple[str, ...]", errors: "list[str]"
) -> "tuple[dict, ...]":
    raw = data.get("cells")
    if raw is None:
        return ()
    if not isinstance(raw, list):
        errors.append("cells: must be a list of mappings")
        return ()
    allowed = _CELL_KEYS + PRESET_OVERRIDE_FIELDS
    cells = []
    for position, cell in enumerate(raw):
        path = f"cells[{position}]"
        if not isinstance(cell, dict):
            errors.append(f"{path}: must be a mapping")
            continue
        for key, value in cell.items():
            if key not in allowed:
                errors.append(f"{path}.{key}: unknown key")
            elif key == "experiment" and value not in experiments:
                errors.append(f"{path}.experiment: unknown experiment {value!r}")
            elif key == "preset" and value not in _PRESET_NAMES:
                errors.append(f"{path}.preset: unknown preset {value!r}")
            elif key == "seed" and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                errors.append(f"{path}.seed: must be an integer")
        cells.append(dict(cell))
    return tuple(cells)


def _check_stop(data: dict, errors: "list[str]") -> StopCriteria:
    raw = data.get("stop")
    if raw is None:
        return StopCriteria()
    if not isinstance(raw, dict):
        errors.append("stop: must be a mapping")
        return StopCriteria()
    values = {}
    for key, value in raw.items():
        if key not in _STOP_KEYS:
            errors.append(
                f"stop.{key}: unknown key (allowed: {', '.join(_STOP_KEYS)})"
            )
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            errors.append(f"stop.{key}: must be a positive integer")
            continue
        values[key] = value
    return StopCriteria(**values)


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def expand_cells(config: CampaignConfig) -> "list[CampaignCell]":
    """Deterministic grid expansion: axes product, then explicit cells.

    The cartesian product runs in declared axis order (later axes vary
    fastest); the ``seeds`` list replicates each combination per seed.
    Cells that pin no seed anywhere derive one from
    ``SeedSequence((campaign_seed, cell_index))``.
    """
    errors: "list[str]" = []
    combos: "list[dict]" = []
    if config.axes:
        axis_names = [name for name, _ in config.axes]
        for values in product(*(values for _, values in config.axes)):
            combos.append(dict(zip(axis_names, values)))
    elif config.experiment is not None:
        combos.append({})

    specs: "list[tuple[dict, str]]" = []
    for combo_index, combo in enumerate(combos):
        seeds = config.seeds if config.seeds is not None else (None,)
        if "seed" in combo:
            seeds = (combo["seed"],)
        for seed in seeds:
            spec = dict(combo)
            if seed is not None:
                spec["seed"] = seed
            specs.append((spec, f"grid[{combo_index}]"))
    for cell_index, cell in enumerate(config.cells):
        specs.append((dict(cell), f"cells[{cell_index}]"))

    cells: "list[CampaignCell]" = []
    for index, (spec, path) in enumerate(specs):
        experiment = spec.get("experiment", config.experiment)
        if experiment is None:
            errors.append(f"{path}: no experiment for this cell")
            continue
        preset_name = spec.get("preset", config.preset)
        seed = spec.get("seed")
        if seed is None:
            seed = derive_cell_seed(config.seed, index)
        overrides = {
            key: value for key, value in spec.items() if key not in _CELL_KEYS
        }
        cell = CampaignCell(
            index=index,
            experiment=experiment,
            preset=preset_name,
            seed=seed,
            overrides=tuple(sorted(overrides.items())),
        )
        try:
            cell.resolved_preset()
        except (TypeError, ValueError) as exc:
            errors.append(f"{path}: preset overrides rejected: {exc}")
            continue
        cells.append(cell)

    if config.stop.max_cells is not None and len(cells) > config.stop.max_cells:
        errors.append(
            f"stop.max_cells: grid expands to {len(cells)} cells, "
            f"more than the configured bound {config.stop.max_cells}"
        )
    if errors:
        raise CampaignConfigError(config.name or "<campaign>", errors)
    return cells
