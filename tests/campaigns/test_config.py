"""Tests for campaign config parsing, validation, and grid expansion."""

import datetime

import pytest

from repro.campaigns import (
    CampaignConfigError,
    config_digest,
    expand_cells,
    load_campaign,
    parse_campaign,
)
from repro.campaigns.config import derive_cell_seed, journal_fingerprint
from repro.eval import FAST


def _minimal(**extra):
    data = {"campaign": "demo", "experiment": "sec6d"}
    data.update(extra)
    return data


def test_minimal_config_parses():
    config = parse_campaign(_minimal())
    assert config.name == "demo"
    assert config.preset == "fast"
    cells = expand_cells(config)
    assert len(cells) == 1
    assert cells[0].experiment == "sec6d"


def _errors(data) -> "list[str]":
    with pytest.raises(CampaignConfigError) as excinfo:
        parse_campaign(data)
    return excinfo.value.errors


# -- satellite: strict validation with field-path errors ----------------

def test_unknown_top_level_key_rejected():
    errors = _errors(_minimal(wat=1))
    assert any(error.startswith("wat: unknown key") for error in errors)


def test_non_list_axis_rejected():
    errors = _errors(_minimal(axes={"seed": 3}))
    assert any(
        error.startswith("axes.seed: must be a list") for error in errors
    )


def test_unknown_axis_rejected():
    errors = _errors(_minimal(axes={"bogus": [1, 2]}))
    assert any(error.startswith("axes.bogus: unknown axis") for error in errors)


def test_toml_dates_and_times_rejected():
    """TOML parses dates natively; the JSON config digest cannot hold them."""
    errors = _errors(_minimal(
        axes={"epochs": [datetime.date(1979, 5, 27)]},
        cells=[{"seed": 1, "num_frames": datetime.time(7, 32)}],
    ))
    assert "axes.epochs[0]: dates and times are not supported" in errors
    assert "cells[0].num_frames: dates and times are not supported" in errors


def test_empty_grid_rejected():
    errors = _errors({"campaign": "demo"})
    assert any("no experiment anywhere" in error for error in errors)


def test_empty_axis_list_rejected():
    errors = _errors(_minimal(axes={"seed": []}))
    assert any(
        error.startswith("axes.seed: must not be empty") for error in errors
    )


def test_unknown_stop_key_and_bad_value_rejected():
    errors = _errors(_minimal(stop={"max_wat": 1, "max_cells": 0}))
    assert any(error.startswith("stop.max_wat: unknown key") for error in errors)
    assert any(
        error.startswith("stop.max_cells: must be a positive integer")
        for error in errors
    )


def test_unknown_experiment_and_preset_in_cells():
    errors = _errors({
        "campaign": "demo",
        "cells": [{"experiment": "fig99"}, {"experiment": "sec6d",
                                            "preset": "warp"}],
    })
    assert any("cells[0].experiment: unknown experiment" in e for e in errors)
    assert any("cells[1].preset: unknown preset" in e for e in errors)


def test_all_errors_collected_in_one_pass():
    errors = _errors({
        "campaign": "",
        "wat": 1,
        "axes": {"seed": 3},
        "stop": {"max_wat": 1},
    })
    assert len(errors) >= 4


def test_seeds_and_seed_axis_mutually_exclusive():
    errors = _errors(_minimal(seeds=[0, 1], axes={"seed": [2, 3]}))
    assert any("mutually exclusive" in error for error in errors)


def test_schema_version_refused():
    errors = _errors(_minimal(schema_version=99))
    assert any(error.startswith("schema_version") for error in errors)


def test_bad_preset_override_rejected_at_expansion():
    errors = _errors(_minimal(axes={"num_frames": ["many"]}))
    assert any("preset overrides rejected" in error for error in errors)


def test_max_cells_bounds_expansion():
    errors = _errors(_minimal(
        axes={"experiment": ["sec6d"], "seed": [0, 1, 2]},
        stop={"max_cells": 2},
    ))
    assert any("stop.max_cells: grid expands to 3 cells" in e for e in errors)


# -- expansion ----------------------------------------------------------

def test_axes_product_in_declared_order():
    config = parse_campaign(_minimal(
        experiment=None,
        axes={"experiment": ["fig8", "fig9"], "seed": [0, 1]},
    ))
    cells = expand_cells(config)
    assert [(c.experiment, c.seed) for c in cells] == [
        ("fig8", 0), ("fig8", 1), ("fig9", 0), ("fig9", 1),
    ]
    assert cells[0].key == "cell-0000-fig8-s0"
    assert cells[3].key == "cell-0003-fig9-s1"


def test_seeds_replicate_grid_and_cells_append():
    config = parse_campaign({
        "campaign": "demo",
        "experiment": "sec6d",
        "seeds": [5, 6],
        "cells": [{"experiment": "fig7", "seed": 9}],
    })
    cells = expand_cells(config)
    assert [(c.experiment, c.seed) for c in cells] == [
        ("sec6d", 5), ("sec6d", 6), ("fig7", 9),
    ]


def test_unpinned_seed_derived_from_seed_sequence():
    config = parse_campaign(_minimal(seed=42))
    cells = expand_cells(config)
    assert cells[0].seed == derive_cell_seed(42, 0)
    # Stable across invocations (SeedSequence is deterministic).
    assert derive_cell_seed(42, 0) == derive_cell_seed(42, 0)
    assert derive_cell_seed(42, 0) != derive_cell_seed(42, 1)


def test_override_axes_become_preset_overrides():
    config = parse_campaign(_minimal(axes={"num_frames": [16, 32]}))
    cells = expand_cells(config)
    assert len(cells) == 2
    assert dict(cells[0].overrides) == {"num_frames": 16}
    assert cells[0].resolved_preset().num_frames == 16
    assert cells[1].resolved_preset().num_frames == 32
    # Other fields ride the base preset unchanged.
    assert cells[0].resolved_preset().epochs == FAST.epochs


# -- digest -------------------------------------------------------------

def test_digest_independent_of_toml_formatting(tmp_path):
    a = tmp_path / "a.toml"
    b = tmp_path / "b.toml"
    a.write_text(
        'campaign = "demo"\nexperiment = "sec6d"\nseeds = [0, 1]\n'
        "[stop]\nmax_failures = 2\n"
    )
    b.write_text(
        "# same campaign, different formatting\n"
        "campaign = 'demo'\n"
        'experiment = "sec6d"\n'
        "stop = { max_failures = 2 }\n"
        "seeds = [\n  0,  # first\n  1,\n]\n"
    )
    assert config_digest(load_campaign(a)) == config_digest(load_campaign(b))


def test_digest_changes_with_content():
    base = parse_campaign(_minimal())
    changed = parse_campaign(_minimal(seed=1))
    assert config_digest(base) != config_digest(changed)


def test_journal_fingerprint_names_digest():
    config = parse_campaign(_minimal())
    fingerprint = journal_fingerprint(config)
    assert fingerprint["campaign"] == "demo"
    assert fingerprint["config_digest"] == config_digest(config)


def test_load_campaign_missing_file():
    with pytest.raises(CampaignConfigError) as excinfo:
        load_campaign("/nonexistent/campaign.toml")
    assert any("unreadable" in error for error in excinfo.value.errors)
