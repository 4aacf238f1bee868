"""Declarative experiment campaigns: TOML grids over the paper's runners.

A campaign config declares *what* to sweep — experiments, presets, seeds,
preset overrides — and the runner turns it into deterministic per-cell
tasks executed over :mod:`repro.runtime.pool`, checkpointed in the fsynced
sweep journal (crash-safe ``--resume``), and aggregated into one atomic
schema-versioned campaign record the dashboard and ``repro stats`` can
read.  See the README's Campaigns section and ``examples/campaigns/``.
"""

from .config import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignCell,
    CampaignConfig,
    CampaignConfigError,
    StopCriteria,
    config_digest,
    expand_cells,
    load_campaign,
    parse_campaign,
)
from .records import (
    CAMPAIGN_RECORD_SCHEMA_VERSION,
    CampaignRecord,
    format_campaign_record,
    write_campaign_record,
)
from .runner import (
    EXPERIMENTS,
    CampaignOutcome,
    CampaignRunner,
    CellResult,
    Experiment,
    cell_payload,
    run_experiment,
)

__all__ = [
    "CAMPAIGN_RECORD_SCHEMA_VERSION",
    "CAMPAIGN_SCHEMA_VERSION",
    "CampaignCell",
    "CampaignConfig",
    "CampaignConfigError",
    "CampaignOutcome",
    "CampaignRecord",
    "CampaignRunner",
    "CellResult",
    "EXPERIMENTS",
    "Experiment",
    "StopCriteria",
    "cell_payload",
    "config_digest",
    "expand_cells",
    "format_campaign_record",
    "load_campaign",
    "parse_campaign",
    "run_experiment",
    "write_campaign_record",
]
