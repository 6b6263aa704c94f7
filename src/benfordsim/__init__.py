"""Seedable fragmentation/consolidation simulations and Benford's Law analysis.

The package simulates repeated random split-and-merge cycles over a
population of positive quantities and measures how closely the first
significant digits of the result follow Benford's Law, alongside general
digit-conformance tooling (tallies, SSD, quantile ratios, and log10
histograms as (bin index, count) pairs) for any positive dataset.
"""

from .digits import first_significant_digit
from .errors import (
    BenfordSimError,
    ConfigError,
    DomainError,
    EmptyDataError,
    UnderflowError,
)
from .experiments import (
    CheckpointRecord,
    ExperimentConfig,
    earthquake_fixture,
    parse_config,
    render_table,
    run_experiment,
    scheme_preset,
)
from .stats import (
    BENFORD_PCT,
    BenfordReport,
    analyze,
    log_histogram,
    ssd,
)

__version__ = "0.1.0"

__all__ = [
    "BENFORD_PCT",
    "BenfordReport",
    "BenfordSimError",
    "CheckpointRecord",
    "ConfigError",
    "DomainError",
    "EmptyDataError",
    "ExperimentConfig",
    "UnderflowError",
    "analyze",
    "earthquake_fixture",
    "first_significant_digit",
    "log_histogram",
    "parse_config",
    "render_table",
    "run_experiment",
    "scheme_preset",
    "ssd",
]
