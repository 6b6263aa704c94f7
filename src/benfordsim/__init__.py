"""Seedable fragmentation/consolidation simulations and Benford's Law analysis.

The package simulates repeated random split-and-merge cycles over a
population of positive quantities and measures how closely the first
significant digits of the result follow Benford's Law, alongside general
digit-conformance tooling (tallies, SSD, quantile ratios, log histograms)
for any positive dataset.
"""

from .digits import benford_distribution, benford_expected, first_significant_digit
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
    load_config,
    parse_config,
    render_table,
    run_experiment,
    scheme_preset,
)
from .stats import (
    BENFORD_PCT,
    BenfordReport,
    DigitTally,
    LogHistogram,
    analyze,
    log_histogram,
    proportions_pct,
    quantile,
    ssd,
    tally_digits,
)

__version__ = "0.1.0"

__all__ = [
    "BENFORD_PCT",
    "BenfordReport",
    "BenfordSimError",
    "CheckpointRecord",
    "ConfigError",
    "DigitTally",
    "DomainError",
    "EmptyDataError",
    "ExperimentConfig",
    "LogHistogram",
    "UnderflowError",
    "analyze",
    "benford_distribution",
    "benford_expected",
    "earthquake_fixture",
    "first_significant_digit",
    "load_config",
    "log_histogram",
    "parse_config",
    "proportions_pct",
    "quantile",
    "render_table",
    "run_experiment",
    "scheme_preset",
    "ssd",
    "tally_digits",
]
