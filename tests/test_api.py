import benfordsim

PUBLIC_NAMES = [
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


def test_public_surface_is_pinned():
    # Growing the package surface must be a deliberate edit of this list.
    assert len(PUBLIC_NAMES) == 26
    assert benfordsim.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(benfordsim, name) is not None
