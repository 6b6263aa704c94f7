import benfordsim

PUBLIC_NAMES = [
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


def test_public_surface_is_pinned():
    # Growing the package surface must be a deliberate edit of this list.
    assert len(PUBLIC_NAMES) == 18
    assert benfordsim.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(benfordsim, name) is not None
