"""Named experiment presets, staged checkpoint runs, and table rendering.

An experiment is a fully pinned run: ball count, initial value, cycle count,
split ratio, seed, and the cycle numbers at which the system is
snapshotted and analyzed into one table row each. Presets cover the three
reference schemes (A: 2000 balls, 8000 uniform-split cycles; B: 1500 balls,
10000 cycles at a fixed 50/50 split; C: 1000 balls, 3000 cycles at a fixed
85/15 split) plus two staged variants used to watch convergence unfold.
"""

from __future__ import annotations

import random
import sys
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import stats
from .errors import ConfigError, MissingSeedError
from .process import run

__all__ = [
    "PRESET_NAMES",
    "CSV_HEADER",
    "ExperimentConfig",
    "CheckpointRecord",
    "scheme_preset",
    "run_experiment",
    "earthquake_fixture",
    "render_table",
    "parse_config",
]

CSV_HEADER = "cycle,d1,d2,d3,d4,d5,d6,d7,d8,d9,ssd,q10,q90,qtm"

_FIXTURE_FILE = "earthquake_intervals.csv"


class _ConfigFields(NamedTuple):
    ball_count: int
    initial_value: float
    cycles: int
    ratio: float | None
    seed: int
    checkpoints: tuple[int, ...]


class ExperimentConfig(_ConfigFields):
    """One fully pinned run; the seed is mandatory so every run is replayable.

    ``ratio`` is None for a fresh Uniform(0, 1) split ratio each cycle, or a
    fixed float in (0, 1). ``seed`` is an integer in [0, 2**64). Integer
    fields reject ``bool``. This is the one place a run is validated;
    ``process.run`` trusts it: every way to build a config, ``_make`` and
    ``_replace`` included, goes through these checks.
    """

    __slots__ = ()

    def __new__(cls, ball_count: int, initial_value: float, cycles: int, ratio: float | None,
                seed: int, checkpoints: tuple[int, ...]) -> ExperimentConfig:
        self = super().__new__(cls, ball_count, initial_value, cycles, ratio, seed, checkpoints)
        if type(self.ball_count) is not int or self.ball_count < 1:
            raise ConfigError(f"ball_count must be a positive integer, got {self.ball_count!r}")
        v = self.initial_value
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 < v <= sys.float_info.max:
            raise ConfigError(f"initial_value must be strictly positive, got {v!r}")
        if type(self.cycles) is not int or self.cycles < 0:
            raise ConfigError(f"cycles must be a non-negative integer, got {self.cycles!r}")
        if self.ratio is not None and not (isinstance(self.ratio, float) and 0.0 < self.ratio < 1.0):
            raise ConfigError(f"fixed split ratio must be in (0, 1), got {self.ratio!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if type(self.checkpoints) is not tuple or any(type(c) is not int for c in self.checkpoints):
            raise ConfigError(f"checkpoints must be a tuple of integers, got {self.checkpoints!r}")
        for a, b in zip(self.checkpoints, self.checkpoints[1:]):
            if a >= b:
                raise ConfigError(f"checkpoints must be strictly increasing, got {self.checkpoints}")
        if self.checkpoints and not (0 <= self.checkpoints[0] and self.checkpoints[-1] <= self.cycles):
            raise ConfigError(
                f"checkpoints must lie in [0, {self.cycles}], got {self.checkpoints}"
            )
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> ExperimentConfig:
        return cls(*iterable)


class CheckpointRecord(NamedTuple):
    """One table row: the analysis of the system snapshot at a cycle number."""

    cycle: int
    digit_pct: tuple[float, ...]
    ssd: float
    q10: float
    q90: float
    qtm: float


def _record(cycle: int, values: Sequence[float]) -> CheckpointRecord:
    r = stats.analyze(values)
    return CheckpointRecord(cycle, r.proportions_pct, r.ssd, r.q10, r.q90, r.qtm)


_GRADUAL_A_CHECKPOINTS = (
    0, 500, 1000, 1500, 2000, 2500, 3000, 4000,
    5000, 6000, 7000, 8000, 10000, 13000,
)
_SMALL_100_CHECKPOINTS = (0, 50, 100, 150, 200, 250, 300, 350, 800, 2000, 5000, 9000)

_PRESETS: Mapping[str, dict] = {
    "A": dict(ball_count=2000, initial_value=1.0, cycles=8000, ratio=None, checkpoints=(8000,)),
    "B": dict(ball_count=1500, initial_value=1.0, cycles=10000, ratio=0.5, checkpoints=(10000,)),
    "C": dict(ball_count=1000, initial_value=1.0, cycles=3000, ratio=0.85, checkpoints=(3000,)),
    "Gradual_A": dict(
        ball_count=2000, initial_value=1.0, cycles=13000, ratio=None, checkpoints=_GRADUAL_A_CHECKPOINTS
    ),
    "Small_100": dict(
        ball_count=100, initial_value=1.0, cycles=9000, ratio=None, checkpoints=_SMALL_100_CHECKPOINTS
    ),
}

PRESET_NAMES: tuple[str, ...] = tuple(_PRESETS)


def scheme_preset(name: str, seed: int) -> ExperimentConfig:
    """Build the named preset; the caller supplies the seed."""
    try:
        params = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}"
        ) from None
    return ExperimentConfig(seed=seed, **params)


def run_experiment(config: ExperimentConfig) -> tuple[list[float], list[CheckpointRecord]]:
    """Run one experiment, returning the final values and one record per checkpoint."""
    values = [config.initial_value] * config.ball_count
    rng = random.Random(config.seed)
    records: list[CheckpointRecord] = []
    done = 0
    # Tracers wrap ``experiments.run`` and read ``cycles`` as its 4th positional
    # argument; each record analyzes its own copy, which they count as one dataset.
    for c in config.checkpoints:
        run(values, config.ratio, rng, c - done)
        done = c
        records.append(_record(c, tuple(values)))
    run(values, config.ratio, rng, config.cycles - done)
    return values, records


def earthquake_fixture() -> tuple[float, ...]:
    """The bundled sample of 40 time intervals (seconds) between earthquakes.

    A small random sample from the global earthquake record for 2012, bundled
    as a demonstration dataset: even at 40 values its first digits lean
    heavily toward 1 and 2.
    """
    from importlib import resources

    text = resources.files(__package__).joinpath("data", _FIXTURE_FILE).read_text()
    return tuple(float(line) for line in text.splitlines() if line.strip())


def render_table(records: Sequence[CheckpointRecord], format: str = "csv") -> str:
    """Serialize checkpoint records as CSV (fixed precision) or JSON (full floats).

    CSV columns are cycle, d1..d9 (percent, 4 decimals), ssd (2 decimals),
    then q10, q90 and qtm at 6 significant figures. JSON mirrors the record
    fields exactly.
    """
    if format == "csv":
        lines = [CSV_HEADER]
        for r in records:
            cells = [str(r.cycle)]
            cells += [f"{p:.4f}" for p in r.digit_pct]
            cells.append(f"{r.ssd:.2f}")
            cells += [f"{v:.6g}" for v in (r.q10, r.q90, r.qtm)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if format == "json":
        import json

        return json.dumps([r._asdict() for r in records], indent=2) + "\n"
    raise ConfigError(f"unknown table format {format!r}; use 'csv' or 'json'")


_CONFIG_KEYS = frozenset(
    {"ball_count", "initial_value", "cycles", "policy", "ratio", "seed", "checkpoints"}
)
_REQUIRED_KEYS = ("ball_count", "initial_value", "cycles", "policy")


def parse_config(text: str, *, seed: int | None = None, source: str = "<config>") -> ExperimentConfig:
    """Parse a flat key = value experiment description.

    Recognized keys: ball_count, initial_value, cycles, policy ("uniform" or
    "fixed"), ratio (required exactly when policy is fixed), seed, checkpoints
    (comma-separated cycle numbers). '#' starts a comment. A ``seed``
    argument overrides any seed key in the text and is required when the
    text has none.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise ConfigError(f"{source}, line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{source}, line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{source}, line {lineno}: duplicate key {key!r}")
        entries[key] = value

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"{source}: missing required key {key!r}")

    ball_count = _parse_int(entries, "ball_count", source)
    initial_value = _parse_float(entries, "initial_value", source)
    cycles = _parse_int(entries, "cycles", source)

    policy_name = entries["policy"]
    if policy_name == "uniform":
        if "ratio" in entries:
            raise ConfigError(f"{source}: 'ratio' is only valid with policy = fixed")
        ratio = None
    elif policy_name == "fixed":
        if "ratio" not in entries:
            raise ConfigError(f"{source}: policy = fixed requires a 'ratio' key")
        ratio = _parse_float(entries, "ratio", source)
    else:
        raise ConfigError(f"{source}: policy must be 'uniform' or 'fixed', got {policy_name!r}")

    if seed is None:
        if "seed" not in entries:
            raise MissingSeedError(
                f"{source}: missing required key 'seed' (or pass one explicitly)"
            )
        seed = _parse_int(entries, "seed", source)

    if "checkpoints" in entries:
        try:
            checkpoints = tuple(int(c.strip()) for c in entries["checkpoints"].split(","))
        except ValueError:
            raise ConfigError(
                f"{source}: checkpoints must be comma-separated integers, got "
                f"{entries['checkpoints']!r}"
            ) from None
    else:
        checkpoints = (cycles,)

    return ExperimentConfig(
        ball_count=ball_count,
        initial_value=initial_value,
        cycles=cycles,
        ratio=ratio,
        seed=seed,
        checkpoints=checkpoints,
    )


def _parse_int(entries: Mapping[str, str], key: str, source: str) -> int:
    try:
        return int(entries[key])
    except ValueError:
        raise ConfigError(f"{source}: {key} must be an integer, got {entries[key]!r}") from None


def _parse_float(entries: Mapping[str, str], key: str, source: str) -> float:
    try:
        return float(entries[key])
    except ValueError:
        raise ConfigError(f"{source}: {key} must be a number, got {entries[key]!r}") from None
