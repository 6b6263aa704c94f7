"""The benchmark's workloads and the inputs each one derives from its seed.

ensemble_final runs the ten-seed ensemble of presets A, B and C through
``run_experiment``, as the acceptance criteria use the package. It is bound by
the simulation kernel (``process``), analyses one final checkpoint per run
and never enters ``cli``.

staged_cli runs the ten-seed ensemble of Gradual_A and Small_100 through
``cli.main(["run", ...])``, writing the table, the final values and their
histogram. Each run makes 12 to 14 checkpoint analyses of 100 or 2000
values: the small-call regime of ``stats``, plus rendering and file output.

analyze_bulk runs ``cli.main(["analyze", ...])`` on 10^6 values drawn
log-uniform over the normal double range. It simulates nothing: the time
goes to the ``cli`` dataset parser, ``digits`` and ``stats``, with a working
set far larger than the L2 cache, and ``process`` is bypassed.

One operation covers one seed of the ensemble (every preset of the workload
for that seed), so that operation times form a single cluster; a pass runs
all ten seeds. analyze_bulk has one operation per pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Preset:
    """The parameters of a benfordsim preset, restated as the oracle's spec."""

    name: str
    ball_count: int
    initial_value: float
    cycles: int
    ratio: float | None  # None: a Uniform(0, 1) ratio is drawn each cycle
    checkpoints: tuple[int, ...]


PRESETS = {
    p.name: p
    for p in (
        Preset("A", 2000, 1.0, 8000, None, (8000,)),
        Preset("B", 1500, 1.0, 10000, 0.5, (10000,)),
        Preset("C", 1000, 1.0, 3000, 0.85, (3000,)),
        Preset(
            "Gradual_A", 2000, 1.0, 13000, None,
            (0, 500, 1000, 1500, 2000, 2500, 3000, 4000, 5000, 6000, 7000, 8000, 10000, 13000),
        ),
        Preset(
            "Small_100", 100, 1.0, 9000, None,
            (0, 50, 100, 150, 200, 250, 300, 350, 800, 2000, 5000, 9000),
        ),
    )
}

WORKLOAD_PRESETS = {
    "ensemble_final": ("A", "B", "C"),
    "staged_cli": ("Gradual_A", "Small_100"),
    "analyze_bulk": (),
}
WORKLOADS = tuple(WORKLOAD_PRESETS)
SEEDS_PER_PASS = 10
DATASET_SIZE = 1_000_000


def run_seeds(workload: str, seed: int) -> list[int]:
    """The ten run seeds of a simulation workload's ensemble."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.getrandbits(32) for _ in range(SEEDS_PER_PASS)]


def dataset(seed: int, size: int = DATASET_SIZE) -> list[float]:
    """``size`` values log-uniform over [2**-1022, 2**1024), the normal doubles."""
    rng = random.Random(f"analyze_bulk/{seed}")
    draw = rng.random
    exponent = rng.randrange
    # 2.0 ** u stays below 2.0 for every u < 1, so no value overflows.
    return [math.ldexp(2.0 ** draw(), exponent(-1022, 1024)) for _ in range(size)]


def dataset_text(values: list[float]) -> str:
    return "".join(f"{x!r}\n" for x in values)


def values_per_op(workload: str, size: int = DATASET_SIZE) -> int:
    """Values one operation hands to the analysis layer (each dataset counted once)."""
    presets = WORKLOAD_PRESETS[workload]
    if not presets:
        return size
    return sum(PRESETS[p].ball_count * len(PRESETS[p].checkpoints) for p in presets)


def cycles_per_op(workload: str) -> int:
    return sum(PRESETS[p].cycles for p in WORKLOAD_PRESETS[workload])


def staged_argv(preset: str, seed: int, out_dir: str) -> list[str]:
    base = f"{out_dir}/{preset}"
    return [
        "run", "--preset", preset, "--seed", str(seed), "--out", f"{base}.csv",
        "--emit-values", f"{base}.values", "--emit-hist", f"{base}.hist",
    ]


def analyze_argv(data_path: str, out_dir: str) -> list[str]:
    return ["analyze", data_path, "--format", "json", "--out", f"{out_dir}/report.json"]
