"""The fragmentation/consolidation engine over a population of positive values.

A ball system starts as L identical positive values. Each cycle splits one
randomly chosen ball into two and then merges two randomly chosen balls into
one, so the count returns to L and the total is conserved up to float
rounding. After enough cycles (roughly C > 2 * L) the first significant
digits of the ball values settle close to the Benford proportions.

The split ratio is ``None`` for a fresh Uniform(0, 1) draw each cycle, or a
fixed float strictly between 0 and 1.

Draw-order contract (fixed): every cycle consumes the random stream in this
exact order - split index over the L balls, split ratio (only when ``ratio``
is None; a fixed ratio consumes no draw), index over the L + 1 balls of the
ball removed by the merge, index over the remaining L balls of the ball that
receives it. Nothing else draws from the stream. The stream is CPython's
``random.Random`` seeded with the run's seed, read through two primitives.
An index below n is ``getrandbits(k)`` with k = n.bit_length(), redrawn
while it is >= n; a ratio is ``random()``, redrawn while it is 0.0. That
rejection is how CPython implements ``randrange(n)``
(``_randbelow_with_getrandbits``), so each index is the one ``randrange(n)``
would return and the generator ends in the same state; the test
``test_inline_rejection_matches_cpython_randrange`` guards this. Runs are
therefore bit-reproducible for a given seed, ball count, initial value,
ratio and cycle count for as long as ``getrandbits`` and ``random`` keep
their outputs for a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ConfigError, UnderflowError

__all__ = [
    "RandomStream",
    "BallSystem",
    "new_system",
    "check_ratio",
    "run",
]


class RandomStream:
    """Seeded deterministic random source for one simulation run.

    Wraps the stdlib Mersenne Twister and exposes its two primitives,
    ``getrandbits`` and ``random``, as the bound methods themselves so a
    draw costs one call. A given seed reproduces the same draw sequence
    across process restarts. The stdlib seeds by absolute value, so
    callers keep seeds in [0, 2**64) (``ExperimentConfig`` enforces this).
    """

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        #: ``getrandbits(k)``: uniform integer in [0, 2**k).
        self.getrandbits = rng.getrandbits
        #: ``random()``: uniform float in [0, 1).
        self.random = rng.random

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"


@dataclass
class BallSystem:
    """The evolving multiset of strictly positive ball values.

    ``initial_total`` caches L * V from creation time; the running sum never
    drifts from it by more than float rounding. Ordering of ``values``
    carries no meaning: the process is exchangeable and removal may swap
    elements around.
    """

    values: list[float]
    initial_total: float

    def total(self) -> float:
        return math.fsum(self.values)

    def relative_drift(self) -> float:
        """Relative deviation of the current total from the initial total."""
        return abs(self.total() - self.initial_total) / self.initial_total


def new_system(ball_count: int, initial_value: float) -> BallSystem:
    """Create ``ball_count`` balls all holding ``initial_value``."""
    if not isinstance(ball_count, int) or ball_count < 1:
        raise ConfigError(f"ball count must be a positive integer, got {ball_count!r}")
    if not (initial_value > 0.0) or not math.isfinite(initial_value):
        raise ConfigError(f"initial value must be strictly positive, got {initial_value!r}")
    return BallSystem([initial_value] * ball_count, ball_count * initial_value)


def check_ratio(ratio: float | None) -> None:
    """Reject a split ratio that is neither None nor a float in (0, 1)."""
    if ratio is not None and not (isinstance(ratio, float) and 0.0 < ratio < 1.0):
        raise ConfigError(f"fixed split ratio must be in (0, 1), got {ratio!r}")


def run(
    system: BallSystem,
    ratio: float | None,
    rng: RandomStream,
    cycles: int,
    checkpoints: Iterable[int] | None = None,
    on_checkpoint: Callable[[int, Sequence[float]], None] | None = None,
) -> BallSystem:
    """Apply ``cycles`` split-then-merge cycles in place, reporting snapshots.

    Draws from ``rng`` follow the module's draw-order contract: ``rng``
    provides ``getrandbits(k)`` and ``random()``, an index below n is
    ``getrandbits(n.bit_length())`` redrawn while >= n (CPython's
    ``randrange(n)``), and a uniform ratio is ``random()`` redrawn while 0.0.
    The split ball w becomes w*u and w*(1-u); the second fragment is
    appended, and the merge moves the last ball into the removed ball's slot.
    A single-ball system is valid and stationary: the two fragments are the
    only merge candidates.

    Raises ``UnderflowError`` if a fragment rounds to exactly zero; the check
    comes before any write, so the failed cycle leaves ``values`` untouched.

    ``on_checkpoint`` is called with (cycle number, immutable snapshot of the
    values) at every cycle number listed in ``checkpoints``, including cycle 0
    if listed. Snapshots are copies, so callbacks can never perturb the system
    or the random stream.
    """
    check_ratio(ratio)
    if not isinstance(cycles, int) or cycles < 0:
        raise ConfigError(f"cycle count must be a non-negative integer, got {cycles!r}")
    marks = frozenset(checkpoints) if checkpoints is not None and on_checkpoint else frozenset()
    values = system.values
    bits = rng.getrandbits
    uniform = rng.random
    n = len(values)
    n1 = n + 1
    k = n.bit_length()
    k1 = n1.bit_length()
    if 0 in marks:
        on_checkpoint(0, tuple(values))
    for c in range(1, cycles + 1):
        i = bits(k)
        while i >= n:
            i = bits(k)
        if ratio is None:
            u = uniform()
            while u == 0.0:
                u = uniform()
        else:
            u = ratio
        w = values[i]
        a = w * u
        b = w * (1.0 - u)
        if a == 0.0 or b == 0.0:
            raise UnderflowError(f"splitting {w!r} at ratio {u!r} underflowed to zero")
        values[i] = a
        values.append(b)
        j = bits(k1)
        while j >= n1:
            j = bits(k1)
        removed = values[j]
        values[j] = values[-1]
        values.pop()
        m = bits(k)
        while m >= n:
            m = bits(k)
        values[m] += removed
        if c in marks:
            on_checkpoint(c, tuple(values))
    return system
