"""The fragmentation/consolidation engine over a population of positive values.

A ball system starts as L identical positive values. Each cycle splits one
randomly chosen ball into two and then merges two randomly chosen balls into
one, so the count returns to L and the total is conserved up to float
rounding. After enough cycles (roughly C > 2 * L) the first significant
digits of the ball values settle close to the Benford proportions.

The split ratio is ``None`` for a fresh Uniform(0, 1) draw each cycle, or a
fixed float strictly between 0 and 1.

``run`` is the engine behind ``experiments.run_experiment`` and trusts its
caller: the ball count, initial value, cycle count, ratio and seed are
checked once, by ``ExperimentConfig``, and ``run`` re-checks none of them.
Its ``rng`` is a ``random.Random`` seeded with the run's seed. ``run`` only
runs cycles; ``run_experiment`` analyzes checkpoints between calls.

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

import random
from itertools import repeat

from .errors import UnderflowError

__all__ = ["run"]


def run(
    values: list[float],
    ratio: float | None,
    rng: random.Random,
    cycles: int,
) -> list[float]:
    """Apply ``cycles`` split-then-merge cycles to ``values`` in place and return it.

    ``rng`` is a seeded ``random.Random`` (anything with its ``getrandbits``
    and ``random`` methods will do). The arguments are trusted: they come
    from a validated ``ExperimentConfig``, and nothing here re-checks them.
    Draws follow the module's draw-order contract: an index below n is
    ``getrandbits(n.bit_length())`` redrawn while >= n (CPython's
    ``randrange(n)``), and a uniform ratio is ``random()`` redrawn while 0.0.
    The split ball w becomes w*u, in its slot, and w*(1-u), which is held
    aside as ball index L; the list never grows. The merge removes the ball
    drawn over the L + 1: a ball below L gives its slot to that second
    fragment, and index L is the fragment itself.
    A single ball is stationary: the two fragments are the only merge
    candidates. Ball order carries no meaning; the process is exchangeable.

    Raises ``UnderflowError`` if a fragment rounds to exactly zero; the check
    comes before any write, so the failed cycle leaves ``values`` untouched.

    Consecutive calls on the same list and generator equal one call with the
    summed cycle count: ``run(v, r, rng, a)`` then ``run(v, r, rng, b)``
    leaves ``v`` and ``rng`` exactly as ``run(v, r, rng, a + b)`` does.
    """
    bits = rng.getrandbits
    uniform = rng.random
    n = len(values)
    n1 = n + 1
    k = n.bit_length()
    k1 = n1.bit_length()
    if ratio is not None:
        u = ratio
        v = 1.0 - ratio
    for _ in repeat(None, cycles):  # range would make an int per cycle past the small-int cache
        i = bits(k)
        while i >= n:
            i = bits(k)
        if ratio is None:
            u = uniform()
            while u == 0.0:
                u = uniform()
            v = 1.0 - u
        w = values[i]
        a = w * u
        b = w * v
        if a == 0.0 or b == 0.0:
            raise UnderflowError(f"splitting {w!r} at ratio {u!r} underflowed to zero")
        values[i] = a
        j = bits(k1)
        while j >= n1:
            j = bits(k1)
        if j < n:
            removed = values[j]
            values[j] = b
        else:
            removed = b
        m = bits(k)
        while m >= n:
            m = bits(k)
        values[m] += removed
    return values
