"""First-significant-digit extraction and tallies.

The first significant digit of a number is the leftmost nonzero digit of its
decimal magnitude: 613 -> 6, 0.0002867 -> 2, -62.97 -> 6. Benford's Law says
that over many real-world datasets digit d leads with probability
log10(1 + 1/d), so 1 leads about 30.1% of the time and 9 only 4.6%;
``stats.BENFORD_PCT`` holds that reference in percent.

Digits are looked up, not estimated: a positive number at or above d * 10**k
and below the next such boundary has digit d. The nine boundaries of each
decade are built exactly on first use and cached, so a dataset builds only
the decades it spans and every digit is exact by construction. A list is
tallied by bisecting those boundaries into it. A sorted run of doubles is
tallied by one numpy search of a table derived from them, decade by decade
and cached the same way: the least double at or above each boundary. No
other module reads either table.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import cache

from .errors import DomainError

__all__ = ["first_significant_digit"]

_LARGEST = sys.float_info.max


@cache
def _decade(k: int) -> tuple[float | int, ...]:
    """The digit boundaries d * 10**k of decade ``k``, for d = 1..9.

    For k >= 0 an entry is d * 10**k itself: a float where one equals it (the
    cheaper compare), else the int, which Python compares exactly with floats.
    For k < 0 it is the smallest double at or above d * 10**k. Either way a
    float or int x is at or above the entry exactly when x >= d * 10**k.
    Subnormal boundaries can share one double; ``bisect_right`` then lands
    after the last, largest d.
    """
    bounds: list[float | int] = []
    power = 10 ** abs(k)
    for d in range(1, 10):
        if k >= 0:
            b = d * power
            if b <= _LARGEST and float(b) == b:
                b = float(b)
        else:
            b = float(f"{d}e{k}")  # the nearest double, which may lie below
            num, den = b.as_integer_ratio()
            if num * power < d * den:
                b = math.nextafter(b, math.inf)
        bounds.append(b)
    return tuple(bounds)


def _decade_of(m: float) -> int:
    """The k with 10**k <= m < 10**(k + 1), for 0 < m <= the largest double.
    log10 only estimates it: near a power of ten it may be one off either way."""
    k = math.floor(math.log10(m))
    if m < _decade(k)[0]:
        return k - 1
    return k + 1 if m >= _decade(k + 1)[0] else k


def first_significant_digit(x: float) -> int:
    """Return the leftmost nonzero decimal digit of ``abs(x)``, in 1..9.

    The sign is discarded and the result is invariant under scaling by any
    power of ten. Subnormal floats are valid inputs. Raises ``DomainError``
    for zero, infinities, NaN and any magnitude beyond the largest double.
    """
    m = abs(x)
    if not 0.0 < m <= _LARGEST:
        if m == 0.0:
            raise DomainError("zero has no first significant digit")
        if m == math.inf or m != m:
            raise DomainError(f"{x!r} has no first significant digit")
        raise DomainError("magnitudes beyond the largest double have no first significant digit")
    return bisect_right(_decade(_decade_of(m)), m)


@cache
def _least_doubles(k: int) -> tuple[float, ...]:
    """The least double at or above each boundary of ``_decade(k)``, inf above
    the largest double, so that a double x is at or above the entry exactly
    when x >= d * 10**k. An int entry would round to the nearest double, which
    may lie below it. Only doubles may be compared with these: the int 10**23
    lies below 1.0000000000000001e23, its entry here."""
    bounds = []
    for b in _decade(k):
        x = float(b) if b <= _LARGEST else math.inf
        bounds.append(math.nextafter(x, math.inf) if x < b else x)
    return tuple(bounds)


def tally_digits(xs: Sequence[float]) -> tuple[int, ...]:
    """Counts of the first digits 1..9 over non-empty, ascending, positive ``xs``.

    No value may exceed the largest double. Values from one digit boundary up
    to the next share its digit, so only the position of each boundary of the
    decades [min, max] spans is found in ``xs``, and no value is looked up on
    its own. A list bisects each boundary of ``_decade`` into it in turn; a
    ``memoryview`` of doubles finds every position with one
    ``numpy.searchsorted`` of ``_least_doubles``, which is exact for doubles
    alone.
    """
    decades = range(_decade_of(xs[0]), _decade_of(xs[-1]) + 1)
    if isinstance(xs, memoryview):
        import numpy

        bounds = [b for k in decades for b in _least_doubles(k)]
        ends = numpy.frombuffer(xs).searchsorted(bounds).tolist()
    else:
        ends = []
        end = 0
        for k in decades:
            for b in _decade(k):
                end = bisect_left(xs, b, end)
                ends.append(end)
    counts = [0] * 9
    start = 0
    for i, end in enumerate(ends):
        # just below d * 10**k, d = i % 9 + 1: digit d - 1, or 9 (index -1) below d = 1
        counts[i % 9 - 1] += end - start
        start = end
    counts[8] += len(xs) - start  # from 9 * 10**k of the last decade up
    return tuple(counts)
