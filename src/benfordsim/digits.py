"""First-significant-digit extraction.

The first significant digit of a number is the leftmost nonzero digit of its
decimal magnitude: 613 -> 6, 0.0002867 -> 2, -62.97 -> 6. Benford's Law says
that over many real-world datasets digit d leads with probability
log10(1 + 1/d), so 1 leads about 30.1% of the time and 9 only 4.6%;
``stats.BENFORD_PCT`` holds that reference in percent.

Digits are looked up, not estimated: a positive number at or above d * 10**k
and below the next such boundary has digit d. The boundaries of the double
range form one sorted table, built exactly on first use, so every digit is
exact by construction.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from functools import cache

from .errors import DomainError

__all__ = ["first_significant_digit"]

_LARGEST = sys.float_info.max


@cache
def boundary_table() -> tuple[tuple[float | int, ...], tuple[int, ...]]:
    """The digit boundaries d * 10**k of the double range, ascending, and their digits d.

    For k >= 0 an entry is d * 10**k itself: a float where one equals it (the
    cheaper compare), else the int, which Python compares exactly with floats. For k < 0 it is the
    smallest double above d * 10**k. Either way a float or int x is at or above
    the entry exactly when x >= d * 10**k. Subnormal boundaries can share one
    double; ``bisect_right`` then lands after the last, largest d. Built on the
    first lookup (a few ms), never at import.
    """
    bounds: list[float | int] = []
    digits: list[int] = []
    for k in range(-324, 309):
        for d in range(1, 10):
            if k >= 0:
                b = d * 10**k
                if b > _LARGEST:
                    break
                if float(b) == b:
                    b = float(b)
            else:
                b = float(f"{d}e{k}")  # the nearest double, which may lie below
                num, den = b.as_integer_ratio()
                if num * 10**-k < d * den:
                    b = math.nextafter(b, math.inf)
            bounds.append(b)
            digits.append(d)
    return tuple(bounds), tuple(digits)


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
    bounds, digits = boundary_table()
    return digits[bisect_right(bounds, m) - 1]
