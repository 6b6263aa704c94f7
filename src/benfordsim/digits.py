"""First-significant-digit extraction and the Benford reference distribution.

The first significant digit of a number is the leftmost nonzero digit of its
decimal magnitude: 613 -> 6, 0.0002867 -> 2, -62.97 -> 6. Benford's Law says
that over many real-world datasets digit d leads with probability
log10(1 + 1/d), so 1 leads about 30.1% of the time and 9 only 4.6%.
"""

from __future__ import annotations

import math
from decimal import Decimal

from .errors import DomainError

__all__ = ["first_significant_digit", "benford_expected", "benford_distribution"]


def first_significant_digit(x: float) -> int:
    """Return the leftmost nonzero decimal digit of ``abs(x)``, in 1..9.

    The sign is discarded and the result is invariant under scaling by any
    power of ten. Subnormal floats are valid inputs. Raises ``DomainError``
    for zero, infinities and NaN, which have no first significant digit.
    """
    m = abs(x)
    # One range test settles the common case. Zero, infinities and NaN fail
    # it; so do subnormal and borderline-tiny magnitudes, which are lifted
    # into the normal range so the power of ten below cannot underflow
    # (decimal rescaling does not change the leading digit).
    if not 1e-300 <= m <= 1.7976931348623157e308:
        if m == 0.0:
            raise DomainError("zero has no first significant digit")
        if not math.isfinite(m):
            raise DomainError(f"{x!r} has no first significant digit")
        m *= 1e300
    k = math.floor(math.log10(m))
    p = 10.0**k
    f = m / p
    d = int(f)
    r = f - d
    # The estimate can only be wrong where f lies within rounding error of an
    # integer, at a digit boundary. Away from one, int(f) is the digit. At one,
    # d becomes the nearest integer: d * 10**k is exact for k in 0..15, and
    # otherwise the exact decimal expansion of the unlifted float decides.
    if 1e-9 < r < 1.0 - 1e-9:
        return d
    if r > 0.5:
        d += 1
    if 0 <= k <= 15 and m == d * p:
        return d
    return Decimal(abs(x)).as_tuple().digits[0]


def benford_expected(d: int) -> float:
    """Benford probability log10(1 + 1/d) that digit ``d`` leads a number."""
    if not 1 <= d <= 9:
        raise DomainError(f"first significant digits are 1..9, got {d!r}")
    return math.log10(1.0 + 1.0 / d)


def benford_distribution() -> tuple[float, ...]:
    """The full Benford vector, entry ``i`` holding the probability of digit ``i + 1``."""
    return tuple(benford_expected(d) for d in range(1, 10))
