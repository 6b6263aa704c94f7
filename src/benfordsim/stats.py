"""Digit tallies and conformance measures for positive datasets.

Provides the building blocks for judging how Benford-like a dataset is: the
sum of squared deviations of first-digit percentages from the Benford
percentages (SSD), quantiles with linear interpolation, and base-10 log
histograms as (bin index, count) pairs. ``analyze`` builds its report around
one sort per dataset: the sorted values give the 90th/10th percentile ratio
(QTM), the classical log10(max/min) order of magnitude (OOM) and, by
bisecting each digit boundary of the ``digits`` table into them, the
first-digit counts.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

from .digits import boundary_table
from .errors import DomainError, EmptyDataError

__all__ = [
    "BENFORD_PCT",
    "BenfordReport",
    "ssd",
    "log_histogram",
    "analyze",
]

#: Benford's Law in percent, 100 * log10(1 + 1/d) at full precision; index i
#: holds digit i + 1.
BENFORD_PCT: tuple[float, ...] = tuple(100.0 * math.log10(1.0 + 1.0 / d) for d in range(1, 10))


class BenfordReport(NamedTuple):
    """One snapshot of digit counts, proportions and dispersion measures for a dataset."""

    proportions_pct: tuple[float, ...]
    ssd: float
    q10: float
    q90: float
    qtm: float
    oom: float
    n: int
    counts: tuple[int, ...]


def tally_digits(xs: Sequence[float]) -> tuple[int, ...]:
    """Counts of the first digits 1..9 over non-empty, ascending, positive ``xs``.

    No value may exceed the largest double. Values from one digit boundary up
    to the next share its digit, so each boundary inside [min, max] is
    bisected into ``xs`` once (about nine per decade of span) and no value is
    looked up on its own.
    """
    bounds, digits = boundary_table()
    counts = [0] * 9
    first = bisect_right(bounds, xs[0])
    last = bisect_right(bounds, xs[-1])
    start = 0
    for j in range(first, last):
        end = bisect_left(xs, bounds[j], start)
        counts[digits[j - 1] - 1] += end - start
        start = end
    counts[digits[last - 1] - 1] += len(xs) - start
    return tuple(counts)


def ssd(observed_pct: Sequence[float]) -> float:
    """Sum of squared deviations of observed digit percentages from Benford.

    ``observed_pct`` holds nine percentages for digits 1..9. The Benford
    reference uses full-precision constants, not their rounded two-decimal
    display values.
    """
    if len(observed_pct) != 9:
        raise DomainError(f"expected 9 digit percentages, got {len(observed_pct)}")
    return sum((obs - exp) ** 2 for obs, exp in zip(observed_pct, BENFORD_PCT))


def _quantile_sorted(xs: Sequence[float], q: float) -> float:
    """Quantile of ascending ``xs`` by linear interpolation between closest ranks.

    With h = (n - 1) * q the result interpolates between xs[floor(h)] and the
    next value; q=0 gives the minimum and q=1 the maximum.
    """
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] + (h - lo) * (xs[lo + 1] - xs[lo])


# The largest |log10 x| of a positive double, that of the smallest subnormal.
_MAX_ABS_LOG10 = -math.log10(5e-324)


#: Why a positive finite width that ``_bin_width_is_tiny`` flags is refused.
_TINY_BIN_WIDTH_WHY = "log10 of the smallest double / width overflows"


def _bin_width_is_tiny(bin_width: float) -> bool:
    """Whether a positive finite ``bin_width`` leaves some positive double
    without a finite bin index; widths below ~1.8e-306 do."""
    return not math.isfinite(_MAX_ABS_LOG10 / bin_width)


def log_histogram(values: Sequence[float], bin_width: float) -> list[tuple[int, int]]:
    """Histogram of log10 of strictly positive ``values`` in fixed-width bins.

    A value x lands in bin floor(log10(x) / bin_width), which spans
    [index * bin_width, (index + 1) * bin_width) in log10 units. Returns the
    (bin index, count) pairs of the occupied bins, in index order.
    """
    if not 0.0 < bin_width < math.inf:
        raise DomainError(f"bin width must be positive and finite, got {bin_width!r}")
    if _bin_width_is_tiny(bin_width):
        raise DomainError(f"bin width {bin_width!r} is too small: {_TINY_BIN_WIDTH_WHY}")
    counts: dict[int, int] = {}
    for i, x in enumerate(values):
        if not 0.0 < x <= sys.float_info.max:
            raise DomainError(f"value at index {i} is not strictly positive: {_shown(x)}")
        b = math.floor(math.log10(x) / bin_width)
        counts[b] = counts.get(b, 0) + 1
    return sorted(counts.items())


def _shown(x: float) -> str:
    """``x`` as an error message shows it: its repr, except for a finite
    magnitude beyond the largest double (a huge int), whose repr may be too
    long to build."""
    if abs(x) > sys.float_info.max and abs(x) != math.inf:
        return "a magnitude beyond the largest double"
    return repr(x)


def _first_bad_value(values: Sequence[float]) -> DomainError:
    """The error for the first zero, inf, NaN or out-of-range value, else the first negative."""
    for i, x in enumerate(values):
        if not 0.0 < abs(x) <= sys.float_info.max:
            return DomainError(f"value at index {i} has no first significant digit: {_shown(x)}")
    i = next(i for i, x in enumerate(values) if x < 0.0)
    return DomainError(f"value at index {i} is not strictly positive: {values[i]!r}")


def analyze(values: Sequence[float]) -> BenfordReport:
    """Full conformance report for a non-empty, strictly positive dataset.

    ``qtm`` is q90 / q10 (exactly 1 for constant data); ``oom`` is
    log10(max / min). A bad value raises ``DomainError`` naming its index:
    the first zero, inf, NaN or magnitude beyond the largest double, else
    the first negative.
    """
    if len(values) == 0:
        raise EmptyDataError("dataset is empty")
    xs = sorted(values)
    # A NaN can sort anywhere, so the ends alone do not prove the data good;
    # a sum is NaN only if a value is, and fails only on an int beyond a double.
    try:
        total = sum(xs)
    except OverflowError:
        total = math.nan
    if not (0.0 < xs[0] and xs[-1] <= sys.float_info.max and total == total):
        raise _first_bad_value(values)
    counts = tally_digits(xs)
    n = len(xs)
    props = tuple(100.0 * c / n for c in counts)
    q10 = _quantile_sorted(xs, 0.1)
    q90 = _quantile_sorted(xs, 0.9)
    return BenfordReport(
        proportions_pct=props,
        ssd=ssd(props),
        q10=q10,
        q90=q90,
        qtm=q90 / q10,
        oom=math.log10(xs[-1] / xs[0]),
        n=n,
        counts=counts,
    )
