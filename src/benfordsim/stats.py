"""Digit tallies and conformance measures for positive datasets.

Provides the building blocks for judging how Benford-like a dataset is: the
sum of squared deviations of first-digit percentages from the Benford
percentages (SSD), quantiles with linear interpolation, and base-10 log
histograms as (bin index, count) pairs. A report is built from the dataset
sorted once: it gives the 90th/10th percentile ratio (QTM), the classical
log10(max/min) order of magnitude (OOM) and, through ``digits.tally_digits``,
which finds where each digit boundary of the decades the values span falls
among them, the first-digit counts.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import truediv

from .digits import tally_digits
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


BenfordReport = namedtuple("BenfordReport", "proportions_pct ssd q10 q90 qtm oom n counts")
BenfordReport.__doc__ = """One snapshot of digit counts, proportions and dispersion measures for a
dataset: ``proportions_pct`` and ``counts`` are 9-tuples for digits 1..9, ``n`` is an int, and the rest
are floats."""


def ssd(observed_pct: Sequence[float]) -> float:
    """Sum of squared deviations of observed digit percentages from Benford.

    ``observed_pct`` holds nine percentages for digits 1..9. The Benford
    reference uses full-precision constants, not their rounded two-decimal
    display values.
    """
    if len(observed_pct) != 9:
        raise DomainError(f"expected 9 digit percentages, got {len(observed_pct)}")
    return sum((obs - exp) ** 2 for obs, exp in zip(observed_pct, BENFORD_PCT))


# The largest |log10 x| of a positive double, that of the smallest subnormal.
_MAX_ABS_LOG10 = -math.log10(5e-324)


def _check_bin_width(width: float, name: str = "bin width") -> None:
    """Raise ``DomainError`` unless ``width``, named ``name`` in the message,
    gives every positive double a finite bin index; widths that are not
    positive and finite, or below ~1.8e-306, do not."""
    if not 0.0 < width < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {width!r}")
    if not math.isfinite(_MAX_ABS_LOG10 / width):
        raise DomainError(f"{name} {width!r} is too small: log10 of the smallest double / width overflows")


def log_histogram(values: Iterable[float], bin_width: float) -> list[tuple[int, int]]:
    """Histogram of log10 of strictly positive ``values`` in fixed-width bins.

    A value x lands in bin floor(log10(x) / bin_width), which spans
    [index * bin_width, (index + 1) * bin_width) in log10 units. Returns the
    (bin index, count) pairs of the occupied bins, in index order. A bad
    value raises ``DomainError`` as in ``analyze``.
    """
    _check_bin_width(bin_width)
    values = values if isinstance(values, Sequence) else list(values)  # read an iterator once
    # log10 takes an int beyond the largest double, which max finds, and
    # refuses zero, a negative or a value that rounds to zero as a double.
    # max skips a NaN that is not first, and floor refuses it. A Decimal
    # ordered against a NaN raises decimal.InvalidOperation, an ArithmeticError.
    try:
        if not values or max(values) <= sys.float_info.max:
            bins = map(math.floor, map(truediv, map(math.log10, values), repeat(bin_width)))
            return sorted(Counter(bins).items())
    except (ValueError, ArithmeticError):
        pass
    raise _first_bad_value(values)


def _first_bad_value(values: Sequence[float]) -> DomainError:
    """The error for the first zero, inf, NaN or out-of-range value, else the
    first negative. A finite magnitude beyond the largest double (a huge int),
    or one that rounds to zero as a double (a tiny ``Fraction``), is not shown,
    as its repr may be too long to build."""
    for i, x in enumerate(values):
        m = abs(x)
        if not 0.0 < m <= sys.float_info.max:
            shown = "a magnitude beyond the largest double" if math.inf > m > sys.float_info.max else repr(x)
        elif float(m) == 0.0:
            shown = "a magnitude below the smallest double"
        else:
            continue
        return DomainError(f"value at index {i} has no first significant digit: {shown}")
    i = next(i for i, x in enumerate(values) if x < 0.0)
    return DomainError(f"value at index {i} is not strictly positive: {values[i]!r}")


def analyze(values: Iterable[float]) -> BenfordReport:
    """Full conformance report for a non-empty, strictly positive dataset.

    ``qtm`` is q90 / q10 (exactly 1 for constant data); ``oom`` is
    log10(max / min). A bad value raises ``DomainError`` naming its index:
    the first zero, inf, NaN or magnitude beyond the largest double or below
    the smallest, else the first negative, else the first value that a float
    cannot be added to (a ``Decimal`` or a ``str``).
    """
    values = values if isinstance(values, Sequence) else list(values)  # read an iterator once
    # A NaN can sort anywhere, so the ends alone do not prove the run good; given
    # them, a float sum is positive unless a value is NaN. Only a NaN can leave an
    # int beyond the largest double short of the end, where the sum cannot convert it.
    # The least value must be positive as a double: a tiny Fraction rounds to zero.
    # A Decimal ordered against a NaN raises decimal.InvalidOperation, an ArithmeticError.
    try:
        xs = sorted(values)
        if xs and not (0.0 < float(xs[0]) and xs[-1] <= sys.float_info.max and sum(xs, 0.0) > 0.0):
            raise _first_bad_value(values)
    except ArithmeticError:
        raise _first_bad_value(values) from None
    except TypeError as error:
        raise (_first_unaddable(values) or error) from None
    return _report(xs)


def _first_unaddable(values: Sequence[float]) -> DomainError | None:
    """The error for the first value that a float cannot be added to, such as a
    ``Decimal``; None if every value can be (a complex is, but is not ordered)."""
    for i, x in enumerate(values):
        try:
            0.0 + x
        except TypeError:
            return DomainError(f"value at index {i} cannot be added to a float: {x!r}")
    return None


def _report(xs: Sequence[float]) -> BenfordReport:
    """The report of ascending ``xs``, which ``analyze`` or ``cli._sort_bulk`` has checked
    positive up to the largest double; ``xs`` may be a ``memoryview`` of doubles."""
    n = len(xs)
    if not n:
        raise EmptyDataError("dataset is empty")
    counts = tally_digits(xs)
    props = tuple(100.0 * c / n for c in counts)
    q10 = _quantile(xs, 0.1)
    q90 = _quantile(xs, 0.9)
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


def _quantile(xs: Sequence[float], q: float) -> float:
    """Quantile of non-empty ascending ``xs`` by linear interpolation between
    closest ranks.

    With h = (len(xs) - 1) * q the result interpolates between the values of
    ranks floor(h) and floor(h) + 1; q=0 gives the minimum and q=1 the maximum.
    """
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    a = xs[lo]
    if lo + 1 >= len(xs):
        return a
    return a + (h - lo) * (xs[lo + 1] - a)
