"""Digit tallies and conformance measures for positive datasets.

Provides the building blocks for judging how Benford-like a dataset is:
first-digit tallies and proportions, the sum of squared deviations from the
Benford percentages (SSD), quantiles with linear interpolation, the
90th/10th percentile ratio (QTM), the classical log10(max/min) order of
magnitude (OOM), and base-10 log histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .digits import benford_expected, first_significant_digit
from .errors import DomainError, EmptyDataError

__all__ = [
    "BENFORD_PCT",
    "SSD_IDEAL_MAX",
    "SSD_REASONABLE_MAX",
    "SSD_DEVIANT_MIN",
    "QTM_STRONG_MIN",
    "QTM_FAIR_MIN",
    "QTM_WEAK_MIN",
    "DigitTally",
    "BenfordReport",
    "LogHistogram",
    "tally_digits",
    "proportions_pct",
    "ssd",
    "quantile",
    "qtm",
    "oom",
    "log_histogram",
    "analyze",
]

#: Benford expectation in percent, full precision, index i holds digit i + 1.
BENFORD_PCT: tuple[float, ...] = tuple(100.0 * benford_expected(d) for d in range(1, 10))

# Conventional reading guides for the measures below. They are constants for
# reporting only; nothing in this module branches on them.
SSD_IDEAL_MAX = 2.0  # SSD below this: ideally Benford
SSD_REASONABLE_MAX = 25.0  # SSD below this: reasonably Benford
SSD_DEVIANT_MIN = 100.0  # SSD above this: deviates too much
QTM_STRONG_MIN = 100.0  # spread comfortably wide enough for Benford behaviour
QTM_FAIR_MIN = 50.0
QTM_WEAK_MIN = 30.0  # below this, Benford conformance is not to be expected


@dataclass(frozen=True)
class DigitTally:
    """First-digit counts over a dataset; ``counts[i]`` is the count of digit ``i + 1``."""

    counts: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class BenfordReport:
    """One snapshot of digit counts, proportions and dispersion measures for a dataset."""

    proportions_pct: tuple[float, ...]
    ssd: float
    q10: float
    q90: float
    qtm: float
    oom: float
    n: int
    counts: tuple[int, ...]


@dataclass(frozen=True)
class LogHistogram:
    """Histogram of log10(value) with fixed-width bins.

    A value x lands in bin floor((log10(x) - origin) / bin_width). ``bins``
    lists (bin index, count) pairs for occupied bins, in index order.
    ``core_log_span`` is log10(q90) - log10(q10), the width of the central
    80% of the data on the log axis (None for an empty dataset).
    """

    bin_width: float
    origin: float
    bins: tuple[tuple[int, int], ...]
    core_log_span: float | None


def tally_digits(values: Iterable[float]) -> DigitTally:
    """Count first significant digits over ``values``.

    Every entry must be finite and nonzero; a bad entry raises ``DomainError``
    naming its index so dirty datasets get cleaned explicitly rather than
    silently shrunk.
    """
    counts = [0] * 9
    total = 0
    for i, x in enumerate(values):
        try:
            d = first_significant_digit(x)
        except DomainError as exc:
            raise DomainError(f"value at index {i} has no first significant digit: {x!r}") from exc
        counts[d - 1] += 1
        total += 1
    return DigitTally(tuple(counts), total)


def proportions_pct(tally: DigitTally) -> tuple[float, ...]:
    """Digit proportions of a tally, in percent."""
    if tally.total == 0:
        raise EmptyDataError("cannot take digit proportions of an empty tally")
    return tuple(100.0 * c / tally.total for c in tally.counts)


def ssd(observed_pct: Sequence[float]) -> float:
    """Sum of squared deviations of observed digit percentages from Benford.

    ``observed_pct`` holds nine percentages for digits 1..9. The Benford
    reference uses full-precision constants, not their rounded two-decimal
    display values.
    """
    if len(observed_pct) != 9:
        raise DomainError(f"expected 9 digit percentages, got {len(observed_pct)}")
    return sum((obs - exp) ** 2 for obs, exp in zip(observed_pct, BENFORD_PCT))


def quantile(values: Sequence[float], q: float) -> float:
    """Quantile by linear interpolation between closest ranks.

    With the data sorted ascending as x_1..x_n and h = (n - 1) * q + 1, the
    result interpolates between x_floor(h) and the next value. q=0 gives the
    minimum and q=1 the maximum.
    """
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"quantile level must be in [0, 1], got {q!r}")
    if len(values) == 0:
        raise EmptyDataError("cannot take a quantile of an empty dataset")
    return _quantile_sorted(sorted(values), q)


def _quantile_sorted(xs: Sequence[float], q: float) -> float:
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] + (h - lo) * (xs[lo + 1] - xs[lo])


def qtm(values: Sequence[float]) -> float:
    """Quantitative order of magnitude: the 90th percentile over the 10th.

    A base-free dispersion measure for strictly positive data. It ignores the
    lowest and highest deciles, so outliers and edge values carry no weight;
    constant data gives exactly 1.
    """
    _require_positive(values)
    xs = sorted(values)
    return _quantile_sorted(xs, 0.9) / _quantile_sorted(xs, 0.1)


def oom(values: Sequence[float]) -> float:
    """Classical order of magnitude log10(max / min) of strictly positive data."""
    _require_positive(values)
    return math.log10(max(values) / min(values))


def log_histogram(
    values: Sequence[float], bin_width: float, origin: float = 0.0
) -> LogHistogram:
    """Bin log10 of strictly positive ``values`` into fixed-width bins."""
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise DomainError(f"bin width must be positive and finite, got {bin_width!r}")
    counts: dict[int, int] = {}
    for i, x in enumerate(values):
        if not (x > 0.0) or not math.isfinite(x):
            raise DomainError(f"value at index {i} is not strictly positive: {x!r}")
        b = math.floor((math.log10(x) - origin) / bin_width)
        counts[b] = counts.get(b, 0) + 1
    span = None
    if values:
        xs = sorted(values)
        span = math.log10(_quantile_sorted(xs, 0.9)) - math.log10(_quantile_sorted(xs, 0.1))
    return LogHistogram(bin_width, origin, tuple(sorted(counts.items())), span)


def analyze(values: Sequence[float]) -> BenfordReport:
    """Full conformance report for a non-empty, strictly positive dataset."""
    _require_positive(values)
    tally = tally_digits(values)
    props = proportions_pct(tally)
    xs = sorted(values)
    q10 = _quantile_sorted(xs, 0.1)
    q90 = _quantile_sorted(xs, 0.9)
    return BenfordReport(
        proportions_pct=props,
        ssd=ssd(props),
        q10=q10,
        q90=q90,
        qtm=q90 / q10,
        oom=math.log10(xs[-1] / xs[0]),
        n=len(xs),
        counts=tally.counts,
    )


def _require_positive(values: Sequence[float]) -> None:
    if len(values) == 0:
        raise EmptyDataError("dataset is empty")
    for i, x in enumerate(values):
        if not (x > 0.0) or not math.isfinite(x):
            raise DomainError(f"value at index {i} is not strictly positive: {x!r}")
