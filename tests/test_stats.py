import math
import random
import struct
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benfordsim import (
    BENFORD_PCT,
    DomainError,
    EmptyDataError,
    analyze,
    earthquake_fixture,
    first_significant_digit,
    log_histogram,
    ssd,
)
from benfordsim.stats import _quantile, _report

EARTHQUAKE_COUNTS = (15, 8, 6, 4, 4, 0, 2, 1, 0)
EARTHQUAKE_PCT = (37.5, 20.0, 15.0, 10.0, 10.0, 0.0, 5.0, 2.5, 0.0)

positive_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
positive_lists = st.lists(positive_floats, min_size=1, max_size=50)


# --- tallies (fields of analyze) --------------------------------------------


def test_tally_earthquake_sample():
    report = analyze(earthquake_fixture())
    assert report.counts == EARTHQUAKE_COUNTS
    assert report.n == 40


def test_tally_all_ones():
    assert analyze([1, 1, 1]).counts == (3, 0, 0, 0, 0, 0, 0, 0, 0)


def test_tally_empty():
    with pytest.raises(EmptyDataError):
        analyze([])


def test_tally_rejects_zero_and_names_the_index():
    with pytest.raises(DomainError, match="index 1"):
        analyze([1.0, 0.0, 2.0])
    with pytest.raises(DomainError, match="index 2"):
        analyze([1.0, 2.0, math.inf])


@given(st.lists(st.floats(min_value=5e-324, max_value=sys.float_info.max), min_size=1))
def test_tally_matches_the_digit_of_every_value(values):
    digits = Counter(map(first_significant_digit, values))
    assert analyze(values).counts == tuple(digits[d] for d in range(1, 10))


# --- proportions (fields of analyze) -----------------------------------------


def test_proportions_earthquake_sample():
    props = analyze(earthquake_fixture()).proportions_pct
    assert props == pytest.approx(EARTHQUAKE_PCT, abs=1e-12)


def test_proportions_single_digit():
    assert analyze([1, 1, 1]).proportions_pct == (100.0,) + (0.0,) * 8


def test_proportions_uniform():
    props = analyze(list(range(1, 10))).proportions_pct
    assert props == pytest.approx((100.0 / 9,) * 9)


# --- ssd ---------------------------------------------------------------------


def test_ssd_known_vector():
    observed = (29.9, 18.8, 13.5, 9.3, 7.5, 6.2, 5.8, 4.8, 4.2)
    assert ssd(observed) == pytest.approx(3.28, abs=0.01)


def test_ssd_degenerate_all_digit_one():
    assert ssd((100.0,) + (0.0,) * 8) == pytest.approx(5634.0, abs=0.5)


def test_ssd_of_exact_benford_is_zero():
    assert ssd(BENFORD_PCT) == 0.0


def test_ssd_positive_for_any_other_vector():
    perturbed = list(BENFORD_PCT)
    perturbed[0] += 0.5
    perturbed[8] -= 0.5
    assert ssd(perturbed) > 0.0


def test_ssd_requires_nine_entries():
    with pytest.raises(DomainError):
        ssd([10.0] * 8)


# --- quantiles ---------------------------------------------------------------


def quantile(values, q):
    return _quantile(sorted(values), q)


def test_quantile_interpolation_one_to_ten():
    data = list(range(1, 11))
    # h = (n - 1) q + 1 by hand: q=0.5 -> 5.5, q=0.1 -> 1.9, q=0.9 -> 9.1
    assert quantile(data, 0.5) == pytest.approx(5.5)
    assert quantile(data, 0.1) == pytest.approx(1.9)
    assert quantile(data, 0.9) == pytest.approx(9.1)


def test_quantile_extremes_and_singleton():
    assert quantile([3.5], 0.0) == 3.5
    assert quantile([3.5], 0.77) == 3.5
    assert quantile([2, 9, 4], 0.0) == 2
    assert quantile([2, 9, 4], 1.0) == 9


@given(positive_lists, st.floats(min_value=0.0, max_value=1.0))
def test_quantile_matches_numpy_linear(values, q):
    ours = quantile(values, q)
    theirs = float(np.quantile(np.array(values), q, method="linear"))
    assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-12)
    report = analyze(values)
    assert (report.q10, report.q90) == (quantile(values, 0.1), quantile(values, 0.9))


@given(positive_lists, st.floats(0, 1), st.floats(0, 1))
def test_quantile_monotone_in_q(values, q1, q2):
    lo, hi = sorted((q1, q2))
    assert quantile(values, lo) <= quantile(values, hi)


# --- qtm / oom (fields of analyze) -------------------------------------------


def test_qtm_constant_data_is_one():
    assert analyze([7.0] * 25).qtm == 1.0


def test_qtm_known_percentiles():
    # 11 sorted values put the 10th percentile exactly at index 1 and the
    # 90th exactly at index 9.
    data = [0.001, 0.0115, 0.1, 0.2, 0.4, 0.8, 1.2, 1.9, 2.3, 2.78, 50.0]
    assert analyze(data).qtm == pytest.approx(2.78 / 0.0115, rel=1e-12)
    assert analyze(data).qtm == pytest.approx(241.7, abs=0.05)


def test_qtm_one_to_ten():
    assert analyze(list(range(1, 11))).qtm == pytest.approx(9.1 / 1.9, rel=1e-12)


def test_qtm_rejects_non_positive_and_empty():
    with pytest.raises(DomainError):
        analyze([1.0, -2.0, 3.0])
    with pytest.raises(DomainError):
        analyze([0.0])
    with pytest.raises(EmptyDataError):
        analyze([])


def test_oom_examples():
    assert analyze([1.0, 1000.0]).oom == pytest.approx(3.0)
    assert analyze([5.0, 5.0]).oom == 0.0
    assert analyze([0.00121, 0.5, 1.1, 3.09]).oom == pytest.approx(math.log10(3.09 / 0.00121))
    assert analyze([0.00121, 0.5, 1.1, 3.09]).oom == pytest.approx(3.41, abs=0.005)


@given(positive_lists)
def test_qtm_at_least_one_and_dominated_by_oom(values):
    report = analyze(values)
    assert report.qtm >= 1.0
    assert report.oom >= math.log10(report.qtm) - 1e-12


# --- log histogram -----------------------------------------------------------


def test_log_histogram_decades():
    assert log_histogram([1.0, 10.0, 100.0], bin_width=1.0) == [(0, 1), (1, 1), (2, 1)]


def test_log_histogram_constant_data_single_bin():
    assert log_histogram([42.0] * 9, bin_width=0.25) == [(6, 9)]
    report = analyze([42.0] * 9)
    assert math.log10(report.q90) - math.log10(report.q10) == 0.0


def test_log_histogram_rejects_non_positive():
    with pytest.raises(DomainError, match="index 1"):
        log_histogram([1.0, 0.0], bin_width=0.5)
    with pytest.raises(DomainError, match="index 2"):
        log_histogram([1.0, 2, 10**400], bin_width=0.5)
    with pytest.raises(DomainError, match="index 1"):
        log_histogram([1.0, 10**5000], bin_width=0.25)
    for bad_width in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="bin width"):
            log_histogram([0.001, 1.0, 5e6], bin_width=bad_width)


def test_log_histogram_rejects_a_bad_value_in_the_words_of_analyze():
    # Both name the first zero, inf or NaN before any earlier negative, and
    # inf is not called "not strictly positive".
    with pytest.raises(DomainError) as exc:
        log_histogram([1.0, math.inf], 0.5)
    assert str(exc.value) == "value at index 1 has no first significant digit: inf"
    for values in ([1.0, math.inf], [2.0, -5.0, 1.0, 0.0], [3.0, -1.0], [1.0, math.nan], [1.0, 10**400]):
        with pytest.raises(DomainError) as from_histogram:
            log_histogram(values, 0.5)
        with pytest.raises(DomainError) as from_analyze:
            analyze(values)
        assert str(from_histogram.value) == str(from_analyze.value)
        # An iterator is read once, so the bad value is still there to name.
        for read in (lambda: log_histogram(iter(values), 0.5), lambda: analyze(iter(values))):
            with pytest.raises(DomainError) as from_iterator:
                read()
            assert str(from_iterator.value) == str(from_analyze.value)


def test_log_histogram_admits_exactly_the_widths_that_give_every_double_a_bin():
    # |log10 x| <= 323.31 for every positive double, so a width is admitted
    # when 323.31 / width is finite, whatever the data.
    extremes = [5e-324, sys.float_info.max]
    assert [c for _, c in log_histogram(extremes, bin_width=2e-306)] == [1, 1]
    for tiny in (1e-307, 1e-310, 5e-324):
        for values in ([5e-324], [1.0, 10.0]):
            with pytest.raises(DomainError, match="bin width"):
                log_histogram(values, bin_width=tiny)


@given(positive_lists, st.floats(min_value=0.01, max_value=2.0))
def test_log_histogram_partitions_the_data(values, bin_width):
    bins = log_histogram(values, bin_width)
    assert sum(c for _, c in bins) == len(values)
    for x in values:
        b = math.floor(math.log10(x) / bin_width)
        assert any(b == index for index, _ in bins)


def histogram_by_the_value(values, bin_width):
    """``log_histogram`` of good ``values`` as a per-value loop over a dict."""
    counts = {}
    for x in values:
        b = math.floor(math.log10(x) / bin_width)
        counts[b] = counts.get(b, 0) + 1
    return sorted(counts.items())


# Any positive double, drawn as a bit pattern so that subnormals are as likely
# as any other exponent, plus the two ends; ints and Fractions beside them.
positive_doubles = st.one_of(
    st.integers(1, 0x7FEFFFFFFFFFFFFF).map(lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]),
    st.sampled_from([5e-324, sys.float_info.max]),
)
good_values = st.one_of(
    positive_doubles,
    st.integers(1, 10**308),
    st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30)),
)
good_lists = st.lists(good_values, min_size=1, max_size=40)
histogram_widths = st.floats(min_value=2e-306, max_value=10.0)
bad_values = {
    "zero": st.just(0.0),
    "minus_zero": st.just(-0.0),
    "inf": st.just(math.inf),
    "minus_inf": st.just(-math.inf),
    "nan": st.just(math.nan),
    "10**400": st.just(10**400),
    "tiny_fraction": st.just(Fraction(1, 10**400)),
    "negative": good_values.map(lambda x: -x),
}


@given(good_lists, histogram_widths)
def test_log_histogram_gives_the_bins_of_the_per_value_loop(values, bin_width):
    expected = histogram_by_the_value(values, bin_width)
    assert log_histogram(values, bin_width) == expected
    assert log_histogram(iter(values), bin_width) == expected


@pytest.mark.parametrize("bad", bad_values.values(), ids=bad_values.keys())
@settings(max_examples=50)
@given(values=good_lists, at=st.integers(0, 40), bin_width=histogram_widths, data=st.data())
def test_log_histogram_rejects_a_bad_value_anywhere_in_the_words_of_analyze(bad, values, at, bin_width, data):
    values.insert(at % (len(values) + 1), data.draw(bad))
    with pytest.raises(DomainError) as from_analyze:
        analyze(values)
    for given_values in (values, iter(values)):
        with pytest.raises(DomainError) as from_histogram:
            log_histogram(given_values, bin_width)
        assert str(from_histogram.value) == str(from_analyze.value)


def test_log_histogram_takes_decimals():
    assert log_histogram([Decimal("1.5"), Decimal("2"), Decimal("250")], 1.0) == [(0, 2), (2, 1)]
    # A Decimal cannot be ordered against a NaN, and the NaN is still named.
    with pytest.raises(DomainError, match=r"^value at index 1 has no first significant digit: nan$"):
        log_histogram([Decimal("1.5"), math.nan, Decimal("2")], 1.0)


@pytest.mark.parametrize("tiny", [Fraction(1, 10**400), Fraction(-1, 10**400), Decimal("1e-400")])
def test_a_value_that_rounds_to_zero_as_a_double_is_out_of_range(tiny):
    message = "value at index 1 has no first significant digit: a magnitude below the smallest double"
    values = [2.0, tiny, -3.0, 0.5]
    with pytest.raises(DomainError) as from_histogram:
        log_histogram(values, 1.0)
    assert str(from_histogram.value) == message
    for data in (values, [tiny], [0.5, tiny]):
        with pytest.raises(DomainError) as from_analyze:
            analyze(data)
        assert str(from_analyze.value) == message.replace("index 1", f"index {data.index(tiny)}")
    # The least double, and a Fraction that rounds up to it, are in range.
    assert log_histogram([5e-324, Fraction(3, 10**324)], 1.0) == [(-324, 2)]


# --- analyze -----------------------------------------------------------------


def test_analyze_earthquake_sample():
    report = analyze(earthquake_fixture())
    assert report.n == 40
    assert report.counts == EARTHQUAKE_COUNTS
    assert report.proportions_pct == pytest.approx(EARTHQUAKE_PCT, abs=1e-12)
    # Independent recomputation of the SSD from the exact proportions.
    expected_ssd = sum(
        (obs - 100.0 * math.log10(1 + 1 / d)) ** 2
        for d, obs in zip(range(1, 10), EARTHQUAKE_PCT)
    )
    assert report.ssd == pytest.approx(expected_ssd, rel=1e-12)
    assert report.ssd == pytest.approx(144.3767, abs=0.001)


def test_analyze_constant_data():
    report = analyze([1.0] * 50)
    assert report.qtm == 1.0
    assert report.oom == 0.0
    assert report.ssd == pytest.approx(5634.0, abs=0.5)


def test_analyze_synthetic_benford_counts():
    values = []
    for d, count in zip(range(1, 10), (301, 176, 125, 97, 79, 67, 58, 51, 46)):
        values.extend([float(d)] * count)
    report = analyze(values)
    assert report.n == 1000
    assert report.ssd < 0.1


def test_analyze_errors():
    with pytest.raises(EmptyDataError):
        analyze([])
    with pytest.raises(DomainError):
        analyze([1.0, -1.0])


@pytest.mark.parametrize(
    "bad",
    [
        0.0,
        -1.0,
        math.inf,
        math.nan,
        pytest.param(10**400, id="10**400"),
        pytest.param(10**5000, id="10**5000"),
    ],
)
def test_analyze_names_the_index_of_a_bad_value(bad):
    with pytest.raises(DomainError, match=r"index 2\b"):
        analyze([3.0, 1.0, bad, 2.0, bad])


def test_analyze_admits_ints_whose_sum_does_not_fit_in_a_double():
    report = analyze([10**308, 10**308, 1.7e308])
    assert report.n == 3
    assert report.counts == (3, 0, 0, 0, 0, 0, 0, 0, 0)
    assert analyze([10**308] * 3).counts == (3, 0, 0, 0, 0, 0, 0, 0, 0)  # no float at all
    with pytest.raises(DomainError, match=r"index 2\b.*nan"):
        analyze([10**308, 10**308, math.nan, 1.7e308])


def test_analyze_names_the_first_value_a_float_cannot_be_added_to():
    with pytest.raises(DomainError) as exc:
        analyze([Decimal("1.5"), Decimal("2")])
    assert str(exc.value) == "value at index 0 cannot be added to a float: Decimal('1.5')"
    with pytest.raises(DomainError, match=r"^value at index 2 cannot be added to a float: Decimal\('3'\)$"):
        analyze(iter([2.0, Fraction(1, 3), Decimal("3"), 4]))
    # A value with no first digit, then a negative, is still named first.
    with pytest.raises(DomainError, match=r"^value at index 1 has no first significant digit: Decimal\('0'\)$"):
        analyze([Decimal("1.5"), Decimal("0"), Decimal("-2")])
    with pytest.raises(DomainError, match=r"^value at index 2 is not strictly positive: Decimal\('-2'\)$"):
        analyze([Decimal("1.5"), Decimal("2"), Decimal("-2")])
    # A Decimal cannot be ordered against a NaN, and the NaN is still named.
    with pytest.raises(DomainError, match=r"^value at index 1 has no first significant digit: nan$"):
        analyze([Decimal("1.5"), math.nan, Decimal("2")])
    # A string cannot be ordered against a float either.
    with pytest.raises(DomainError, match=r"^value at index 1 cannot be added to a float: '2'$"):
        analyze([1.5, "2"])
    # A complex can be added to a float but has no order: its TypeError stands.
    with pytest.raises(TypeError, match="complex"):
        analyze([1j])
    # Floats, ints, Fractions, bools and numpy scalars can all be added to a float.
    assert analyze([1.5, 2, Fraction(1, 3), True, np.float64(7.0), np.int64(9)]).n == 6


def test_analyze_finds_a_nan_that_sorts_between_good_values():
    values = [1.0, 2.0, math.nan, 3.0, 4.0]
    assert math.isnan(sorted(values)[2])
    with pytest.raises(DomainError, match=r"index 2\b.*nan"):
        analyze(values)


@pytest.mark.parametrize(
    "values, shown",
    [([10**400, math.nan, 1.0], "0 .*a magnitude beyond"), ([1.0, math.nan, -(10**400)], "1 .*nan")],
    ids=["huge_int_first", "huge_negative_int_last"],
)
def test_analyze_finds_a_nan_that_leaves_a_huge_int_short_of_the_end(values, shown):
    # The NaN stops the sort, so the ends pass and the sum meets an int no double holds.
    xs = sorted(values)
    assert 0.0 < xs[0] and xs[-1] <= sys.float_info.max
    with pytest.raises(DomainError, match=f"index {shown}"):
        analyze(values)


# Pools a dataset draws from: few values (ties everywhere, at the q10/q90
# ranks and at the ends), subnormals next to normal values and the largest
# double, and one value. Every fourth dataset is drawn over the whole range
# of doubles instead.
REPORT_POOLS = [
    [1.5, 2.0, 2.0, 3.0, 7.25],
    [5e-324, 1e-323, 2.2250738585072014e-308, 3e-310, 1e-300, 1.0, 1.7976931348623157e308],
    [1.0],
]


def random_dataset(rng, case):
    """1 to 300 values drawn from ``REPORT_POOLS[case % 4]``, or over the whole
    range of doubles when ``case % 4 == 3``."""
    pool = REPORT_POOLS[case % 4] if case % 4 < 3 else None
    n = rng.choice([1, 2, 3, 9, 10, 11, 41, rng.randint(1, 300)])
    if pool is None:
        return [math.ldexp(rng.random() + 0.5, rng.randrange(-1073, 1024)) for _ in range(n)]
    return [rng.choice(pool) for _ in range(n)]


def test_report_of_the_values_sorted_by_numpy_is_their_analysis():
    # A large file's values reach _report as a memoryview of doubles that
    # numpy sorted, not as a list that list.sort sorted.
    rng = random.Random(505)
    for case in range(300):
        values = random_dataset(rng, case)
        doubles = np.array(values)
        doubles.sort()
        assert _report(memoryview(doubles)) == analyze(values), values
    with pytest.raises(EmptyDataError):
        _report(memoryview(np.array([])))


def test_analyze_reports_a_zero_before_an_earlier_negative():
    # Zero, inf and NaN have no first digit and are reported before any
    # negative value, wherever they stand.
    with pytest.raises(DomainError, match=r"index 3\b.*0\.0"):
        analyze([2.0, -5.0, 1.0, 0.0])


@given(positive_lists, st.integers(min_value=-6, max_value=6))
def test_analyze_scale_invariance_of_dispersion(values, k):
    scale = 10.0**k
    scaled = [v * scale for v in values]
    base = analyze(values)
    moved = analyze(scaled)
    assert moved.qtm == pytest.approx(base.qtm, rel=1e-9)
    assert moved.oom == pytest.approx(base.oom, abs=1e-9)
    assert moved.q10 == pytest.approx(base.q10 * scale, rel=1e-9)
    assert moved.q90 == pytest.approx(base.q90 * scale, rel=1e-9)


_safe_mantissas = st.floats(min_value=1.0, max_value=9.999).filter(
    lambda m: min(m - math.floor(m), math.ceil(m) - m) > 1e-6
)


@given(
    st.lists(st.tuples(_safe_mantissas, st.integers(-6, 6)), min_size=1, max_size=30),
    st.integers(min_value=-6, max_value=6),
)
def test_analyze_scale_invariance_of_digit_fields(pairs, k):
    # Rescale in decimal (exactly) so leading digits provably cannot move.
    values = [float(f"{m!r}e{e}") for m, e in pairs]
    scaled = [float(f"{m!r}e{e + k}") for m, e in pairs]
    base = analyze(values)
    moved = analyze(scaled)
    assert moved.proportions_pct == base.proportions_pct
    assert moved.ssd == base.ssd
