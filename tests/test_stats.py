import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from benfordsim import (
    BENFORD_PCT,
    DomainError,
    EmptyDataError,
    analyze,
    earthquake_fixture,
    log_histogram,
    proportions_pct,
    quantile,
    ssd,
    tally_digits,
)

EARTHQUAKE_COUNTS = (15, 8, 6, 4, 4, 0, 2, 1, 0)
EARTHQUAKE_PCT = (37.5, 20.0, 15.0, 10.0, 10.0, 0.0, 5.0, 2.5, 0.0)

positive_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
positive_lists = st.lists(positive_floats, min_size=1, max_size=50)


# --- tallies -----------------------------------------------------------------


def test_tally_earthquake_sample():
    tally = tally_digits(earthquake_fixture())
    assert tally.counts == EARTHQUAKE_COUNTS
    assert tally.total == 40


def test_tally_all_ones():
    tally = tally_digits([1, 1, 1])
    assert tally.counts == (3, 0, 0, 0, 0, 0, 0, 0, 0)


def test_tally_empty():
    tally = tally_digits([])
    assert tally.counts == (0,) * 9
    assert tally.total == 0


def test_tally_rejects_zero_and_names_the_index():
    with pytest.raises(DomainError, match="index 1"):
        tally_digits([1.0, 0.0, 2.0])
    with pytest.raises(DomainError, match="index 2"):
        tally_digits([1.0, 2.0, math.inf])


def test_tally_accepts_negative_values():
    assert tally_digits([-62.97, -1.0]).counts == (1, 0, 0, 0, 0, 1, 0, 0, 0)


# --- proportions -------------------------------------------------------------


def test_proportions_earthquake_sample():
    props = proportions_pct(tally_digits(earthquake_fixture()))
    assert props == pytest.approx(EARTHQUAKE_PCT, abs=1e-12)


def test_proportions_single_digit():
    props = proportions_pct(tally_digits([1, 1, 1]))
    assert props == (100.0,) + (0.0,) * 8


def test_proportions_uniform():
    props = proportions_pct(tally_digits(list(range(1, 10))))
    assert props == pytest.approx((100.0 / 9,) * 9)


def test_proportions_empty_tally_is_an_error():
    with pytest.raises(EmptyDataError):
        proportions_pct(tally_digits([]))


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


def test_quantile_errors():
    with pytest.raises(EmptyDataError):
        quantile([], 0.5)
    with pytest.raises(DomainError):
        quantile([1.0], 1.5)
    with pytest.raises(DomainError):
        quantile([1.0], -0.1)


@given(positive_lists, st.floats(min_value=0.0, max_value=1.0))
def test_quantile_matches_numpy_linear(values, q):
    ours = quantile(values, q)
    theirs = float(np.quantile(np.array(values), q, method="linear"))
    assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-12)


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
    hist = log_histogram([1.0, 10.0, 100.0], bin_width=1.0, origin=0.0)
    assert hist.bins == ((0, 1), (1, 1), (2, 1))


def test_log_histogram_constant_data_single_bin():
    hist = log_histogram([42.0] * 9, bin_width=0.25)
    assert len(hist.bins) == 1
    assert hist.bins[0][1] == 9
    assert hist.core_log_span == pytest.approx(0.0)


def test_log_histogram_rejects_non_positive():
    with pytest.raises(DomainError, match="index 1"):
        log_histogram([1.0, 0.0], bin_width=0.5)
    for bad_width in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="bin width"):
            log_histogram([0.001, 1.0, 5e6], bin_width=bad_width)


@given(positive_lists, st.floats(min_value=0.01, max_value=2.0), st.floats(-3, 3))
def test_log_histogram_partitions_the_data(values, bin_width, origin):
    hist = log_histogram(values, bin_width, origin)
    assert sum(c for _, c in hist.bins) == len(values)
    for x in values:
        b = math.floor((math.log10(x) - origin) / bin_width)
        assert any(b == index for index, _ in hist.bins)


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


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_analyze_names_the_index_of_a_bad_value(bad):
    with pytest.raises(DomainError, match=r"index 2\b"):
        analyze([3.0, 1.0, bad, 2.0, bad])


def test_analyze_reports_a_zero_before_an_earlier_negative():
    # The tally rejects zero, inf and NaN on its way through; a negative value
    # is only seen after the sort.
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
