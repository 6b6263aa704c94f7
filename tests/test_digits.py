import math
import random
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from benfordsim import (
    DomainError,
    benford_distribution,
    benford_expected,
    first_significant_digit,
)

# Figure-of-record rounded percentages for digits 1..9.
ROUNDED_PCT = (30.1, 17.6, 12.5, 9.7, 7.9, 6.7, 5.8, 5.1, 4.6)


def string_oracle(x: float) -> int:
    """Independent extraction: render with 17 significant digits, take the
    first nonzero character."""
    for ch in f"{abs(x):.16e}":
        if ch in "123456789":
            return int(ch)
    raise AssertionError(f"no nonzero digit in rendering of {x!r}")


@pytest.mark.parametrize(
    "x, expected",
    [
        (613, 6),
        (0.0002867, 2),
        (-62.97, 6),
        (1.0, 1),
        (7, 7),
        (1653832, 1),
        (0.456398, 4),
        (567.34, 5),
        (0.0367, 3),
        (9.999, 9),
        (1024.0, 1),
        # Within rounding of a digit boundary where 10.0**k is inexact
        # (|k| > 22) or the subnormal lift rounds.
        (4.9999999999999997e-287, 4),
        (9.999999999999999e-307, 9),
        (1e-305, 9),
        (1e-308, 9),
    ],
)
def test_known_digits(x, expected):
    assert first_significant_digit(x) == expected


@pytest.mark.parametrize("x", [0, 0.0, -0.0, math.inf, -math.inf, math.nan])
def test_invalid_inputs_raise(x):
    with pytest.raises(DomainError):
        first_significant_digit(x)


def test_subnormals_are_accepted():
    # 5e-324 parses to the smallest subnormal, whose decimal expansion
    # starts with 4; 1e-310 parses to a subnormal starting with 9.
    assert first_significant_digit(5e-324) == 4
    assert first_significant_digit(1e-310) == 9
    assert first_significant_digit(-5e-324) == 4


def test_extremes_of_the_double_range():
    assert first_significant_digit(1.7976931348623157e308) == 1
    assert first_significant_digit(2.2250738585072014e-308) == 2


def test_exact_on_every_digit_boundary_neighbour():
    # Every double within 8 ulps of d * 10**k over the whole double range.
    cases = set()
    for k in range(-324, 309):
        for d in range(1, 10):
            centre = float(f"{d}e{k}")
            if centre == 0.0 or math.isinf(centre):
                continue
            below = above = centre
            cases.add(centre)
            for _ in range(8):
                below = math.nextafter(below, 0.0)
                above = math.nextafter(above, math.inf)
                cases.update((below, above))
    cases.discard(0.0)
    cases.discard(math.inf)
    assert len(cases) > 90_000
    # The oracle is the leading digit of each double's exact decimal expansion.
    wrong = [x for x in cases if first_significant_digit(x) != Decimal(x).as_tuple().digits[0]]
    assert wrong == []


def test_oracle_agreement_on_log_uniform_sample():
    rng = random.Random(987654321)
    for _ in range(10_000):
        x = 10.0 ** rng.uniform(-12.0, 12.0)
        assert first_significant_digit(x) == string_oracle(x)


# Mantissas away from integer boundaries, where one part-per-1e12 of float
# noise cannot flip the leading digit.
_safe_mantissas = st.floats(min_value=1.0, max_value=9.999).filter(
    lambda m: min(m - math.floor(m), math.ceil(m) - m) > 1e-6
)


@given(m=_safe_mantissas, k=st.integers(min_value=-15, max_value=15))
def test_scale_invariance(m, k):
    scaled = float(f"{m!r}e{k}")
    assert first_significant_digit(scaled) == first_significant_digit(m) == int(m)


@given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != 0.0))
def test_sign_invariance(x):
    assert first_significant_digit(x) == first_significant_digit(-x)


@given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != 0.0))
def test_result_is_always_a_digit(x):
    assert first_significant_digit(x) in range(1, 10)


def test_benford_expected_endpoints():
    assert benford_expected(1) == pytest.approx(0.30103, abs=5e-6)
    assert benford_expected(9) == pytest.approx(0.04576, abs=5e-6)


@pytest.mark.parametrize("d", [0, 10, -1])
def test_benford_expected_rejects_non_digits(d):
    with pytest.raises(DomainError):
        benford_expected(d)


def test_benford_distribution_matches_rounded_table():
    dist = benford_distribution()
    assert len(dist) == 9
    for p, rounded in zip(dist, ROUNDED_PCT):
        assert abs(100.0 * p - rounded) < 0.05


def test_benford_distribution_sums_to_one():
    assert math.fsum(benford_distribution()) == pytest.approx(1.0, abs=1e-12)


def test_benford_distribution_strictly_decreasing():
    dist = benford_distribution()
    assert all(a > b for a, b in zip(dist, dist[1:]))
