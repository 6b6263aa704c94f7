import math
import random
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import benfordsim
from benfordsim import (
    BENFORD_PCT,
    DomainError,
    analyze,
    first_significant_digit,
    run_experiment,
    scheme_preset,
)
from benfordsim import digits, stats

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
        # Within rounding of a digit boundary.
        (4.9999999999999997e-287, 4),
        (9.999999999999999e-307, 9),
        (1e-305, 9),
        (1e-308, 9),
        # No double equals 9 * 10**22: the literal 9e22 parses just below it,
        # while the int itself keeps its digit.
        (9e22, 8),
        (9 * 10**22, 9),
        (10**308, 1),
    ],
)
def test_known_digits(x, expected):
    assert first_significant_digit(x) == expected


@pytest.mark.parametrize(
    "x",
    [
        0,
        0.0,
        -0.0,
        math.inf,
        -math.inf,
        math.nan,
        # Ints beyond the largest double.
        pytest.param(9 * 10**400, id="9*10**400"),
        pytest.param(-(10**400), id="-10**400"),
    ],
)
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


def boundary_neighbours():
    """Every double within 8 ulps of d * 10**k over the whole double range."""
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
    return sorted(cases)


def decimal_digit(x):
    """The leading digit of the exact decimal expansion of a positive double."""
    return Decimal(x).as_tuple().digits[0]


def test_exact_on_every_digit_boundary_neighbour():
    wrong = [x for x in boundary_neighbours() if first_significant_digit(x) != decimal_digit(x)]
    assert wrong == []


def test_analyze_counts_every_digit_boundary_neighbour_exactly():
    values = boundary_neighbours()
    expected = Counter(decimal_digit(x) for x in values)
    random.Random(5).shuffle(values)
    assert analyze(values).counts == tuple(expected[d] for d in range(1, 10))


def numpy_sorted(values):
    """``values`` sorted by numpy, as the ``memoryview`` of doubles that the
    report of a large ``analyze`` file tallies."""
    xs = np.array(values, dtype=np.float64)
    xs.sort()
    return memoryview(xs)


def test_the_numpy_tally_counts_every_digit_boundary_neighbour_exactly():
    values = boundary_neighbours()
    expected = Counter(decimal_digit(x) for x in values)
    random.Random(6).shuffle(values)
    assert digits.tally_digits(numpy_sorted(values)) == tuple(expected[d] for d in range(1, 10))


def test_the_numpy_tally_is_exact_where_a_boundary_is_no_double():
    # No double equals 10**23: the nearest, 9.999999999999999e22 (whose repr
    # is 1e+23), lies just below it and the next, 1.0000000000000001e23, just
    # above. The int 10**23 lies below the latter, so only doubles may be
    # searched against the table of doubles; a list keeps the int's digit.
    below, above = 9.999999999999999e22, 1.0000000000000001e23
    assert below < 10**23 < above == math.nextafter(below, math.inf)
    nine_one_one = (2, 0, 0, 0, 0, 0, 0, 0, 1)
    assert digits.tally_digits(numpy_sorted([below, above, sys.float_info.max])) == nine_one_one
    assert digits.tally_digits([below, 10**23, above]) == nine_one_one


@pytest.mark.parametrize("miss", [-1, 1])
def test_digits_stay_exact_when_log10_misses_the_decade(monkeypatch, miss):
    # log10 only picks the decade to consult; a libm whose log10 lands one
    # decade off, either way, must change no digit and no tally.
    values = boundary_neighbours()[::7]
    monkeypatch.setattr(digits.math, "log10", lambda x: Decimal(x).adjusted() + miss + 0.5)
    digits._decade.cache_clear()
    assert [first_significant_digit(x) for x in values] == [decimal_digit(x) for x in values]
    for x in values[::5]:
        counts = [0] * 9
        counts[decimal_digit(x) - 1] = 2
        assert digits.tally_digits([x, x]) == tuple(counts)
    for x in values[::25]:
        counts = [0] * 9
        counts[decimal_digit(x) - 1] = 2
        assert digits.tally_digits(numpy_sorted([x, x])) == tuple(counts)
    expected = Counter(decimal_digit(x) for x in values)
    assert digits.tally_digits(values) == tuple(expected[d] for d in range(1, 10))
    assert digits.tally_digits(numpy_sorted(values)) == tuple(expected[d] for d in range(1, 10))


def decade_built_per_digit(k):
    """``_decade(k)`` as it was built with the power of ten raised once per digit."""
    bounds = []
    for d in range(1, 10):
        if k >= 0:
            b = d * 10**k
            if b <= sys.float_info.max and float(b) == b:
                b = float(b)
        else:
            b = float(f"{d}e{k}")
            num, den = b.as_integer_ratio()
            if num * 10**-k < d * den:
                b = math.nextafter(b, math.inf)
        bounds.append(b)
    return bounds


def test_every_decade_table_equals_the_per_digit_build():
    # The power of ten is raised once per decade; no entry of any table of the
    # double range may change value or type.
    for k in range(-324, 309):
        expected = decade_built_per_digit(k)
        assert [(type(b), b) for b in digits._decade.__wrapped__(k)] == [(type(b), b) for b in expected], k
        least = []
        for b in expected:
            x = float(b) if b <= sys.float_info.max else math.inf
            least.append(math.nextafter(x, math.inf) if x < b else x)
        assert list(digits._least_doubles.__wrapped__(k)) == least, k


def test_import_builds_no_table_and_loads_no_decimal():
    # Each decade's boundaries wait for the first digit lookup that needs them.
    code = (
        "import sys, benfordsim; from benfordsim import digits; "
        "print('decimal' in sys.modules, digits._decade.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "0"]


def test_analysis_builds_only_the_decades_the_data_span():
    # All 633 decades of the double range cost milliseconds; a preset's
    # final values span about ten. A list builds no table of doubles.
    values, _ = run_experiment(scheme_preset("Small_100", 1))
    spanned = math.floor(math.log10(max(values))) - math.floor(math.log10(min(values))) + 1
    assert spanned < 20
    doubles_tables = []
    for report in (lambda: analyze(values), lambda: stats._report(numpy_sorted(values))):
        digits._decade.cache_clear()
        digits._least_doubles.cache_clear()
        report()
        first_significant_digit(values[0])
        assert 0 < digits._decade.cache_info().currsize <= spanned + 2
        doubles_tables.append(digits._least_doubles.cache_info().currsize)
    assert doubles_tables[0] == 0 < doubles_tables[1] <= spanned + 2


def test_import_loads_no_dataclasses_json_or_resources():
    # -S keeps site's .pth files from preloading modules; each of these costs
    # milliseconds of every run, so only the code that needs one imports it.
    src = str(Path(benfordsim.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import benfordsim; "
        "print([m for m in ('dataclasses', 'inspect', 'json', 'importlib.resources', 'typing') "
        "if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


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
    assert BENFORD_PCT[0] == pytest.approx(30.103, abs=5e-4)
    assert BENFORD_PCT[8] == pytest.approx(4.576, abs=5e-4)


def test_benford_distribution_matches_rounded_table():
    assert len(BENFORD_PCT) == 9
    for pct, rounded in zip(BENFORD_PCT, ROUNDED_PCT):
        assert abs(pct - rounded) < 0.05


def test_benford_distribution_sums_to_one():
    assert math.fsum(BENFORD_PCT) == pytest.approx(100.0, abs=1e-10)


def test_benford_distribution_strictly_decreasing():
    assert all(a > b for a, b in zip(BENFORD_PCT, BENFORD_PCT[1:]))
