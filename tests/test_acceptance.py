"""End-to-end acceptance checks at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Statistical criteria use ten fixed seeds per scheme; exact
criteria pin every deterministic number.
"""

import cmath
import math
import random
import statistics

import pytest

from benfordsim import (
    BENFORD_PCT,
    analyze,
    earthquake_fixture,
    first_significant_digit,
    render_table,
    run_experiment,
    scheme_preset,
    ssd,
)
from benfordsim.cli import main as cli_main
from benfordsim.experiments import ExperimentConfig
from benfordsim.process import run

SEEDS = tuple(range(1, 11))


def criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def median(xs):
    return statistics.median(xs)


# --- shared scheme runs (ten seeds each) --------------------------------------


@pytest.fixture(scope="module")
def scheme_a_runs():
    return [run_experiment(scheme_preset("A", seed=s)) for s in SEEDS]


@pytest.fixture(scope="module")
def scheme_b_runs():
    return [run_experiment(scheme_preset("B", seed=s)) for s in SEEDS]


@pytest.fixture(scope="module")
def scheme_c_runs():
    return [run_experiment(scheme_preset("C", seed=s)) for s in SEEDS]


@pytest.fixture(scope="module")
def gradual_a_runs():
    return [run_experiment(scheme_preset("Gradual_A", seed=s)) for s in SEEDS]


@pytest.fixture(scope="module")
def small_100_runs():
    return [run_experiment(scheme_preset("Small_100", seed=s)) for s in SEEDS]


# --- exact, deterministic ------------------------------------------------------


def test_criterion_01_degenerate_ssd():
    value = ssd((100.0,) + (0.0,) * 8)
    criterion(
        1,
        "SSD of the all-digit-1 vector is 5634 within 0.5",
        abs(value - 5634.0) <= 0.5,
        f"ssd={value:.4f}",
    )


def test_criterion_02_known_ssd_vector():
    value = ssd((29.9, 18.8, 13.5, 9.3, 7.5, 6.2, 5.8, 4.8, 4.2))
    criterion(
        2,
        "SSD of the worked nine-digit vector is 3.28 within 0.01",
        abs(value - 3.28) <= 0.01,
        f"ssd={value:.4f}",
    )


def test_criterion_03_earthquake_sample():
    data = earthquake_fixture()
    report = analyze(data)
    expected_props = (37.5, 20.0, 15.0, 10.0, 10.0, 0.0, 5.0, 2.5, 0.0)
    ok = (
        len(data) == 40
        and report.counts == (15, 8, 6, 4, 4, 0, 2, 1, 0)
        and all(abs(p - e) < 1e-9 for p, e in zip(report.proportions_pct, expected_props))
    )
    criterion(
        3,
        "bundled 40-value sample tallies to {15,8,6,4,4,0,2,1,0} with the exact proportions",
        ok,
        f"counts={report.counts}",
    )


def test_criterion_04_benford_vector():
    rounded = (30.1, 17.6, 12.5, 9.7, 7.9, 6.7, 5.8, 5.1, 4.6)
    pct = BENFORD_PCT
    worst = max(abs(p - r) for p, r in zip(pct, rounded))
    total = math.fsum(pct)
    ok = worst < 0.05 and abs(total - 100.0) < 1e-9
    criterion(
        4,
        "Benford percentages match the rounded table within 0.05 and sum to 100",
        ok,
        f"worst gap={worst:.4f}, sum={total!r}",
    )


def test_criterion_05_digit_extraction_oracle():
    def string_oracle(x):
        for ch in f"{abs(x):.16e}":
            if ch in "123456789":
                return int(ch)
        raise AssertionError

    rng = random.Random(20120613)
    mismatches = 0
    for _ in range(100_000):
        x = 10.0 ** rng.uniform(-12.0, 12.0)
        if first_significant_digit(x) != string_oracle(x):
            mismatches += 1
    criterion(
        5,
        "numeric digit extraction matches the 17-digit string oracle on 1e5 log-uniform values",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


# --- property-based, seeded ----------------------------------------------------


def test_criterion_06_conservation_and_count():
    gen = random.Random(0xC0FFEE)
    failures = []
    for case in range(50):
        ball_count = gen.randint(1, 3000)
        cycles = gen.randint(0, 3 * ball_count)
        initial_value = 10.0 ** gen.uniform(-3.0, 3.0)
        ratio = None if case % 2 == 0 else gen.uniform(0.05, 0.95)
        marks = sorted({0, cycles, gen.randint(0, cycles), gen.randint(0, cycles)})
        total = ball_count * initial_value

        values, rng, done = [initial_value] * ball_count, random.Random(gen.getrandbits(63)), 0
        for cycle_no in marks:
            run(values, ratio, rng, cycle_no - done)
            done = cycle_no
            if len(values) != ball_count:
                failures.append((case, cycle_no, "count", len(values)))
            drift = abs(math.fsum(values) - total) / total
            if drift >= 1e-9:
                failures.append((case, cycle_no, "drift", drift))
    criterion(
        6,
        "50 random configs keep count == L and relative drift < 1e-9 at every checkpoint",
        not failures,
        f"failures={failures[:3]}",
    )


def test_criterion_07_determinism(tmp_path):
    config = ExperimentConfig(
        ball_count=300,
        initial_value=1.0,
        cycles=900,
        ratio=None,
        seed=424242,
        checkpoints=(0, 450, 900),
    )
    values_a, records_a = run_experiment(config)
    values_b, records_b = run_experiment(config)
    same_api = values_a == values_b and render_table(records_a) == render_table(records_b)

    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    argv = ["run", "--preset", "Small_100", "--seed", "5", "--format", "csv"]
    code1 = cli_main(argv + ["--out", str(out1)])
    code2 = cli_main(argv + ["--out", str(out2)])
    same_cli = code1 == code2 == 0 and out1.read_bytes() == out2.read_bytes()

    criterion(
        7,
        "identical seed gives identical final values and identical CSV bytes",
        same_api and same_cli,
        f"api={same_api}, cli={same_cli}",
    )


def test_criterion_08_single_ball_stationarity():
    ok = True
    for ratio in (None, 0.5):
        ok = ok and run([1.0], ratio, random.Random(13), 1000) == [1.0]
    criterion(8, "a single-ball system is left exactly {V} after 1000 cycles", ok)


# --- statistical, ten seeds per scheme ------------------------------------------


def test_criterion_09_scheme_a(scheme_a_runs):
    ssds = [records[-1].ssd for _, records in scheme_a_runs]
    qtms = [records[-1].qtm for _, records in scheme_a_runs]
    ok = median(ssds) < 15.0 and max(ssds) < 50.0 and median(qtms) > 500.0
    criterion(
        9,
        "scheme A: median final SSD < 15, every seed < 50, median final QTM > 500",
        ok,
        f"ssd med={median(ssds):.2f} max={max(ssds):.2f}, qtm med={median(qtms):.0f}",
    )


def test_criterion_10_scheme_b(scheme_b_runs):
    ssds = [records[-1].ssd for _, records in scheme_b_runs]
    qtms = [records[-1].qtm for _, records in scheme_b_runs]
    ok = median(ssds) < 20.0 and median(qtms) > 100.0
    criterion(
        10,
        "scheme B: median final SSD < 20 and median final QTM > 100",
        ok,
        f"ssd med={median(ssds):.2f}, qtm med={median(qtms):.0f}",
    )


def test_criterion_11_scheme_c(scheme_c_runs):
    ssds = [records[-1].ssd for _, records in scheme_c_runs]
    qtms = [records[-1].qtm for _, records in scheme_c_runs]
    ok = median(ssds) < 15.0 and median(qtms) > 300.0
    criterion(
        11,
        "scheme C: median final SSD < 15 and median final QTM > 300",
        ok,
        f"ssd med={median(ssds):.2f}, qtm med={median(qtms):.0f}",
    )


def test_criterion_12_convergence_threshold(gradual_a_runs):
    by_cycle = {}
    for _, records in gradual_a_runs:
        for r in records:
            by_cycle.setdefault(r.cycle, []).append(r)

    zero_ok = all(abs(r.ssd - 5634.0) <= 0.5 and r.qtm == 1.0 for r in by_cycle[0])
    late_cycles = [c for c in by_cycle if c >= 4000]
    late_medians = {c: median([r.ssd for r in by_cycle[c]]) for c in late_cycles}
    settled = all(m < 25.0 for m in late_medians.values())
    qtm_4000 = median([r.qtm for r in by_cycle[4000]])
    ok = zero_ok and settled and qtm_4000 > 100.0
    criterion(
        12,
        "staged scheme A: exact degenerate start, median SSD < 25 from cycle 4000 on, QTM(4000) > 100",
        ok,
        f"late ssd medians={ {c: round(m, 2) for c, m in sorted(late_medians.items())} }, "
        f"qtm(4000)={qtm_4000:.0f}",
    )


def test_criterion_13_small_system_partial_convergence(small_100_runs):
    by_cycle = {}
    for _, records in small_100_runs:
        for r in records:
            by_cycle.setdefault(r.cycle, []).append(r)

    late_cycles = [c for c in by_cycle if c > 300]
    late_medians = {c: median([r.ssd for r in by_cycle[c]]) for c in late_cycles}
    band_ok = all(10.0 < m < 300.0 for m in late_medians.values())
    final_qtm = median([records[-1].qtm for _, records in small_100_runs])
    ok = band_ok and final_qtm > 100.0
    criterion(
        13,
        "100-ball runs: median SSD beyond cycle 300 stays in (10, 300), final median QTM > 100",
        ok,
        f"ssd medians={ {c: round(m, 1) for c, m in sorted(late_medians.items())} }, "
        f"final qtm={final_qtm:.0f}",
    )


def test_criterion_14_log_span(scheme_a_runs):
    reports = [analyze(values) for values, _ in scheme_a_runs]
    spans = [math.log10(r.q90) - math.log10(r.q10) for r in reports]
    ok = median(spans) > 3.0
    criterion(
        14,
        "scheme A final values: median log10(q90/q10) core span > 3",
        ok,
        f"median span={median(spans):.2f}",
    )


def test_scheme_b_halves_leave_duplicate_values():
    # w * 0.5 gives two equal halves, and equal balls share their digit, so a
    # ratio of 0.5 leaves a smaller effective sample than L; a uniform ratio
    # leaves every value distinct.
    ball_count = 1_000
    for seed in (1505, 5235):
        halved = run([1.0] * ball_count, 0.5, random.Random(seed), 20 * ball_count)
        uniform = run([1.0] * ball_count, None, random.Random(seed), 20 * ball_count)
        assert len(set(halved)) < 0.9 * ball_count, seed
        assert len(set(uniform)) == ball_count, seed


# --- the sampling-noise floor ---------------------------------------------------

# L exact Benford draws have an expected SSD of K / L, with K from the Benford
# percentages alone (8,345.47); SSD * L / K reads 1 at that floor.
NOISE_K = 1e4 * (1.0 - sum((p / 100.0) ** 2 for p in BENFORD_PCT))
NOISE_SEEDS = range(1505, 1525)


def mean_ssd_over_floor(ball_count, cycles):
    """Mean SSD * L / K over NOISE_SEEDS after ``cycles`` uniform-ratio cycles from V = 1."""
    ssds = [analyze(run([1.0] * ball_count, None, random.Random(s), cycles)).ssd for s in NOISE_SEEDS]
    return statistics.fmean(ssds) * ball_count / NOISE_K


def test_noise_floor_is_not_reached_at_one_cycle_per_ball():
    assert NOISE_K == pytest.approx(8345.47, abs=0.005)
    ratio = mean_ssd_over_floor(2_000, 2_000)
    criterion(15, "L=2000, C=L: mean SSD * L / K above 2", ratio > 2.0, f"{ratio:.2f}")


def test_noise_floor_is_reached_past_two_cycles_per_ball():
    ratio = mean_ssd_over_floor(500, 2_000)
    criterion(16, "L=500, C=4L: mean SSD * L / K within [0.6, 1.6]", 0.6 <= ratio <= 1.6, f"{ratio:.2f}")


# --- the mean square and the large-L limit ----------------------------------------

# S = sum(x**2) is not conserved, but E[S'] = a * S + b holds exactly for one cycle
# (tests/test_process.py), so from S_0 = L * V**2 the mean S after C cycles is
# S* + a**C * (S_0 - S*), with S* = b / (1 - a), and S* / L tends to 6 for a uniform ratio.
MEAN_SQUARE_SEEDS = range(50000, 50200)
# Four standard errors of each cell's mean S / L over MEAN_SQUARE_SEEDS, keyed by
# (ratio, C / L); the standard errors read 0.019, 0.095, 0.021, 0.062, 0.024, 0.080.
MEAN_SQUARE_MARGINS = {
    (None, 1): 0.076,
    (None, 5): 0.38,
    (0.5, 1): 0.086,
    (0.5, 5): 0.25,
    (0.85, 1): 0.097,
    (0.85, 5): 0.32,
}
STATIONARY_SEEDS = range(60000, 60012)


def mean_square_law(ball_count, ratio):
    """(a, b) of E[S'] = a * S + b for ``ball_count`` balls of total ``ball_count``; a split
    takes q * w**2 from S in the mean, q = E[2u(1 - u)]: 1/3 for a uniform ratio."""
    q = 1.0 / 3.0 if ratio is None else 2.0 * ratio * (1.0 - ratio)
    a = (1.0 - q / ball_count) * (1.0 - 2.0 / (ball_count * (ball_count + 1)))
    return a, 2.0 * ball_count / (ball_count + 1)


def test_criterion_17_mean_square_follows_its_exact_recursion():
    ball_count = 100
    for ratio in (None, 0.5, 0.85):
        a, b = mean_square_law(ball_count, ratio)
        stationary = b / (1.0 - a)
        means = {1: [], 5: []}
        for s in MEAN_SQUARE_SEEDS:
            values, rng, done = [1.0] * ball_count, random.Random(s), 0
            for k, found in means.items():
                run(values, ratio, rng, k * ball_count - done)
                done = k * ball_count
                found.append(math.fsum(x * x for x in values) / ball_count)
        for k, found in means.items():
            want = (stationary + a ** (k * ball_count) * (ball_count - stationary)) / ball_count
            got, margin = statistics.fmean(found), MEAN_SQUARE_MARGINS[ratio, k]
            criterion(
                17,
                f"L=100, ratio {ratio or 'uniform'}, C={k}L: mean S/L within {margin} of the recursion",
                abs(got - want) <= margin,
                f"{got:.4f} against {want:.4f}",
            )


def test_criterion_18_stationary_moments_and_log10_spread():
    # In the L -> inf limit of a uniform ratio, E[x**z] = Gamma(1 + 3z) / Gamma(2 + 2z) for
    # V = 1: E[x**3] = 72, and log10 x has mean -(gamma + 2) / ln 10 and variance
    # (5 pi**2 / 6 + 4) / ln(10)**2. E[x**2] is the recursion's stationary S* / L.
    ball_count = 3_000
    a, b = mean_square_law(ball_count, None)
    found = {"E[x^2]": [], "E[x^3]": [], "mean log10 x": [], "sd log10 x": []}
    for s in STATIONARY_SEEDS:
        values = run([1.0] * ball_count, None, random.Random(s), 30 * ball_count)
        logs = [math.log10(x) for x in values]
        found["E[x^2]"].append(math.fsum(x * x for x in values) / ball_count)
        found["E[x^3]"].append(math.fsum(x**3 for x in values) / ball_count)
        found["mean log10 x"].append(statistics.fmean(logs))
        found["sd log10 x"].append(statistics.pstdev(logs))
    # Each margin is four standard errors of the mean over STATIONARY_SEEDS: 0.073,
    # 2.9, 0.0132 and 0.0167.
    expected = {
        "E[x^2]": (b / (1.0 - a) / ball_count, 0.29),
        "E[x^3]": (72.0, 11.6),
        "mean log10 x": (-(0.5772156649015329 + 2.0) / math.log(10), 0.053),
        "sd log10 x": (math.sqrt(5.0 * math.pi**2 / 6.0 + 4.0) / math.log(10), 0.067),
    }
    for name, (want, margin) in expected.items():
        got = statistics.fmean(found[name])
        criterion(
            18,
            f"L=3000, C=30L: {name} within {margin} of {want:.5g}",
            abs(got - want) <= margin,
            f"{got:.5g}",
        )


def log_gamma(z):
    """log Gamma(z) for complex z with a positive real part: Stirling's series, once
    Gamma(z) = Gamma(z + 1) / z has lifted the real part to 10 or more, where the first
    term left out, 1 / (1188 z**9), is below 1e-12."""
    shift = 0.0
    while z.real < 10.0:
        shift += cmath.log(z)
        z += 1.0
    series = 1.0 / (12.0 * z) - 1.0 / (360.0 * z**3) + 1.0 / (1260.0 * z**5) - 1.0 / (1680.0 * z**7)
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi) + series - shift


def test_criterion_19_closed_form_digit_law_of_the_limit():
    for x in (0.5, 3.7, 12.0):
        assert log_gamma(complex(x)).real == pytest.approx(math.lgamma(x), abs=1e-11)
    # With y = log10 x mod 1, the Fourier coefficients of y's law are c_k = E[x**(i k tau)],
    # tau = 2 pi / ln 10, from the Mellin transform above; k > 3 moves no digit by 1e-6.
    tau = 2.0 * math.pi / math.log(10)
    c = {k: cmath.exp(log_gamma(1 + 3j * k * tau) - log_gamma(2 + 2j * k * tau)) for k in (1, 2, 3)}
    law = []
    for d in range(1, 10):
        lo, hi = math.log10(d), math.log10(d + 1)
        turns = {k: -2j * math.pi * k for k in c}
        waves = sum(c[k] * (cmath.exp(t * hi) - cmath.exp(t * lo)) / t for k, t in turns.items())
        law.append(100.0 * (hi - lo + 2.0 * waves.real))
    assert math.fsum(law) == pytest.approx(100.0, abs=1e-9)
    assert abs(c[1]) == pytest.approx(0.0030364, abs=5e-8)
    c1_squared = 1.5 * math.sinh(2 * math.pi * tau) / (math.sinh(3 * math.pi * tau) * (1 + 4 * tau**2))
    assert abs(c[1]) ** 2 == pytest.approx(c1_squared, rel=1e-9)
    table = (29.9511, 17.6272, 12.5610, 9.7471, 7.9508, 6.7067, 5.7962, 5.1025, 4.5574)
    criterion(
        19,
        "the L -> inf digit law from the Mellin series matches its table within 1e-4 points",
        all(abs(p - t) <= 1e-4 for p, t in zip(law, table)),
        f"digit 1 {law[0]:.4f}%, SSD {ssd(law):.4f}",
    )
