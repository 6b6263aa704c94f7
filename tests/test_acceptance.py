"""End-to-end acceptance checks at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Statistical criteria use ten fixed seeds per scheme; exact
criteria pin every deterministic number.
"""

import math
import random
import statistics

import pytest

from benfordsim import (
    earthquake_fixture,
    first_significant_digit,
    proportions_pct,
    render_table,
    run_experiment,
    scheme_preset,
    ssd,
    tally_digits,
)
from benfordsim.cli import main as cli_main
from benfordsim.digits import benford_expected
from benfordsim.experiments import ExperimentConfig
from benfordsim.process import run
from benfordsim.stats import log_histogram

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
    tally = tally_digits(data)
    props = proportions_pct(tally)
    expected_props = (37.5, 20.0, 15.0, 10.0, 10.0, 0.0, 5.0, 2.5, 0.0)
    ok = (
        len(data) == 40
        and tally.counts == (15, 8, 6, 4, 4, 0, 2, 1, 0)
        and all(abs(p - e) < 1e-9 for p, e in zip(props, expected_props))
    )
    criterion(
        3,
        "bundled 40-value sample tallies to {15,8,6,4,4,0,2,1,0} with the exact proportions",
        ok,
        f"counts={tally.counts}",
    )


def test_criterion_04_benford_vector():
    rounded = (30.1, 17.6, 12.5, 9.7, 7.9, 6.7, 5.8, 5.1, 4.6)
    pct = [100.0 * benford_expected(d) for d in range(1, 10)]
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

        def check(cycle_no, values):
            if len(values) != ball_count:
                failures.append((case, cycle_no, "count", len(values)))
            drift = abs(math.fsum(values) - total) / total
            if drift >= 1e-9:
                failures.append((case, cycle_no, "drift", drift))

        run(
            [initial_value] * ball_count,
            ratio,
            random.Random(gen.getrandbits(63)),
            cycles,
            checkpoints=marks,
            on_checkpoint=check,
        )
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
    spans = [
        log_histogram(values, bin_width=0.25).core_log_span for values, _ in scheme_a_runs
    ]
    ok = median(spans) > 3.0
    criterion(
        14,
        "scheme A final values: median log10(q90/q10) core span > 3",
        ok,
        f"median span={median(spans):.2f}",
    )
