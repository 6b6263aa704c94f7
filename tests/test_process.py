import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from benfordsim import (
    CheckpointRecord,
    ConfigError,
    ExperimentConfig,
    UnderflowError,
    analyze,
    run_experiment,
)
from benfordsim.process import run


class ScriptedStream:
    """Stand-in stream that serves scripted raw draws and records each one, with its bit width."""

    def __init__(self, bits, ratios=()):
        self.bits = list(bits)
        self.ratios = list(ratios)
        self.calls = []

    def getrandbits(self, k):
        self.calls.append(("bits", k))
        value = self.bits.pop(0)
        assert 0 <= value < 2**k
        return value

    def random(self):
        self.calls.append("ratio")
        return self.ratios.pop(0)


def one_cycle(values, ratio, bits, ratios=()):
    """Run a single cycle over ``values`` with scripted draws; returns (values, draws)."""
    stream = ScriptedStream(bits, ratios)
    return run(list(values), ratio, stream, 1), stream.calls


def config(ball_count=2, initial_value=1.0, cycles=0, ratio=None):
    return ExperimentConfig(ball_count, initial_value, cycles, ratio, seed=1, checkpoints=())


def record_of(cycle, values):
    """The record run_experiment should make of ``values`` at ``cycle``."""
    report = analyze(values)
    return CheckpointRecord(cycle, report.proportions_pct, report.ssd, report.q10, report.q90, report.qtm)


# --- the starting system -----------------------------------------------------
# ExperimentConfig is the one place that checks L, V, C and the ratio;
# run_experiment starts run() from L balls of V.


def test_new_system_seven_balls_of_35():
    values, _ = run_experiment(config(7, 35.0))
    assert values == [35.0] * 7
    assert math.fsum(values) == 245.0


def test_new_system_trivial_and_large():
    assert run_experiment(config(1, 1.0))[0] == [1.0]
    big, _ = run_experiment(config(2000, 1.0))
    assert len(big) == 2000
    assert set(big) == {1.0}


@pytest.mark.parametrize(
    "count, value", [(0, 1.0), (-3, 1.0), (5, 0.0), (5, -1.0), (5, math.inf), (5, math.nan)]
)
def test_new_system_rejects_bad_parameters(count, value):
    with pytest.raises(ConfigError):
        config(count, value)


# --- ratios ------------------------------------------------------------------


def test_fixed_ratio_bounds():
    run_experiment(config(cycles=1, ratio=0.85))
    for bad in (0.0, 1.0, -0.2, 1.3, math.nan, "0.5"):
        with pytest.raises(ConfigError, match="ratio"):
            config(cycles=1, ratio=bad)


# --- fragmentation -----------------------------------------------------------


def test_fragment_even_split():
    # Ball 0 splits into 1.0 + 1.0; the merge then removes the second
    # fragment (index L = 2) and adds it to the 8.0.
    values, _ = one_cycle([2.0, 8.0], 0.5, [0, 2, 1])
    assert values == [1.0, 9.0]


def test_fragment_35_into_31_and_4():
    # Seven balls of 35: one splits into roughly 31 and 4, then two 35s merge
    # into 70 (ball 0 is removed, the 4 moves into its slot, ball 1 receives).
    values, _ = one_cycle([35.0] * 7, 31.0 / 35.0, [2, 0, 1])
    assert len(values) == 7
    assert values[0] == pytest.approx(4.0)
    assert values[1] == 70.0
    assert values[2] == pytest.approx(31.0)
    assert values[3:] == [35.0] * 4
    assert math.fsum(values) == pytest.approx(245.0, rel=1e-15)


@given(st.floats(min_value=1e-4, max_value=1e4), st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_fragment_preserves_sum_for_any_ratio(w, u):
    # The merge reunites the two fragments in slot 0, so it holds their sum.
    values, _ = one_cycle([w, 1.0], u, [0, 0, 0])
    assert values[0] == pytest.approx(w, rel=1e-15)
    assert values[1] == 1.0


def test_fragment_underflow_is_an_error():
    for ratio, ratios, draws in ((0.4, (), [("bits", 2)]), (None, [0.4], [("bits", 2), "ratio"])):
        values = [1.0, 5e-324]
        stream = ScriptedStream([1], ratios)
        with pytest.raises(UnderflowError):
            run(values, ratio, stream, 1)
        # the failed cycle must not have touched the values or drawn merge indexes
        assert values == [1.0, 5e-324]
        assert stream.calls == draws


# --- consolidation -----------------------------------------------------------


def test_consolidate_two_35s_into_70():
    values, _ = one_cycle([35.0, 35.0, 31.0, 4.0, 35.0, 35.0, 35.0], 0.5, [3, 5, 6])
    # 4 splits into 2 + 2; the 35 at index 5 is removed, the second 2 takes
    # its slot, and the 35 at index 6 receives it.
    assert values == [35.0, 35.0, 31.0, 2.0, 35.0, 2.0, 70.0]


def test_consolidate_2_and_70_into_72():
    values, _ = one_cycle([35.0, 35.0, 31.0, 8.0, 35.0, 70.0, 35.0], 0.25, [3, 3, 5])
    # 8 splits into 2 (kept at index 3) and 6 (index L = 7). Removing index 3
    # puts the 6 into its slot; the 70 at index 5 absorbs the 2.
    assert values == [35.0, 35.0, 31.0, 6.0, 35.0, 72.0, 35.0]


def test_consolidate_needs_two_balls():
    # A split always comes first, so even a one-ball system merges over two.
    _, calls = one_cycle([5.0], 0.5, [0, 1, 0])
    assert calls == [("bits", 1), ("bits", 2), ("bits", 1)]


def test_consolidate_picks_distinct_balls():
    # One ball splits into 1 + 3: whichever fragment is removed, the other
    # must receive it.
    for first in (0, 1):
        values, _ = one_cycle([4.0], 0.25, [0, first, 0])
        assert values == [4.0]


# --- cycles ------------------------------------------------------------------


def test_cycle_restores_count_and_total():
    values, rng = [35.0] * 7, random.Random(99)
    for _ in range(500):
        run(values, None, rng, 1)
        assert len(values) == 7
        assert abs(math.fsum(values) - 245.0) / 245.0 < 1e-9


def test_single_ball_system_is_stationary():
    for ratio in (None, 0.5):
        assert run([1.0], ratio, random.Random(7), 1000) == [1.0]


@pytest.mark.parametrize("ratio", [0.5, 0.85, 0.1])
@pytest.mark.parametrize("ball_count", [1, 2, 3, 5])
def test_one_cycle_moves_the_mean_square_by_its_exact_linear_law(ball_count, ratio):
    # S = sum of x**2 and T = sum of x. A split takes q * w**2 from S, q = 2r(1 - r); the
    # merge adds twice the product of two distinct balls of the L + 1. Over all L(L + 1)L
    # equally likely draws (i, j, m), the mean of S' is a * S + b, with a and b below.
    n, q = ball_count, 2.0 * ratio * (1.0 - ratio)
    rng = random.Random(1505 + n)
    values = [rng.uniform(0.01, 10.0) for _ in range(n)]
    total, square = math.fsum(values), math.fsum(x * x for x in values)
    a = (1.0 - q / n) * (1.0 - 2.0 / (n * (n + 1)))
    b = 2.0 * total**2 / (n * (n + 1))
    after = [
        math.fsum(x * x for x in one_cycle(values, ratio, [i, j, m])[0])
        for i in range(n)
        for j in range(n + 1)
        for m in range(n)
    ]
    assert len(after) == n * (n + 1) * n
    assert math.fsum(after) / len(after) == pytest.approx(a * square + b, rel=1e-12)


# Three balls: indexes below 3 take 2 bits, indexes below 4 take 3 bits.


def test_draw_order_uniform_policy():
    _, calls = one_cycle([9.0] * 3, None, [1, 0, 0], ratios=[0.25])
    assert calls == [("bits", 2), "ratio", ("bits", 3), ("bits", 2)]


def test_draw_order_fixed_policy_consumes_no_ratio():
    _, calls = one_cycle([9.0] * 3, 0.5, [1, 0, 0])
    assert calls == [("bits", 2), ("bits", 3), ("bits", 2)]


def test_draw_order_redraws_indexes_out_of_range():
    # 3 >= 3 is redrawn as 1 (split 2.0 into 0.5 + 1.5); 7 and 4 >= 4 are
    # redrawn as 0 (the 1.0 goes, the 1.5 takes its slot); 3 is redrawn as 2,
    # so the 4.0 receives the 1.0.
    values, calls = one_cycle([1.0, 2.0, 4.0], 0.25, [3, 1, 7, 4, 0, 3, 2])
    assert values == [1.5, 0.5, 5.0]
    assert calls == [("bits", 2)] * 2 + [("bits", 3)] * 3 + [("bits", 2)] * 2


def test_draw_order_redraws_a_zero_ratio():
    values, calls = one_cycle([9.0] * 3, None, [1, 0, 0], ratios=[0.0, 0.25])
    assert values == [15.75, 2.25, 9.0]
    assert calls == [("bits", 2), "ratio", "ratio", ("bits", 3), ("bits", 2)]


def reference_run(values, ratio, rng, cycles):
    """The process written plainly, through CPython's randrange: the second
    fragment is appended as ball L, and the merge moves the last ball
    into the removed one's slot. Returns the (i, j) draws of every cycle."""
    n = len(values)
    draws = []
    for _ in range(cycles):
        i = rng.randrange(n)
        if ratio is None:
            u = rng.random()
            while u == 0.0:
                u = rng.random()
        else:
            u = ratio
        w = values[i]
        values[i] = w * u
        values.append(w * (1.0 - u))
        j = rng.randrange(n + 1)
        removed = values[j]
        values[j] = values[-1]
        values.pop()
        values[rng.randrange(n)] += removed
        draws.append((i, j))
    return draws


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 2, 3, 100, 1000, 1001, 1023, 1024, 1025, 2000, 2001])
def test_inline_rejection_matches_cpython_randrange(n, seed):
    # run() inlines the rejection of CPython's randrange(n). It must pick the
    # balls randrange picks (seen in the ordered final values) and leave the
    # generator where randrange leaves it; otherwise every seed re-rolls.
    cycles = 40
    for ratio in (None, 0.5, 0.85):
        ref = random.Random(seed)
        expected = [1.0] * n
        reference_run(expected, ratio, ref, cycles)
        gen = random.Random(seed)
        assert run([1.0] * n, ratio, gen, cycles) == expected, ratio
        assert gen.getstate() == ref.getstate(), ratio


@pytest.mark.parametrize("ratio", [None, 0.5, 0.85])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_systems_match_the_reference_when_a_fragment_is_removed(n, ratio):
    # With few balls the merge often removes one of the two fragments: the
    # one held aside as ball L (j == n) or the one left in the split slot
    # (j == i). Both must occur, and the run must still match the reference.
    cycles = 300
    ref = random.Random(n)
    expected = [1.0] * n
    draws = reference_run(expected, ratio, ref, cycles)
    assert sum(j == n for _, j in draws) > 10
    assert sum(j == i for i, j in draws) > 10
    gen = random.Random(n)
    assert run([1.0] * n, ratio, gen, cycles) == expected
    assert gen.getstate() == ref.getstate()


# --- runs --------------------------------------------------------------------


def test_run_zero_cycles_is_identity():
    assert run([2.0] * 5, None, random.Random(1), 0) == [2.0] * 5


def test_run_rejects_negative_cycles():
    with pytest.raises(ConfigError, match="cycles"):
        run_experiment(config(2, 1.0, cycles=-1))


def test_run_fires_checkpoints_in_order_including_zero():
    config = ExperimentConfig(4, 1.0, 10, None, seed=3, checkpoints=(0, 3, 10))
    values, records = run_experiment(config)
    assert [r.cycle for r in records] == [0, 3, 10]
    assert len(values) == 4
    # Cycle 0 is the untouched system of four 1.0 balls.
    assert records[0] == record_of(0, [1.0] * 4)


def test_run_snapshots_are_copies():
    # The record at cycle 4 is the analysis of the system after 4 cycles,
    # whatever the 5 later cycles do to the values.
    at_cycle_4 = run([1.0] * 3, None, random.Random(5), 4)
    values, records = run_experiment(ExperimentConfig(3, 1.0, 9, None, seed=5, checkpoints=(4,)))
    assert records == [record_of(4, at_cycle_4)]
    assert values != at_cycle_4


@pytest.mark.parametrize("ratio", [None, 0.3])
@pytest.mark.parametrize("a, b", [(0, 0), (0, 9), (9, 0), (1, 1), (4, 13), (60, 45)])
def test_consecutive_runs_equal_one_run(a, b, ratio):
    # run_experiment analyzes checkpoints between segments; that is exact only
    # if segments leave the values and the generator as one run does.
    values, rng = [2.0] * 17, random.Random(8)
    run(values, ratio, rng, a)
    run(values, ratio, rng, b)
    whole, whole_rng = [2.0] * 17, random.Random(8)
    run(whole, ratio, whole_rng, a + b)
    assert values == whole
    assert rng.getstate() == whole_rng.getstate()


def test_run_is_deterministic_for_a_seed():
    def go():
        return run([3.0] * 50, None, random.Random(20240607), 500)

    first, second = go(), go()
    assert first == second  # bitwise identical


def test_different_seeds_diverge():
    a = run([3.0] * 50, None, random.Random(1), 200)
    b = run([3.0] * 50, None, random.Random(2), 200)
    assert a != b


@settings(max_examples=25, deadline=None)
@given(
    ball_count=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    fixed=st.none() | st.floats(min_value=0.01, max_value=0.99),
)
def test_conservation_and_count_properties(ball_count, seed, fixed):
    cycles = 3 * ball_count
    values, rng, done = [1.0] * ball_count, random.Random(seed), 0
    for c in range(0, cycles + 1, max(1, cycles // 4)):
        run(values, fixed, rng, c - done)
        done = c
        assert len(values) == ball_count
        assert all(v > 0.0 for v in values)
    run(values, fixed, rng, cycles - done)
    assert len(values) == ball_count
    assert abs(math.fsum(values) - ball_count) / ball_count < 1e-9
