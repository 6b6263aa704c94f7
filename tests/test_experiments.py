import copy
import hashlib
import json
import math
import pickle
import random
import sys
from importlib import resources

import pytest

from benfordsim import (
    BenfordReport,
    CheckpointRecord,
    ConfigError,
    ExperimentConfig,
    analyze,
    earthquake_fixture,
    parse_config,
    render_table,
    run_experiment,
    scheme_preset,
)
from benfordsim.experiments import CSV_HEADER, PRESET_NAMES
from benfordsim.process import run

FIXTURE_SHA256 = "9b1cc669e5c013245c1b41d891499549c931b78fcffe966ad1edfa7dc17a1316"


# --- presets -----------------------------------------------------------------


def test_preset_parameters():
    a = scheme_preset("A", seed=1)
    assert (a.ball_count, a.initial_value, a.cycles) == (2000, 1.0, 8000)
    assert a.ratio is None

    b = scheme_preset("B", seed=1)
    assert (b.ball_count, b.cycles) == (1500, 10000)
    assert b.ratio == 0.5

    c = scheme_preset("C", seed=1)
    assert (c.ball_count, c.cycles) == (1000, 3000)
    assert c.ratio == 0.85


def test_staged_preset_checkpoints():
    gradual = scheme_preset("Gradual_A", seed=1)
    assert gradual.cycles == 13000
    assert gradual.checkpoints == (
        0, 500, 1000, 1500, 2000, 2500, 3000, 4000, 5000, 6000, 7000, 8000, 10000, 13000,
    )
    small = scheme_preset("Small_100", seed=1)
    assert (small.ball_count, small.cycles) == (100, 9000)
    assert small.checkpoints == (0, 50, 100, 150, 200, 250, 300, 350, 800, 2000, 5000, 9000)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        scheme_preset("D", seed=1)
    assert set(PRESET_NAMES) == {"A", "B", "C", "Gradual_A", "Small_100"}


def test_preset_names_ignore_case():
    assert scheme_preset("c", 1) == scheme_preset("C", 1)
    assert scheme_preset("small_100", 1) == scheme_preset("Small_100", 1)
    known = "known presets: A, B, C, Gradual_A, Small_100"
    for name in ("small-100", None):
        with pytest.raises(ConfigError) as exc:
            scheme_preset(name, 1)
        assert str(exc.value) == f"unknown preset {name!r}; {known}"


def test_config_rejects_a_total_beyond_the_largest_double():
    # The values sum to ball_count * initial_value; past the largest double a
    # merge of two balls could reach inf. A huge ball_count must not overflow
    # a float conversion before the check.
    largest = sys.float_info.max
    for ball_count, value in ((2, 1e308), (2, math.nextafter(largest / 2, math.inf)), (10**400, 1.0)):
        with pytest.raises(ConfigError, match="ball_count \\* initial_value must not exceed"):
            ExperimentConfig(ball_count, value, 10, None, seed=1, checkpoints=())
    for ball_count, value in ((1, largest), (2, largest / 2), (1000, 1e305)):
        config = ExperimentConfig(ball_count, value, 10, None, seed=1, checkpoints=())
        assert config.ball_count * config.initial_value <= largest


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(0, 1.0, 10, None, seed=1, checkpoints=(10,))
    with pytest.raises(ConfigError):
        ExperimentConfig(5, 1.0, 10, None, seed=1, checkpoints=(3, 3))
    with pytest.raises(ConfigError):
        ExperimentConfig(5, 1.0, 10, None, seed=1, checkpoints=(5, 11))
    with pytest.raises(ConfigError):
        ExperimentConfig(5, -1.0, 10, None, seed=1, checkpoints=(10,))
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigError, match="ratio"):
            ExperimentConfig(5, 1.0, 10, bad, seed=1, checkpoints=(10,))


@pytest.mark.parametrize("cycles", [2.5, "10", -1])
def test_config_rejects_bad_cycles(cycles):
    with pytest.raises(ConfigError, match="cycles"):
        ExperimentConfig(5, 1.0, cycles, None, seed=1, checkpoints=())


@pytest.mark.parametrize("seed", [1.5, -5, 2**64, "7"])
def test_config_rejects_seeds_outside_64_bits(seed):
    # The stdlib seeds by absolute value (-5 would replay seed 5) and hashes
    # non-integers, so only integers in [0, 2**64) are accepted.
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(5, 1.0, 10, None, seed=seed, checkpoints=(10,))


@pytest.mark.parametrize(
    "field, value",
    [
        ("ball_count", True),
        ("cycles", True),
        ("seed", True),
        ("checkpoints", (2.5, 10)),
        ("checkpoints", (True, 10)),
        ("initial_value", "1.0"),
        ("initial_value", None),
        ("initial_value", True),
        ("initial_value", 10**400),
        ("checkpoints", 10),
        ("checkpoints", [10]),
    ],
    ids=[
        "ball_count-bool", "cycles-bool", "seed-bool", "checkpoint-2.5", "checkpoint-bool",
        "value-str", "value-none", "value-bool", "value-huge-int", "checkpoints-int",
        "checkpoints-list",
    ],
)
def test_config_rejects_bools_and_non_int_checkpoints(field, value):
    # A 2.5 checkpoint was accepted and its row silently never recorded; a
    # string, None or huge-int initial_value and a bare-int checkpoints raised
    # a bare TypeError or OverflowError, and a list of checkpoints was let through.
    params = dict(ball_count=5, initial_value=1.0, cycles=10, ratio=None, seed=1, checkpoints=(10,))
    params[field] = value
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**params)


def test_config_accepts_an_int_initial_value():
    assert ExperimentConfig(5, 2, 10, None, seed=1, checkpoints=(10,)).initial_value == 2


def test_config_accepts_the_seed_range_ends():
    for seed in (0, 2**64 - 1):
        assert ExperimentConfig(5, 1.0, 10, None, seed=seed, checkpoints=(10,)).seed == seed


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda c: ExperimentConfig._make([0, 1.0, 10, None, 1, (10,)]),
         "ball_count must be a positive integer, got 0"),
        (lambda c: c._replace(seed=-5), "seed must be an integer in [0, 2**64), got -5"),
        (lambda c: c._replace(ratio=1.5), "fixed split ratio must be in (0, 1), got 1.5"),
        (lambda c: c._replace(ball_count=0), "ball_count must be a positive integer, got 0"),
    ],
    ids=["make", "replace-seed", "replace-ratio", "replace-ball_count"],
)
def test_every_way_to_build_a_config_validates_it(build, message):
    # A named tuple's _replace builds through _make, which skips __new__ unless overridden.
    with pytest.raises(ConfigError) as exc:
        build(scheme_preset("C", 1))
    assert str(exc.value) == message


def test_configs_records_and_reports_are_immutable():
    config = ExperimentConfig(5, 1.0, 10, None, seed=1, checkpoints=(10,))
    _, (record,) = run_experiment(config)
    for obj, field in ((config, "seed"), (record, "ssd"), (analyze([1.0, 2.0]), "qtm")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 3)
        with pytest.raises(AttributeError):
            obj.extra = 3


def test_config_repr_names_every_field():
    assert repr(scheme_preset("C", 1)) == (
        "ExperimentConfig(ball_count=1000, initial_value=1.0, cycles=3000, ratio=0.85, "
        "seed=1, checkpoints=(3000,))"
    )


_RECORD_FIELDS = {
    ExperimentConfig: ("ball_count", "initial_value", "cycles", "ratio", "seed", "checkpoints"),
    CheckpointRecord: ("cycle", "digit_pct", "ssd", "q10", "q90", "qtm"),
    BenfordReport: ("proportions_pct", "ssd", "q10", "q90", "qtm", "oom", "n", "counts"),
}
_CLONES = (lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy)


@pytest.mark.parametrize("cls", list(_RECORD_FIELDS), ids=lambda cls: cls.__name__)
def test_configs_records_and_reports_survive_pickling_and_copying(cls):
    config = ExperimentConfig(5, 1.0, 10, None, seed=1, checkpoints=(10,))
    _, (record,) = run_experiment(config)
    obj = {ExperimentConfig: config, CheckpointRecord: record, BenfordReport: analyze([1.0, 2.0, 35.0])}[cls]
    assert cls._fields == _RECORD_FIELDS[cls]
    for clone in _CLONES:
        copied = clone(obj)
        assert type(copied) is cls and copied == obj
    if cls is ExperimentConfig:
        # A config forged past __new__ with a bad seed is checked again when rebuilt.
        forged = tuple.__new__(ExperimentConfig, (5, 1.0, 10, None, -1, (10,)))
        for clone in _CLONES:
            with pytest.raises(ConfigError, match="seed must be"):
                clone(forged)


# --- run_experiment ----------------------------------------------------------


def small_config(seed=11, **overrides):
    params = dict(
        ball_count=60,
        initial_value=1.0,
        cycles=200,
        ratio=None,
        seed=seed,
        checkpoints=(0, 100, 200),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def test_cycle_zero_record_is_degenerate():
    _, records = run_experiment(small_config())
    first = records[0]
    assert first.cycle == 0
    assert first.digit_pct == (100.0,) + (0.0,) * 8
    assert first.ssd == pytest.approx(5634.0, abs=0.5)
    assert first.qtm == 1.0


def test_records_match_independent_recomputation():
    config = small_config()
    _, records = run_experiment(config)

    assert [r.cycle for r in records] == list(config.checkpoints)
    for record in records:
        # A fresh run of exactly record.cycle cycles from the same seed.
        snapshot = run(
            [config.initial_value] * config.ball_count,
            config.ratio,
            random.Random(config.seed),
            record.cycle,
        )
        report = analyze(snapshot)
        assert record.digit_pct == report.proportions_pct
        assert record.ssd == report.ssd
        assert record.q10 == report.q10
        assert record.q90 == report.q90
        assert record.qtm == report.qtm


def test_same_seed_reproduces_everything():
    config = small_config(seed=77)
    values_a, records_a = run_experiment(config)
    values_b, records_b = run_experiment(config)
    assert values_a == values_b
    assert records_a == records_b
    assert render_table(records_a) == render_table(records_b)


# Final values of run_experiment(scheme_preset(p, 1)), as sha256 over one repr
# per line. They pin the draw-order contract across versions: a change to the
# loop, the draw order or CPython's random.Random that re-rolls a seed fails here.
GOLDEN_FINAL_DIGESTS = {
    "A": "5ecb09224402cfbcfe60aea4dd9a7dbe846df6495c6809ef69a63c62f14a08be",
    "B": "fee5f462f3861a12b14c41101f5fe2def2793037d746d96a6929f8c482806340",
    "C": "99cb855c1b1df7cc0829b7077f64ead0409c1be2210939926728c2cbe5ce06e1",
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_FINAL_DIGESTS))
def test_preset_final_values_match_golden_digest(preset):
    values, _ = run_experiment(scheme_preset(preset, 1))
    text = "".join(f"{v!r}\n" for v in values)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_FINAL_DIGESTS[preset]


# The staged presets at seed 1, as sha256 over the final values (one repr per
# line) followed by the JSON table: they pin where each checkpoint falls in the
# stream as well as the end state.
GOLDEN_STAGED_DIGESTS = {
    "Gradual_A": "b674395b7590bf374c01fd86db17d5d9e07a0ea38451a0a1cd17c613e124b5c1",
    "Small_100": "b3f47727b2a79861bc2b66fbddd3655103e6923433795f8d92640d18768fda70",
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_STAGED_DIGESTS))
def test_staged_preset_values_and_table_match_golden_digest(preset):
    values, records = run_experiment(scheme_preset(preset, 1))
    text = "".join(f"{v!r}\n" for v in values) + render_table(records, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_STAGED_DIGESTS[preset]


def test_checkpoints_do_not_change_the_final_values():
    cycles = 40
    finals = [
        run_experiment(small_config(cycles=cycles, checkpoints=layout))[0]
        for layout in [(), (0,), (0, 5, 17, cycles), (cycles,)]
    ]
    assert all(final == finals[0] for final in finals)


def test_final_values_are_analyzable():
    values, _ = run_experiment(small_config())
    assert len(values) == 60
    assert all(v > 0 for v in values)
    analyze(values)


# --- fixture -----------------------------------------------------------------


def test_fixture_shape_and_first_value():
    data = earthquake_fixture()
    assert len(data) == 40
    assert data[0] == 285.29
    assert data[-1] == 4112.13


def test_fixture_digit_counts():
    assert analyze(earthquake_fixture()).counts == (15, 8, 6, 4, 4, 0, 2, 1, 0)


def test_fixture_file_checksum():
    raw = (
        resources.files("benfordsim")
        .joinpath("data", "earthquake_intervals.csv")
        .read_bytes()
    )
    assert hashlib.sha256(raw).hexdigest() == FIXTURE_SHA256


# --- table rendering ---------------------------------------------------------


def parse_csv_table(text):
    """Test-side parser used as the round-trip oracle for render_table."""
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        records.append(
            CheckpointRecord(
                cycle=int(cells[0]),
                digit_pct=tuple(float(c) for c in cells[1:10]),
                ssd=float(cells[10]),
                q10=float(cells[11]),
                q90=float(cells[12]),
                qtm=float(cells[13]),
            )
        )
    return records


def test_render_empty_table():
    assert render_table([]) == CSV_HEADER + "\n"
    assert json.loads(render_table([], "json")) == []


def test_render_degenerate_row():
    _, records = run_experiment(small_config())
    text = render_table(records[:1])
    line = text.splitlines()[1]
    assert line.startswith("0,100.0000,0.0000,")


def test_csv_round_trip_within_formatting_precision():
    _, records = run_experiment(small_config(seed=5))
    parsed = parse_csv_table(render_table(records))
    assert len(parsed) == len(records)
    for got, want in zip(parsed, records):
        assert got.cycle == want.cycle
        assert got.digit_pct == pytest.approx(want.digit_pct, abs=5e-5)
        assert got.ssd == pytest.approx(want.ssd, abs=5e-3)
        assert got.q10 == pytest.approx(want.q10, rel=1e-5)
        assert got.q90 == pytest.approx(want.q90, rel=1e-5)
        assert got.qtm == pytest.approx(want.qtm, rel=1e-5)


def test_json_round_trip_is_exact():
    _, records = run_experiment(small_config(seed=6))
    payload = json.loads(render_table(records, "json"))
    rebuilt = [
        CheckpointRecord(
            cycle=row["cycle"],
            digit_pct=tuple(row["digit_pct"]),
            ssd=row["ssd"],
            q10=row["q10"],
            q90=row["q90"],
            qtm=row["qtm"],
        )
        for row in payload
    ]
    assert rebuilt == records


def test_render_rejects_unknown_format():
    with pytest.raises(ConfigError):
        render_table([], "yaml")


# --- config files ------------------------------------------------------------


GOOD_CONFIG = """
# staged demonstration run
ball_count = 500
initial_value = 2.5
cycles = 1500
policy = fixed
ratio = 0.85
seed = 31415
checkpoints = 0, 750, 1500
"""


def test_parse_full_config():
    config = parse_config(GOOD_CONFIG)
    assert config.ball_count == 500
    assert config.initial_value == 2.5
    assert config.cycles == 1500
    assert config.ratio == 0.85
    assert config.seed == 31415
    assert config.checkpoints == (0, 750, 1500)


def test_parse_minimal_uniform_config_defaults():
    config = parse_config(
        "ball_count = 10\ninitial_value = 1\ncycles = 40\npolicy = uniform\nseed = 9\n"
    )
    assert config.ratio is None
    assert config.checkpoints == (40,)


def test_seed_argument_overrides_file_seed():
    config = parse_config(GOOD_CONFIG, seed=1)
    assert config.seed == 1


def test_seed_required_somewhere():
    text = "ball_count = 10\ninitial_value = 1\ncycles = 40\npolicy = uniform\n"
    with pytest.raises(ConfigError, match="seed"):
        parse_config(text)
    assert parse_config(text, seed=4).seed == 4


def config_text(**overrides):
    fields = {
        "ball_count": "10",
        "initial_value": "1",
        "cycles": "40",
        "policy": "uniform",
        "seed": "2",
    }
    fields.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in fields.items() if v is not None)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(policy="fixed"), "ratio"),  # fixed without ratio
        (dict(ratio="0.5"), "ratio"),  # ratio with uniform
        (dict(policy="sometimes"), "policy"),
        (dict(colour="blue"), "unknown key"),
        (dict(cycles="soon"), "integer"),
        (dict(initial_value="lots"), "number"),
        (dict(lineage="maybe"), "lineage"),
        (dict(checkpoints="1; 2"), "checkpoints"),
        (dict(policy="fixed", ratio="half"), "ratio must be a number, got 'half'"),
    ],
)
def test_parse_config_rejections(overrides, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(config_text(**overrides))


def test_parse_config_parses_a_seed_key_the_argument_overrides():
    with pytest.raises(ConfigError, match="seed must be an integer, got 'banana'"):
        parse_config(config_text(seed="banana"), seed=1)
    assert parse_config(config_text(seed="7"), seed=1).seed == 1


def test_parse_config_rejects_duplicates_and_bad_lines():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(config_text() + "cycles = 50\n")
    with pytest.raises(ConfigError, match="line 6"):
        parse_config(config_text() + "just some words\n")


def test_parse_config_requires_core_keys():
    with pytest.raises(ConfigError, match="ball_count"):
        parse_config("cycles = 10\ninitial_value = 1\npolicy = uniform\nseed = 1")
