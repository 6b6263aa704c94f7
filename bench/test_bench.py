"""Tests of the benchmark itself: its oracle, failure accounting, tracing and seeds.

Run from the repository root with ``python3 -m pytest bench``.
"""

import hashlib
import json
import math
import shutil
import subprocess
import sys
from decimal import Decimal

import pytest

import oracle
import run
import spans
import workloads
from spans import Tracer
from worker import Workload

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def exact_digit(x):
    return Decimal(abs(x)).as_tuple().digits[0]


def test_first_digit_is_exact_next_to_every_sampled_power_of_ten():
    # Two doubles whose digit a log10-based extraction gets wrong, and a
    # power of ten that f"{x:.16e}" misreads.
    cases = [4.9999999999999997e-287, 9.999999999999999e-307, 1e-305]
    for k in range(-307, 309, 3):
        for d in range(1, 10):
            x = float(f"{d}e{k}")
            if not math.isfinite(x):
                continue
            for direction in (0.0, math.inf):
                y = x
                for _ in range(3):
                    cases.append(y)
                    y = math.nextafter(y, direction)
    assert [x for x in cases if oracle.first_digit(x) != exact_digit(x)] == []


def program_output(workload, tmp_path, size=workloads.DATASET_SIZE):
    """The inputs for seed 7 and the program's real output for its first key."""
    inputs = run.Inputs(workload, 7, tmp_path, size=size)
    spec = {
        "workload": workload,
        "seeds": inputs.seeds,
        "work_dir": str(tmp_path),
        "data_path": str(inputs.data_path) if inputs.data_path else None,
    }
    work = Workload(spec, Tracer())
    return inputs, work.output(work.run(0, traced=False))


def nudge_final_value(text):
    runs = json.loads(text)
    values = runs[1]["values"]
    values[7] = math.nextafter(values[7], math.inf)
    return json.dumps(runs)


def nudge_values_file(text):
    files = json.loads(text)
    lines = files["Small_100.values"].splitlines()
    lines[3] = repr(math.nextafter(float(lines[3]), 0.0))
    files["Small_100.values"] = "\n".join(lines) + "\n"
    return json.dumps(files)


def shift_table_percentage(text):
    files = json.loads(text)
    rows = files["Gradual_A.csv"].splitlines()
    cells = rows[-1].split(",")
    cells[1] = f"{float(cells[1]) + 0.05:.4f}"
    rows[-1] = ",".join(cells)
    files["Gradual_A.csv"] = "\n".join(rows) + "\n"
    return json.dumps(files)


def move_one_digit_count(text):
    files = json.loads(text)
    report = json.loads(files["report.json"])
    report["counts"][0] -= 1
    report["counts"][1] += 1
    files["report.json"] = json.dumps(report)
    return json.dumps(files)


def op(digest, pass_no=0):
    return {"key": 0, "pass": pass_no, "error": None, "digest": digest, "s": 0.01, "cal_s": 0.002}


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("ensemble_final", nudge_final_value),
        ("staged_cli", nudge_values_file),
        ("staged_cli", shift_table_percentage),
        ("analyze_bulk", move_one_digit_count),
    ],
)
def test_one_corrupted_output_value_fails_the_op(workload, corrupt, tmp_path):
    inputs, text = program_output(workload, tmp_path, size=2000)
    good = op(sha(text))
    assert run.judge(inputs, [good], {0: text}) == [] and good["ok"]

    bad_text = corrupt(text)
    first_bad = [op(sha(bad_text)), op(sha(bad_text), 1)]
    assert len(run.judge(inputs, first_bad, {0: bad_text})) == 2
    assert not any(o["ok"] for o in first_bad)

    later_bad = [op(sha(text)), op(sha(bad_text), 1)]
    assert len(run.judge(inputs, later_bad, {0: text})) == 1
    assert [o["ok"] for o in later_bad] == [True, False]


def test_a_different_seed_changes_the_inputs():
    for workload in ("ensemble_final", "staged_cli"):
        assert workloads.run_seeds(workload, 1) == workloads.run_seeds(workload, 1)
        assert workloads.run_seeds(workload, 1) != workloads.run_seeds(workload, 2)
    assert workloads.dataset(1, 100) == workloads.dataset(1, 100)
    assert workloads.dataset(1, 100) != workloads.dataset(2, 100)


def test_self_times_add_up_to_the_root_and_a_second_tally_counts_as_waste():
    tracer = Tracer()
    tally = tracer.wrap(lambda values: sorted(values), "stats.tally_digits", spans.dataset_arg)
    analyze = tracer.wrap(lambda values: tally(values), "stats.analyze", spans.dataset_arg)
    main = tracer.wrap(lambda values: (tally(values), analyze(values)), "cli.main")
    main([float(i) for i in range(10_000)])
    tracer.fold()
    assert sum(t["self_s"] for t in tracer.totals.values()) == pytest.approx(tracer.root_s)
    assert tracer.totals["stats.tally_digits"]["items"] / tracer.distinct_values == 2.0


def test_tail_needs_ten_samples_above_it_and_never_drops_below_the_median():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([float(i) for i in range(13)])[0] == 6.0


def bench(cwd, workload, seed, trace=0):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_lines(out):
    assert out.returncode == 0, out.stderr
    details, result = out.stdout.splitlines()[-2:]
    return json.loads(details), json.loads(result)


def test_same_seed_reproduces_the_quality_metrics_and_every_metric_is_printed():
    runs = [last_lines(bench(run.ROOT, "staged_cli", 5)) for _ in range(2)]
    assert runs[0][0]["quality"] == runs[1][0]["quality"]
    assert runs[0][0]["quality"]["runs"] == 20
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    for _, result in runs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    _, result = last_lines(bench(run.ROOT, "ensemble_final", 3, trace=1))
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["stats.tally_values_per_input_value"]["value"] == 1.0


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "ensemble_final", 1)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
