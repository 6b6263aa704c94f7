"""Benchmark for benfordsim: one workload, one seed, one measured run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload ensemble_final --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, measures the package's import
time (``setup_s``), runs the operations in a fresh worker process for the
given seconds, checks every operation's output against the reference in
``oracle.py`` and prints two JSON lines: the run's details (provenance,
failures, tail percentile, quality medians, cycles/s), then the result
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Times are scaled to a reference interpreter speed (see ``clock.py``). The
package is imported from ``src/`` of the checkout and nowhere else.

The benchmark's own tests: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from clock import scale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
DEADLINE_S = 170.0


# Run in a fresh interpreter: ``import benfordsim`` between calibration
# loops. The loops use builtins only, so nothing the package imports is
# loaded before the timed import.
_SETUP_CODE = """
from time import perf_counter

def loop():
    t0 = perf_counter()
    values = [1.0] * 512
    carry = 0.0
    state = 20150519
    for _ in range(12000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        i = state & 511
        carry = values[i] * 0.5 + carry * 1e-3
        values[i] = carry + 0.25
    return perf_counter() - t0

loops = [loop() for _ in range(3)]
t0 = perf_counter()
import benfordsim
elapsed = perf_counter() - t0
loops = sorted(loops + [loop() for _ in range(3)])
print(elapsed, (loops[2] + loops[3]) / 2)
"""
# What that loop takes where clock.calibration_loop takes clock.REFERENCE_S.
SETUP_REFERENCE_S = 0.004


def measure_setup(env: dict) -> float:
    """Median scaled time of ``import benfordsim`` in a fresh interpreter.

    Interpreter start-up itself is left out: it does not depend on the
    package and varies far more than the import. The first run is untimed,
    as it only fills the bytecode cache.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, check=True,
                             capture_output=True, text=True)
        elapsed, calibration = map(float, out.stdout.split())
        if i:
            times.append(elapsed * SETUP_REFERENCE_S / calibration)
    return statistics.median(times)


def provenance() -> dict:
    package = SRC / "benfordsim"
    files = sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(package).as_posix().encode() + b"\0" + p.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            git_sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_loc": sum(len(p.read_text().splitlines()) for p in files if p.suffix == ".py"),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


class Inputs:
    """A workload's inputs for one seed and the oracle's expected outputs."""

    def __init__(self, workload: str, seed: int, work_dir: Path, size: int = workloads.DATASET_SIZE):
        self.workload = workload
        self.presets = workloads.WORKLOAD_PRESETS[workload]
        self.size = size
        self.data_path = None
        if self.presets:
            self.seeds = workloads.run_seeds(workload, seed)
            self.expected = [
                [oracle.expected_run(workloads.PRESETS[p], s) for p in self.presets]
                for s in self.seeds
            ]
        else:
            self.seeds = []
            values = workloads.dataset(seed, size)
            self.data_path = work_dir / "dataset.csv"
            self.data_path.write_text(workloads.dataset_text(values))
            self.expected = [oracle.analyze(values)]

    def check(self, key: int, text: str) -> list[str]:
        """Problems with one operation's output, empty when it matches the oracle."""
        expected = self.expected[key]
        outputs = json.loads(text)
        if self.workload == "analyze_bulk":
            return oracle.check_analysis_json("analyze", outputs["report.json"], self.size, expected)
        labels = [f"{p} seed {self.seeds[key]}" for p in self.presets]
        if self.workload == "ensemble_final":
            return [
                problem
                for label, want, run in zip(labels, expected, outputs, strict=True)
                for problem in oracle.check_experiment(label, run["values"], run["records"], want)
            ]
        problems = []
        for label, preset, (final, analyses) in zip(labels, self.presets, expected):
            problems += oracle.check_table_csv(label, outputs[f"{preset}.csv"], analyses)
            problems += oracle.check_values_text(label, outputs[f"{preset}.values"], final)
            if outputs[f"{preset}.hist"] != oracle.histogram_text(final):
                problems.append(f"{label}: histogram file disagrees with the reference")
        return problems

    def quality(self, texts: dict[int, str]) -> dict:
        """Medians of SSD, QTM and log10(q90/q10) over final checkpoints or the dataset."""
        rows = []  # (ssd, q10, q90, qtm)
        for text in texts.values():
            outputs = json.loads(text)
            if self.workload == "ensemble_final":
                rows += [tuple(run["records"][-1][2:6]) for run in outputs]
            elif self.workload == "staged_cli":
                for p in self.presets:
                    cells = outputs[f"{p}.csv"].splitlines()[-1].split(",")
                    rows.append(tuple(float(c) for c in cells[10:14]))
            else:
                r = json.loads(outputs["report.json"])
                rows.append((r["ssd"], r["q10"], r["q90"], r["qtm"]))
        if not rows:
            return {}
        medians = {
            "ssd_median": statistics.median(r[0] for r in rows),
            "qtm_median": statistics.median(r[3] for r in rows),
            "log_span_median": statistics.median(math.log10(r[2]) - math.log10(r[1]) for r in rows),
        }
        # A dataset spanning the double range has q90 / q10 beyond the largest float.
        return {k: v if math.isfinite(v) else str(v) for k, v in medians.items()} | {"runs": len(rows)}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least ten samples above it.

    The rank is never below the median's, so with fewer than 21 samples,
    too few to resolve a tail, this is the median.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = max(n - 11, (n - 1) // 2)
    return xs[rank], 100.0 * (rank + 1) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, ops, keys, worker_result, setup_s, size):
    timed = [op for op in ops if op["pass"] >= 0 and not op["traced"] and op["error"] is None]
    times = [op["scaled_s"] for op in timed]
    passes: dict[int, list[float]] = {}
    for op in timed:
        passes.setdefault(op["pass"], []).append(op["scaled_s"])
    pass_walls = [sum(v) for v in passes.values() if len(v) == keys]
    wall_s = statistics.median(pass_walls)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall_s, "s"),
        "values_per_s": metric(workloads.values_per_op(workload, size) * keys / wall_s, "1/s"),
        "op_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(worker_result["peak_rss_kb"] / 1024.0, "MB"),
    }
    details = {
        "op_samples": len(times),
        "op_tail_percentile": tail_pct,
        "complete_passes": len(pass_walls),
        "unscaled_op_p50_ms": statistics.median(op["s"] for op in timed) * 1e3,
        "calibration_p50_ms": statistics.median(op["cal_s"] for op in timed) * 1e3,
    }
    if workloads.WORKLOAD_PRESETS[workload]:
        details["cycles_per_s"] = workloads.cycles_per_op(workload) * keys / wall_s
    return metrics, details


def per_layer(ops, worker_result):
    trace = worker_result["trace"]
    completed = [op for op in ops if op["pass"] >= 0 and op["error"] is None]
    traced = [op for op in completed if op["traced"]]
    untraced = [op["scaled_s"] for op in completed if not op["traced"]]
    if not traced or not untraced:
        raise SystemExit("error: no traced or no untraced operation completed")
    n = len(traced)
    wall = sum(op["scaled_s"] for op in traced)
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "items": 0}
    totals = trace["totals"]
    # A metric whose call site no longer exists is left out. The root spans,
    # cli.main and experiments.run_experiment, are recorded by the worker.
    installed = set(trace["installed"])

    def t(name):
        return totals.get(name, zero)

    def rate(num, den, factor):
        return num / den * factor if den else 0.0

    m = {}
    if "process.run" in installed:
        run = t("process.run")
        m["process.ns_per_cycle"] = metric(rate(run["self_s"], run["items"], 1e9), "ns")
        m["process.run_self_s"] = metric(run["self_s"] / n, "s")
        m["process.cycles"] = metric(run["items"] / n, "count")
    if "stats.analyze" in installed:
        an = t("stats.analyze")
        m["stats.analyze_calls"] = metric(an["calls"] / n, "count")
        m["stats.analyze_us_per_call"] = metric(rate(an["incl_s"], an["calls"], 1e6), "us")
        m["stats.analyze_ns_per_value"] = metric(rate(an["incl_s"], an["items"], 1e9), "ns")
    if "stats.tally_digits" in installed:
        tally = t("stats.tally_digits")
        m["stats.tally_ns_per_value"] = metric(rate(tally["incl_s"], tally["items"], 1e9), "ns")
        m["stats.tally_values_per_input_value"] = metric(
            rate(tally["items"], trace["distinct_values"], 1.0), "ratio")
    if worker_result.get("fsd_ns_per_value") is not None:
        m["digits.fsd_ns_per_value"] = metric(worker_result["fsd_ns_per_value"], "ns")
    if "stats.log_histogram" in installed:
        m["stats.log_histogram_s"] = metric(t("stats.log_histogram")["incl_s"] / n, "s")
    if "experiments.render_table" in installed:
        m["experiments.render_table_s"] = metric(t("experiments.render_table")["incl_s"] / n, "s")
    m["experiments.run_experiment_self_s"] = metric(t("experiments.run_experiment")["self_s"] / n, "s")
    m["cli.main_self_s"] = metric(t("cli.main")["self_s"] / n, "s")
    m["cli.bytes_read"] = metric(trace["bytes_read"] / n, "B")
    m["cli.bytes_written"] = metric(trace["bytes_written"] / n, "B")
    traced_p50 = statistics.median(op["scaled_s"] for op in traced)
    untraced_p50 = statistics.median(untraced)
    m["trace.overhead_frac"] = metric((traced_p50 - untraced_p50) / untraced_p50, "ratio")
    m["trace.residual_frac"] = metric((wall - trace["root_s"]) / wall, "ratio")
    return m, {"traced_ops": n, "untraced_ops": len(untraced)}


def judge(inputs: Inputs, ops: list[dict], firsts: dict[int, str]) -> list[str]:
    """Mark each operation ok or not and return one problem per failed operation.

    The first output for each key is checked against the oracle; every later
    operation on the same key must reproduce that output byte for byte.
    """
    verdicts = {}
    for key, text in firsts.items():
        try:
            verdicts[key] = inputs.check(key, text)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            verdicts[key] = [f"malformed output for key {key}: {type(exc).__name__}: {exc}"]
    digests = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in firsts.items()}
    failures = []
    for op in ops:
        if op["error"] is not None:
            problem = op["error"]
        elif verdicts[op["key"]]:
            problem = verdicts[op["key"]][0]
        elif op["digest"] != digests[op["key"]]:
            problem = f"output for key {op['key']} differs from the same key's first output"
        else:
            problem = None
        op["ok"] = problem is None
        op["scaled_s"] = scale(op["s"], op["cal_s"])
        if problem is not None:
            failures.append(problem)
    return failures


def run_worker(spec: dict, spec_path: Path, log_path: Path, env: dict, timeout: float) -> dict:
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"error: the worker did not finish within {timeout:.0f} s")
    if code != 0:
        sys.stderr.write(log_path.read_text()[-4000:])
        raise SystemExit(f"error: the worker exited with {code}")
    return json.loads(Path(spec["result_path"]).read_text())


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if not (SRC / "benfordsim" / "__init__.py").is_file():
        print(f"error: no benfordsim package under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    prov = provenance()
    setup_s = measure_setup(env)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        inputs = Inputs(args.workload, args.seed, work_dir)
        spec = {
            "workload": args.workload,
            "seeds": inputs.seeds,
            "data_path": str(inputs.data_path) if inputs.data_path else None,
            "work_dir": str(work_dir),
            "src": str(SRC),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "result_path": str(work_dir / "result.json"),
        }
        timeout = DEADLINE_S - (perf_counter() - started)
        result = run_worker(spec, work_dir / "spec.json", work_dir / "worker.log", env, timeout)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = result["ops"]
    firsts = {int(k): v for k, v in result["first_outputs"].items()}
    failures = judge(inputs, ops, firsts)
    if not any(op["error"] is None and op["pass"] >= 0 for op in ops):
        print(f"error: no operation completed: {failures[:3]}", file=sys.stderr)
        return 1

    keys = len(inputs.seeds) or 1
    if args.trace:
        metrics, extra = per_layer(ops, result)
    else:
        metrics, extra = end_to_end(args.workload, ops, keys, result, setup_s, inputs.size)
    attempted = len(ops)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
        "quality": inputs.quality({op["key"]: firsts[op["key"]] for op in ops if op["ok"]}),
        "provenance": prov,
        **extra,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
