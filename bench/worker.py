"""Run one workload's operations against benfordsim in a fresh process.

Usage: python3 worker.py SPEC.json

run.py writes the spec (workload, run seeds, paths, seconds, trace flag) and
reads the JSON result this process writes to the spec's ``result_path``.
Running the operations alone in their own single-threaded interpreter keeps
the harness's memory and its oracle work out of the timings and the peak RSS.

Operations repeat in passes over the workload's seeds until ``seconds`` have
passed. The first operation is a warm-up and is not timed. With tracing on,
passes alternate between untraced and traced, so that the tracing overhead
is measured on the same run. Every operation's output is digested; the first
output for each seed goes back whole for the oracle to check.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from clock import Speedometer, scale
from spans import Tracer

PROBE_SIZE = 20_000
PROBE_REPEATS = 5


class OpFailed(Exception):
    pass


def ensemble_output(runs) -> str:
    return json.dumps([
        {
            "values": values,
            "records": [[r.cycle, list(r.digit_pct), r.ssd, r.q10, r.q90, r.qtm] for r in records],
        }
        for values, records in runs
    ])


class Workload:
    """The operation of one workload, with and without root spans."""

    def __init__(self, spec: dict, tracer: Tracer):
        import benfordsim
        from benfordsim import cli

        self.name = spec["workload"]
        self.seeds = spec["seeds"]
        self.out_dir = spec["work_dir"]
        self.data_path = spec["data_path"]
        self.presets = workloads.WORKLOAD_PRESETS[self.name]
        self.scheme_preset = benfordsim.scheme_preset
        if self.name == "ensemble_final":
            self.plain = benfordsim.run_experiment
            self.traced = tracer.wrap(self.plain, "experiments.run_experiment")
        else:
            self.plain = cli.main
            self.traced = tracer.wrap(self.plain, "cli.main")
        self.outputs = [Path(p) for p in self._output_paths()]

    @property
    def keys(self) -> int:
        return len(self.seeds) if self.presets else 1

    def _output_paths(self) -> list[str]:
        if self.name == "ensemble_final":
            return []
        if self.name == "staged_cli":
            return [f"{self.out_dir}/{p}.{ext}" for p in self.presets for ext in ("csv", "values", "hist")]
        return [f"{self.out_dir}/report.json"]

    def bytes_read(self) -> int:
        return Path(self.data_path).stat().st_size if self.data_path else 0

    def prepare(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def run(self, key: int, traced: bool):
        """The timed body of one operation; returns what ``output`` digests."""
        entry = self.traced if traced else self.plain
        if self.name == "ensemble_final":
            seed = self.seeds[key]
            return [entry(self.scheme_preset(p, seed)) for p in self.presets]
        if self.name == "staged_cli":
            argvs = [workloads.staged_argv(p, self.seeds[key], self.out_dir) for p in self.presets]
        else:
            argvs = [workloads.analyze_argv(self.data_path, self.out_dir)]
        for argv in argvs:
            code = entry(argv)
            if code != 0:
                raise OpFailed(f"benfordsim {' '.join(argv)} exited with {code}")
        return None

    def output(self, result) -> str:
        if self.name == "ensemble_final":
            return ensemble_output(result)
        return json.dumps({p.name: p.read_text() for p in self.outputs})

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.outputs if p.exists())

    def probe_values(self, first_output: str | None) -> list[float]:
        """A sample of the workload's own values for the first-digit probe."""
        if self.data_path:
            with open(self.data_path) as f:
                return [float(line) for line, _ in zip(f, range(PROBE_SIZE))]
        if first_output is None:
            return []
        if self.name == "ensemble_final":
            return [x for run in json.loads(first_output) for x in run["values"]]
        files = json.loads(first_output)
        return [float(line) for p in self.presets for line in files[f"{p}.values"].splitlines()]


def fsd_probe(values: list[float], speed: Speedometer) -> float | None:
    """Median scaled ns per ``first_significant_digit`` call over ``values``."""
    from benfordsim import digits

    fsd = getattr(digits, "first_significant_digit", None)
    if fsd is None or not values:
        return None
    rates = []
    for _ in range(PROBE_REPEATS):
        with speed:
            t0 = perf_counter()
            for x in values:
                fsd(x)
            elapsed = perf_counter() - t0
        rates.append(scale(elapsed, speed.calibration) / len(values) * 1e9)
    return statistics.median(rates)


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    import benfordsim

    if not Path(benfordsim.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"benfordsim imported from {benfordsim.__file__}, not from {spec['src']}")
    tracer = Tracer()
    speed = Speedometer()
    work = Workload(spec, tracer)
    trace = spec["trace"]
    ops = []
    first_outputs: dict[int, str] = {}
    io = {"read": 0, "written": 0}

    def one_op(key: int, pass_no: int, traced: bool) -> None:
        work.prepare()
        gc.collect()
        error = None
        with speed:
            t0 = perf_counter()
            try:
                result = work.run(key, traced)
            except Exception as exc:  # one failed operation must not end the run
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
        cal_s = speed.calibration
        if error is None:
            try:
                text = work.output(result)
            except (OSError, UnicodeDecodeError) as exc:
                error = f"unreadable output: {exc}"
        if traced:
            tracer.fold(scale(1.0, cal_s))
            io["read"] += work.bytes_read()
            io["written"] += work.bytes_written()
        op = {"key": key, "pass": pass_no, "traced": traced, "s": elapsed, "cal_s": cal_s,
              "error": error}
        if error is None:
            op["digest"] = hashlib.sha256(text.encode()).hexdigest()
            if key not in first_outputs:
                first_outputs[key] = text
        ops.append(op)

    one_op(0, -1, False)  # warm-up
    start = perf_counter()
    pass_no = 0
    while True:
        traced = trace and pass_no % 2 == 1
        if traced:
            tracer.install()
        for key in range(work.keys):
            one_op(key, pass_no, traced)
        tracer.uninstall()
        pass_no += 1
        if perf_counter() - start >= spec["seconds"] and pass_no >= (2 if trace else 1):
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "ops": ops,
        "first_outputs": {str(k): v for k, v in first_outputs.items()},
        "peak_rss_kb": peak_rss_kb,
    }
    if trace:
        result["trace"] = tracer.summary()
        result["trace"]["bytes_read"] = io["read"]
        result["trace"]["bytes_written"] = io["written"]
        result["fsd_ns_per_value"] = fsd_probe(work.probe_values(first_outputs.get(0)), speed)
    Path(spec["result_path"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
