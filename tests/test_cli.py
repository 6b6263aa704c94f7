import errno
import hashlib
import json
import math
import os
import random
import signal
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from benfordsim import cli, stats
from benfordsim.cli import _parse_dataset, main
from benfordsim.errors import ConfigError, DomainError
from benfordsim.experiments import CSV_HEADER

EARTHQUAKE_CSV = "src/benfordsim/data/earthquake_intervals.csv"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- presets -----------------------------------------------------------------


def test_presets_lists_all_schemes(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    a_line = next(l for l in lines if l.startswith("A:"))
    assert "L=2000 C=8000 uniform" in a_line
    c_line = next(l for l in lines if l.startswith("C:"))
    assert "ratio=0.85" in c_line


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "benfordsim.cli", "presets"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Gradual_A" in proc.stdout


# --- run ---------------------------------------------------------------------


def test_run_preset_emits_final_row_table(capsys):
    code, out, err = run_cli(capsys, "run", "--preset", "A", "--seed", "42")
    assert code == 0
    assert "seed: 42" in err
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("8000,")


def test_run_staged_preset_has_one_row_per_checkpoint(capsys):
    code, out, _ = run_cli(capsys, "run", "--preset", "Gradual_A", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 14
    cycles = [line.split(",")[0] for line in lines[1:]]
    assert cycles == [
        "0", "500", "1000", "1500", "2000", "2500", "3000", "4000",
        "5000", "6000", "7000", "8000", "10000", "13000",
    ]
    assert lines[1].startswith("0,100.0000,")


def test_run_output_is_byte_identical_for_a_seed(capsys, tmp_path):
    argv = ["run", "--preset", "Small_100", "--seed", "99"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_run_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--preset", "C", "--seed", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["cycle"] == 3000
    assert len(payload[0]["digit_pct"]) == 9


def test_run_generates_and_reports_a_seed_when_omitted(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "noseed.cfg"
    cfg.write_text("ball_count = 10\ninitial_value = 1\ncycles = 30\npolicy = uniform\n")
    reads = []

    def counted_open(path, *args, **kwargs):
        reads.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counted_open, raising=False)
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert "seed: " in err
    assert reads == [str(cfg)]  # the file without a seed key is read once

    code, out, err = run_cli(capsys, "run", "--preset", "Small_100")
    assert code == 0
    seed_lines = [l for l in err.splitlines() if l.startswith("seed: ")]
    assert len(seed_lines) == 1
    reported = int(seed_lines[0].split(": ")[1])

    # replaying the reported seed reproduces the run exactly
    code2, out2, _ = run_cli(capsys, "run", "--preset", "Small_100", "--seed", str(reported))
    assert code2 == 0
    assert out2 == out


def test_run_config_file_and_value_emission(capsys, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "ball_count = 40\ninitial_value = 1\ncycles = 120\n"
        "policy = fixed\nratio = 0.3\nseed = 8\ncheckpoints = 0, 120\n"
    )
    values_path = tmp_path / "final.txt"
    hist_path = tmp_path / "hist.csv"
    code, out, err = run_cli(
        capsys,
        "run",
        "--config",
        str(cfg),
        "--emit-values",
        str(values_path),
        "--emit-hist",
        str(hist_path),
        "--hist-bin-width",
        "0.5",
    )
    assert code == 0
    assert "seed: 8" in err
    assert len(out.strip().splitlines()) == 3

    values = [float(line) for line in values_path.read_text().splitlines()]
    assert len(values) == 40
    assert all(v > 0 for v in values)

    hist_lines = hist_path.read_text().splitlines()
    assert hist_lines[0] == "bin,log10_lo,log10_hi,count"
    assert sum(int(line.split(",")[3]) for line in hist_lines[1:]) == 40


# sha256 of the --emit-hist file of `run --preset P --seed 1 --hist-bin-width W`.
GOLDEN_HIST_DIGESTS = {
    ("Gradual_A", "0.25"): "7ef6267a7ac2c7ebdf3b83e59f6bba326e768f9c4d2bb85a2ce4d07c73d2a584",
    ("Gradual_A", "0.1"): "389113965b1ac40fcae2dab238776d90ed9ce7fcd99afba911887bbdac7c4988",
    ("Gradual_A", "7.3"): "e5fe08711732a6a1eab6b6a6c5cf63a59d3e2d56d724925bc0e5d375697024b3",
    ("Small_100", "0.25"): "ae9f122a295bcd003b4ed36d6a2856774716c38cf5b854b5063f218b2714a3b3",
    ("Small_100", "0.1"): "1ebd3348994010005e0e94fb98dc4452bfe466cec1affce6915b05080e73cf76",
    ("Small_100", "7.3"): "e6719aafb4730d956baa8d6171fa8345dd7f73e0b2bf6a6f3f0ee84edc40329f",
    ("Small_100", "1e-300"): "b116c1abdd283e0dd48a971cbdaa333d93e1adf2455889fd4c4214d782324b72",
}


@pytest.mark.parametrize("preset, width", sorted(GOLDEN_HIST_DIGESTS))
def test_histogram_file_matches_golden_digest(capsys, tmp_path, preset, width):
    hist = tmp_path / "hist.csv"
    code, _, _ = run_cli(
        capsys, "run", "--preset", preset, "--seed", "1",
        "--emit-hist", str(hist), "--hist-bin-width", width,
    )
    assert code == 0
    assert hashlib.sha256(hist.read_bytes()).hexdigest() == GOLDEN_HIST_DIGESTS[preset, width]


# sha256 of the --emit-values file of `run --preset P --seed 1`.
GOLDEN_VALUES_DIGESTS = {
    "Gradual_A": "6b322d454710d34d1eeba0f9691bb35b1db4e0d2747ba3392e34d6fcbd0744c1",
    "Small_100": "d71d115fe73ad2404d465a237d3ba1f05b9ea28114a6dee54f397f0189008b6a",
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_VALUES_DIGESTS))
def test_values_file_matches_golden_digest(capsys, tmp_path, preset):
    values = tmp_path / "values.txt"
    code, _, _ = run_cli(capsys, "run", "--preset", preset, "--seed", "1", "--emit-values", str(values))
    assert code == 0
    assert hashlib.sha256(values.read_bytes()).hexdigest() == GOLDEN_VALUES_DIGESTS[preset]


def test_run_config_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_text(
        "\ufeffball_count = 10\ninitial_value = 1\ncycles = 30\npolicy = uniform\nseed = 4\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert "seed: 4" in err
    assert out.startswith(CSV_HEADER)


def test_run_seed_flag_overrides_config_seed(capsys, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "ball_count = 10\ninitial_value = 1\ncycles = 30\npolicy = uniform\nseed = 1\n"
    )
    _, _, err = run_cli(capsys, "run", "--config", str(cfg), "--seed", "123")
    assert "seed: 123" in err


def test_run_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "missing.cfg")
    assert code == 2
    assert "error" in err


def test_run_unknown_preset_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--preset", "Z", "--seed", "1")
    assert code == 2
    assert "preset" in err


def test_run_preset_names_ignore_case(capsys):
    run = ["run", "--seed", "1", "--preset"]
    for given, known in (("c", "C"), ("small_100", "Small_100")):
        assert run_cli(capsys, *run, given) == run_cli(capsys, *run, known)
    known_list = "A, B, C, Gradual_A, Small_100"
    error = f"error: unknown preset 'small-100'; known presets: {known_list}\n"
    assert run_cli(capsys, *run, "small-100") == (2, "", error)


def test_run_invalid_config_contents_exits_2(capsys, tmp_path):
    base = "initial_value = 1\ncycles = 10\npolicy = uniform\n"
    cases = [
        ("ball_count = -5\nseed = 1\n", "ball"),
        ("ball_count = 10\nseed = 1\nlineage = true\n", "unknown key 'lineage'"),
        ("ball_count = 10\nseed = -5\n", "seed"),
        (f"ball_count = 10\nseed = {2**64}\n", "seed"),
        ("ball_count = 10\nseed = 1.5\n", "seed"),
    ]
    cfg = tmp_path / "broken.cfg"
    for text, fragment in cases:
        cfg.write_text(base + text)
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2, text
        assert fragment in err, text
        assert out == "", text


def test_run_that_underflows_exits_1_after_the_seed_line_and_writes_nothing(capsys, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("ball_count = 2\ninitial_value = 5e-324\ncycles = 5\npolicy = uniform\nseed = 1\n")
    error = "error: splitting 5e-324 at ratio 0.5692038748222122 underflowed to zero\n"
    code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "t.csv"))
    assert (code, out, err) == (1, "", "seed: 1\n" + error)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.cfg"]


def test_run_whose_total_overflows_exits_2_before_any_output(capsys, tmp_path):
    # Two balls of 1e308 would merge into inf, so the config is refused
    # before the seed line, and no output file is started.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(
        "ball_count = 2\ninitial_value = 1e308\ncycles = 50\n"
        "policy = uniform\nseed = 1\ncheckpoints = 0\n"
    )
    outputs = ["--out", "t.csv", "--emit-values", "v.txt", "--emit-hist", "h.csv"]
    outputs[1::2] = [str(tmp_path / name) for name in outputs[1::2]]
    error = "error: ball_count * initial_value must not exceed the largest double\n"
    assert run_cli(capsys, "run", "--config", str(cfg), *outputs) == (2, "", error)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.cfg"]


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_run_seed_outside_64_bits_exits_2(capsys, seed):
    code, out, err = run_cli(capsys, "run", "--preset", "Small_100", "--seed", seed)
    assert code == 2
    assert "seed" in err
    assert out == ""


@pytest.mark.parametrize("width", ["-1", "0", "nan", "inf", "1e-307", "1e-310"])
def test_run_bad_hist_bin_width_exits_2_before_running(capsys, tmp_path, width):
    out_path = tmp_path / "table.csv"
    code, out, err = run_cli(
        capsys,
        "run",
        "--preset",
        "Small_100",
        "--seed",
        "1",
        "--out",
        str(out_path),
        "--emit-hist",
        str(tmp_path / "hist.csv"),
        "--hist-bin-width",
        width,
    )
    assert code == 2
    assert "--hist-bin-width" in err
    assert "seed:" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_run_tiny_hist_bin_width_names_the_overflow(capsys, tmp_path):
    # A positive finite width is refused only when log10 of the smallest
    # double over it overflows; the message says so, and so does log_histogram's.
    hist = tmp_path / "hist.csv"
    argv = ["run", "--preset", "Small_100", "--seed", "1", "--emit-hist", str(hist)]
    code, out, err = run_cli(capsys, *argv, "--hist-bin-width", "1e-310")
    why = "is too small: log10 of the smallest double / width overflows"
    assert (code, out, err) == (2, "", f"error: --hist-bin-width 1e-310 {why}\n")
    with pytest.raises(DomainError, match=f"^bin width 1e-310 {why}$"):
        stats.log_histogram([1.0], 1e-310)


def test_consecutive_main_calls_share_no_state(capsys, tmp_path):
    # main parses with one parser for the whole process; no call may see
    # what an earlier one parsed.
    hist = tmp_path / "h1.csv"
    run = ["run", "--preset", "Small_100", "--seed", "1"]
    assert run_cli(capsys, *run, "--emit-hist", str(hist))[0] == 0
    hist.unlink()
    code, out, _ = run_cli(capsys, *run)
    assert code == 0 and out.startswith(CSV_HEADER)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "A", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "run", "--preset", "Small_100", "--seed", "1") == (0, out, "seed: 1\n")


RUN_WITH_ALL_OUTPUTS = (
    "run --preset Small_100 --seed 1 --out {tmp}/t.csv --emit-values {tmp}/v.txt --emit-hist {tmp}/h.csv"
)

OUTPUT_FLAGS = pytest.mark.parametrize(
    "command, flag",
    [
        (RUN_WITH_ALL_OUTPUTS, "--out"),
        (RUN_WITH_ALL_OUTPUTS, "--emit-values"),
        (RUN_WITH_ALL_OUTPUTS, "--emit-hist"),
        (f"analyze {EARTHQUAKE_CSV} --out {{tmp}}/r.csv", "--out"),
    ],
    ids=["run-out", "run-emit-values", "run-emit-hist", "analyze-out"],
)


@OUTPUT_FLAGS
def test_missing_output_directory_exits_2_before_running(capsys, tmp_path, command, flag):
    argv = command.format(tmp=tmp_path).split()
    argv[argv.index(flag) + 1] = str(tmp_path / "missing" / "file")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "directory does not exist" in err
    assert "seed:" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@OUTPUT_FLAGS
def test_empty_output_path_exits_2_before_running(capsys, tmp_path, command, flag):
    # An unset shell variable gives an empty path; it must not mean stdout or nothing.
    argv = command.format(tmp=tmp_path).split()
    argv[argv.index(flag) + 1] = ""
    assert run_cli(capsys, *argv) == (2, "", f"error: {flag} names an empty path\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "outputs, refused",
    [
        ("--out {tmp}/link.csv", "{tmp}/link.csv: its directory does not exist"),
        pytest.param(
            "--out {tmp}/t.csv --emit-values /proc/v.txt", "/proc/v.txt: No such file or directory",
            marks=pytest.mark.skipif(sys.platform != "linux", reason="needs the /proc of Linux"),
        ),
        ("--out {tmp}/t.csv --emit-values {tmp}/loop2", "{tmp}/loop2: Too many levels of symbolic links"),
    ],
    ids=["symlink-into-missing-directory", "directory-that-takes-no-new-file", "symlink-loop"],
)
def test_output_the_write_would_fail_on_exits_2_before_running(capsys, tmp_path, outputs, refused):
    links = {"link.csv": tmp_path / "missing" / "t.csv", "loop1": tmp_path / "loop2", "loop2": tmp_path / "loop1"}
    for name, target in links.items():
        (tmp_path / name).symlink_to(target)
    argv = ["run", "--preset", "C", "--seed", "1", *outputs.format(tmp=tmp_path).split()]
    assert run_cli(capsys, *argv) == (2, "", f"error: cannot write {refused.format(tmp=tmp_path)}\n")
    assert {p.name: Path(os.readlink(p)) for p in tmp_path.iterdir()} == links


@OUTPUT_FLAGS
def test_output_path_that_is_a_directory_exits_2_before_running(capsys, tmp_path, command, flag):
    argv = command.format(tmp=tmp_path).split()
    taken = tmp_path / "taken"
    taken.mkdir()
    argv[argv.index(flag) + 1] = str(taken)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"cannot write {taken}: it is a directory" in err
    assert "seed:" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == [taken]
    assert list(taken.iterdir()) == []


@pytest.mark.parametrize(
    "command, clash",
    [
        ("run --preset C --seed 1 --out {tmp}/t.csv --emit-values {tmp}/t.csv",
         "--emit-values names the same file as --out"),
        ("run --preset C --seed 1 --out {tmp}/t.csv --emit-hist {tmp}/./t.csv",
         "--emit-hist names the same file as --out"),
        ("run --preset C --seed 1 --emit-values {tmp}/v.txt --emit-hist {tmp}/link.txt",
         "--emit-hist names the same file as --emit-values"),
        ("run --config {tmp}/c.cfg --emit-values {tmp}/c.cfg", "--emit-values names the same file as --config"),
        ("analyze {tmp}/d.csv --out {tmp}/d.csv", "--out names the same file as the input"),
    ],
    ids=["values-out", "hist-out-dotted", "hist-values-symlink", "values-config", "analyze-out-input"],
)
def test_output_naming_another_output_or_the_input_exits_2_before_running(
    capsys, tmp_path, command, clash
):
    # Writing both would lose one of them, or replace the input with its own report.
    (tmp_path / "d.csv").write_text("1.5\n2.5\n3.5\n")
    (tmp_path / "c.cfg").write_text("ball_count = 10\ninitial_value = 1\ncycles = 30\npolicy = uniform\nseed = 4\n")
    (tmp_path / "link.txt").symlink_to(tmp_path / "v.txt")
    def files():
        return sorted((p.name, p.read_bytes() if p.exists() else None) for p in tmp_path.iterdir())

    before = files()
    code, out, err = run_cli(capsys, *command.format(tmp=tmp_path).split())
    assert code == 2
    assert clash in err
    assert "seed:" not in err
    assert out == ""
    assert files() == before


def test_a_device_file_may_take_several_outputs(capsys):
    argv = "run --preset C --seed 1 --out /dev/null --emit-values /dev/null --emit-hist /dev/null"
    assert run_cli(capsys, *argv.split()) == (0, "", "seed: 1\n")


def test_dev_stdout_into_a_pipe_is_written_in_place(capsys, tmp_path):
    run = ["run", "--preset", "Small_100", "--seed", "1"]
    values = tmp_path / "v.txt"
    _, table, _ = run_cli(capsys, *run, "--emit-values", str(values))
    proc = subprocess.run(
        [sys.executable, "-m", "benfordsim.cli", *run, "--out", "/dev/stdout", "--emit-values", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, table + values.read_text(), "seed: 1\n")


@pytest.mark.parametrize(
    "stream, outputs, logged",
    [
        ("stdout", "--out /dev/stdout", "earlier\n{table}"),
        ("stdout", "--emit-values /dev/stdout", "earlier\n{table}{values}"),
        ("stdout", "--out /dev/stdout --emit-values /dev/stdout", "earlier\n{table}{values}"),
        ("stderr", "--out /dev/stderr", "earlier\nseed: 1\n{table}"),
        ("stderr", "--out /dev/stderr --emit-values /dev/stderr", "earlier\nseed: 1\n{table}{values}"),
    ],
    ids=["stdout-out", "stdout-values", "stdout-out-and-values", "stderr-out", "stderr-out-and-values"],
)
def test_output_naming_the_file_of_stdout_or_stderr_goes_through_that_stream(
    capsys, tmp_path, stream, outputs, logged
):
    # As with `run ... >> log`, the file open on the stream is appended to, not replaced.
    run = ["run", "--preset", "Small_100", "--seed", "1"]
    values = tmp_path / "v.txt"
    _, table, _ = run_cli(capsys, *run, "--emit-values", str(values))
    log = tmp_path / "log"
    log.write_text("earlier\n")
    with open(log, "a") as f:
        proc = subprocess.run(
            [sys.executable, "-m", "benfordsim.cli", *run, *outputs.split()],
            stdout=f if stream == "stdout" else subprocess.PIPE,
            stderr=f if stream == "stderr" else subprocess.PIPE,
            text=True, timeout=60,
        )
    other = proc.stderr if stream == "stdout" else proc.stdout
    assert (proc.returncode, other) == (0, "seed: 1\n" if stream == "stdout" else "")
    assert log.read_text() == logged.format(table=table, values=values.read_text())


class HalfWriter:
    """A file whose write stores half the text and then fails, as on a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fail_at", ["write", "rename"])
def test_failed_write_leaves_no_partial_or_temp_file(capsys, tmp_path, monkeypatch, fail_at):
    table = tmp_path / "table.csv"
    table.write_text("old table\n")
    if fail_at == "write":
        monkeypatch.setattr(cli, "open", lambda path, mode: HalfWriter(open(path, mode)), raising=False)
    else:

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli.os, "replace", full_disk)
    code, _, err = run_cli(
        capsys, "run", "--preset", "Small_100", "--seed", "1", "--out", str(table)
    )
    assert code == 2
    assert "No space left" in err
    assert table.read_text() == "old table\n"
    assert list(tmp_path.iterdir()) == [table]


def test_a_failed_write_leaves_none_of_the_runs_files(capsys, tmp_path, monkeypatch):
    table = tmp_path / "t.csv"
    table.write_text("old table\n")
    opened = []

    def third_file_fills_the_disk(path, mode):
        opened.append(path)
        return HalfWriter(open(path, mode)) if len(opened) == 3 else open(path, mode)

    monkeypatch.setattr(cli, "open", third_file_fills_the_disk, raising=False)
    code, out, err = run_cli(capsys, *RUN_WITH_ALL_OUTPUTS.format(tmp=tmp_path).split())
    assert (code, out) == (2, "")
    assert "No space left" in err
    assert len(opened) == 3
    assert table.read_text() == "old table\n"
    assert list(tmp_path.iterdir()) == [table]


def test_a_killed_run_leaves_only_its_config(tmp_path):
    # No temp file is held open across the run, so a kill leaves none behind.
    config = tmp_path / "long.cfg"
    config.write_text("ball_count = 100\ninitial_value = 1\ncycles = 1000000000\npolicy = uniform\nseed = 1\n")
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "t.csv"), "--emit-values", str(tmp_path / "v.txt")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "benfordsim.cli", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stderr.readline() == "seed: 1\n"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == -signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert list(tmp_path.iterdir()) == [config]


def test_outputs_keep_the_file_mode_links_and_pipes(capsys, tmp_path):
    # A new file gets the mode Path.write_text gives it; a symlink keeps
    # pointing at the file it names; a pipe (like /dev/stdout) is written in place.
    reference = tmp_path / "reference"
    reference.write_text("")
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    fifo = tmp_path / "values.fifo"
    os.mkfifo(fifo)
    hist = tmp_path / "hist.csv"
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, _ = run_cli(
            capsys, "run", "--preset", "Small_100", "--seed", "1",
            "--out", str(link), "--emit-values", str(fifo), "--emit-hist", str(hist),
        )
        piped = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0
    assert stat.S_IMODE(hist.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    assert link.is_symlink()
    assert real.read_text().startswith(CSV_HEADER)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert len(piped.splitlines()) == 100
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "hist.csv", "link.csv", "real.csv", "reference", "values.fifo",
    ]


@pytest.mark.parametrize("existing, most", [(False, 11), (True, 8)], ids=["new-files", "existing-files"])
def test_outputs_stat_each_path_once(tmp_path, monkeypatch, existing, most):
    # One stat of each path decides it, fds 1 and 2 are stat'ed once each, and
    # one stat at exit gives each replaced file's mode.
    paths = {flag: str(tmp_path / flag[2:]) for flag in ("--out", "--emit-values", "--emit-hist")}
    for path in paths.values() if existing else ():
        Path(path).write_text("old\n")
    calls = []

    def counted(call):
        return lambda *args, **kwargs: calls.append(call.__name__) or call(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(os, "stat", counted(os.stat))
        m.setattr(os, "fstat", counted(os.fstat))
        with cli._outputs(paths, "the input", None) as texts:
            texts.update(dict.fromkeys(paths, "new\n"))
    assert len(calls) <= most, calls
    assert sorted(p.read_text() for p in tmp_path.iterdir()) == ["new\n"] * 3


def test_overwritten_outputs_keep_their_permission_bits(capsys, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("old\n")
    table.chmod(0o600)
    real = tmp_path / "values.txt"
    real.write_text("old\n")
    real.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    code, _, _ = run_cli(
        capsys, "run", "--preset", "Small_100", "--seed", "1",
        "--out", str(table), "--emit-values", str(link),
    )
    assert code == 0
    assert table.read_text().startswith(CSV_HEADER)
    assert len(real.read_text().splitlines()) == 100
    assert stat.S_IMODE(table.stat().st_mode) == 0o600
    assert stat.S_IMODE(real.stat().st_mode) == 0o640


# --- analyze -----------------------------------------------------------------


def test_parse_dataset_reports_every_kind_of_line_exactly():
    text = (
        "  value  \n"  # header: skipped
        "\n"
        "  12.5\t\n"
        "   \n"
        "nan\n"
        " -inf \n"
        "inf\n"
        "0\n"
        " -3.25\n"
        "wat now\n"
        "1e-400\n"  # rounds to 0.0
        "7\n"
    )
    assert _parse_dataset(text) == (
        [12.5, 7.0],
        [
            (5, "nan", "not finite"),
            (6, "-inf", "not finite"),
            (7, "inf", "not finite"),
            (8, "0", "not strictly positive"),
            (9, "-3.25", "not strictly positive"),
            (10, "wat now", "not a number"),
            (11, "1e-400", "not strictly positive"),
        ],
    )


def test_parse_dataset_strips_every_kind_of_padding():
    # float alone rejects "\x1c".."\x1f" around a number; str.strip drops them,
    # NEL and the ideographic space ("\x1c".."\x1e" and NEL also end a line
    # for str.splitlines). A line of "\x1f" only is blank.
    pads = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000"]
    lines = ["value"] + [f"{pad}{k + 1}.5{pad}" for k, pad in enumerate(pads)] + ["\x1f\x1f", "8"]
    assert _parse_dataset("\n".join(lines)) == ([1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 8.0], [])
    assert _parse_dataset("\x1f-8\u3000\n\x1f\n") == ([], [(1, "-8", "not strictly positive")])


def test_analyze_tallies_each_value_once(capsys, monkeypatch):
    from benfordsim import stats

    calls = []
    tally = stats.tally_digits
    monkeypatch.setattr(stats, "tally_digits", lambda values: calls.append(1) or tally(values))
    code, _, _ = run_cli(capsys, "analyze", EARTHQUAKE_CSV)
    assert code == 0
    assert len(calls) == 1


def test_analyze_earthquake_fixture(capsys):
    code, out, _ = run_cli(capsys, "analyze", EARTHQUAKE_CSV)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digit,count,observed_pct,benford_pct"
    counts = [int(line.split(",")[1]) for line in lines[1:10]]
    assert counts == [15, 8, 6, 4, 4, 0, 2, 1, 0]
    observed = [float(line.split(",")[2]) for line in lines[1:10]]
    assert observed == pytest.approx([37.5, 20, 15, 10, 10, 0, 5, 2.5, 0])
    assert "n,40" in out


def test_analyze_json_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", EARTHQUAKE_CSV, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 40
    assert payload["counts"] == [15, 8, 6, 4, 4, 0, 2, 1, 0]
    assert payload["ssd"] == pytest.approx(144.3767, abs=0.001)


def test_analyze_header_is_auto_detected(capsys, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("interval_seconds\n12.5\n40\n799\n")
    code, out, _ = run_cli(capsys, "analyze", str(data))
    assert code == 0
    assert "n,3" in out


def test_analyze_reads_utf8_with_or_without_a_byte_order_mark(capsys, tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"1.5\n2.5\n3.5\n")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
    code, out, _ = run_cli(capsys, "analyze", str(bom))
    assert code == 0
    assert "n,3" in out
    assert run_cli(capsys, "analyze", str(plain)) == (0, out, "")


@pytest.mark.parametrize(
    "command, content",
    [
        ("analyze {path}", b"1.5\n\xff2.5\n"),
        ("run --config {path}", b"ball_count = 10\ninitial_value = 1\xff\ncycles = 30\npolicy = uniform\nseed = 1\n"),
    ],
    ids=["analyze", "run-config"],
)
def test_undecodable_input_file_exits_2(capsys, tmp_path, command, content):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, *command.format(path=path).split())
    assert code == 2
    assert err.startswith(f"error: {path}: ")
    assert "can't decode byte 0xff" in err
    assert out == ""


def test_analyze_zero_value_names_the_line(capsys, tmp_path):
    data = tmp_path / "dirty.csv"
    data.write_text("5.5\n0\n12\n")
    code, _, err = run_cli(capsys, "analyze", str(data))
    assert code == 1
    assert "line 2" in err


def test_analyze_negative_and_garbage_lines(capsys, tmp_path):
    data = tmp_path / "dirty.csv"
    data.write_text("count\n5.5\n-3\nwat\n9\n")
    code, _, err = run_cli(capsys, "analyze", str(data))
    assert code == 1
    assert "line 3" in err
    assert "line 4" in err


def test_analyze_synthetic_benford_file(capsys, tmp_path):
    data = tmp_path / "benford.csv"
    lines = []
    for d, count in zip(range(1, 10), (301, 176, 125, 97, 79, 67, 58, 51, 46)):
        lines.extend([f"{d}.0"] * count)
    data.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "analyze", str(data))
    assert code == 0
    ssd_line = next(l for l in out.splitlines() if l.startswith("ssd,"))
    assert float(ssd_line.split(",")[1]) < 0.1


def test_analyze_unreadable_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "no-such-file.csv")
    assert code == 2
    assert "error" in err


def test_analyze_empty_file_is_an_error(capsys, tmp_path):
    data = tmp_path / "empty.csv"
    for text in ("", "value\n"):
        data.write_text(text)
        assert run_cli(capsys, "analyze", str(data)) == (1, "", f"error: {data}: no data values found\n")


def test_analyze_names_the_first_20_bad_lines_and_counts_the_rest(capsys, tmp_path):
    data = tmp_path / "negative.csv"
    data.write_text("".join(f"-{k}\n" for k in range(1, 26)))
    err = "".join(f"error: line {k}: not strictly positive: '-{k}'\n" for k in range(1, 21))
    assert run_cli(capsys, "analyze", str(data)) == (1, "", err + "error: ... and 5 more bad lines\n")


def log_uniform_lines(n, seed):
    """``n`` reprs of doubles log-uniform over the normal range, one per line."""
    rng = random.Random(seed)
    return [repr(math.ldexp(2.0 ** rng.random(), rng.randrange(-1022, 1024))) for _ in range(n)]


ANALYZE_DATASETS = {
    "log_uniform": lambda: "".join(f"{x}\n" for x in log_uniform_lines(100_000, 8)),
    "log_uniform_header_crlf": lambda: "value\r\n" + "".join(f"{x}\r\n" for x in log_uniform_lines(100_000, 8)),
    "earthquake": lambda: Path(EARTHQUAKE_CSV).read_text(),
}

# sha256 of `analyze DATASET --format F` stdout.
GOLDEN_ANALYZE_DIGESTS = {
    ("earthquake", "csv"): "40232e89cb9af0f1016560f9505c83ed902b2f824d5c71e6a17c4ddcc964ae9a",
    ("earthquake", "json"): "592f368716f85c01d9c4fcd35a87eb061f6835f31167ae6d1c953672f2a97c2e",
    ("log_uniform", "csv"): "d4ecea1e101e0603fcfc421a8fda969d5e34865760d96579a9917707de295e20",
    ("log_uniform", "json"): "649e8006816a57c3b3faa558a4827f4a493db4336d0f35fb10ba16c116cfbfb2",
    ("log_uniform_header_crlf", "csv"): "d4ecea1e101e0603fcfc421a8fda969d5e34865760d96579a9917707de295e20",
    ("log_uniform_header_crlf", "json"): "649e8006816a57c3b3faa558a4827f4a493db4336d0f35fb10ba16c116cfbfb2",
}


def in_parts(monkeypatch, part_bytes, cpus=3):
    """Make `analyze` cut a file into parts of at least ``part_bytes`` as if
    ``cpus`` CPUs were available; returns the list of the children it starts."""
    monkeypatch.setattr(cli, "_PART_BYTES", part_bytes)
    monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


# The 100,000-line datasets (~2.4 MB) are one part at the default part size
# and three, two of them in children, at 64 KiB.
@pytest.mark.parametrize(
    "dataset, format, part_bytes",
    [
        pytest.param(dataset, format, part_bytes, id=f"{dataset}-{format}{suffix}")
        for dataset, format in sorted(GOLDEN_ANALYZE_DIGESTS)
        for part_bytes, suffix in ((cli._PART_BYTES, ""), (64 << 10, "-64KiB_parts"))
    ],
)
def test_analyze_output_matches_golden_digest(capsys, tmp_path, monkeypatch, dataset, format, part_bytes):
    started = in_parts(monkeypatch, part_bytes)
    data = tmp_path / "data.csv"
    data.write_bytes(ANALYZE_DATASETS[dataset]().encode())
    code, out, err = run_cli(capsys, "analyze", str(data), "--format", format)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ANALYZE_DIGESTS[dataset, format]
    assert len(started) == (2 if dataset != "earthquake" and part_bytes == 64 << 10 else 0)


# Lines of numbers, mostly clean, with every shape the dataset parser treats
# apart: blanks, headers, values out of range, "\x1f" padding (str.strip drops
# it, float does not), underscores, full-width digits and the line breaks of
# str.splitlines that are not "\n".
FUZZ_NUMBERS = ["1.5", "12", "3e5", "7.25e-3", " 42 ", "\t9.75", "6.02e23\x0c", "8_0", "\uff12\uff13"]
FUZZ_OTHERS = [
    "value", "interval_seconds", "", "   ", "nan", "inf", "-inf", "0", "-0.0", "-3", "1e-400",
    "\x1f2.5", "2.5\x1f", "wat", "1 2",
]
FUZZ_SEPARATORS = ["\n", "\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"]


def fuzz_dataset(rng):
    tokens = ["value"] if rng.random() < 0.3 else []
    for _ in range(rng.randrange(8)):
        tokens.append(rng.choice(FUZZ_NUMBERS if rng.random() < 0.85 else FUZZ_OTHERS))
    seps = [rng.choice(FUZZ_SEPARATORS) if rng.random() < 0.2 else "\n" for _ in tokens]
    data = "".join(t + s for t, s in zip(tokens, seps))
    if data and rng.random() < 0.2:
        data = data[:-1]
    raw = data.encode()
    if rng.random() < 0.1:
        raw = b"\xef\xbb\xbf" + raw
    if rng.random() < 0.05:
        raw += b"\xff"
    return raw


def analyze_by_the_line_parser(path, format):
    """(exit code, stdout, stderr) of `analyze PATH` built from the line parser alone."""
    try:
        text = cli._read_input(path)
    except ConfigError as exc:
        return 2, "", f"error: {exc}\n"
    values, bad = _parse_dataset(text)
    if bad:
        err = "".join(f"error: line {n}: {why}: {line!r}\n" for n, line, why in bad[:20])
        if len(bad) > 20:
            err += f"error: ... and {len(bad) - 20} more bad lines\n"
        return 1, "", err
    if not values:
        return 1, "", f"error: {path}: no data values found\n"
    return 0, cli._render_analysis(stats.analyze(values), format), ""


def test_analyze_fast_path_gives_the_line_parsers_output(capsys, tmp_path):
    rng = random.Random(20150519)
    path = str(tmp_path / "data.csv")
    codes, fast = [], 0
    for _ in range(1000):
        Path(path).write_bytes(fuzz_dataset(rng))
        format = rng.choice(["csv", "json"])
        expected = analyze_by_the_line_parser(path, format)
        assert run_cli(capsys, "analyze", path, "--format", format) == expected, Path(path).read_bytes()
        codes.append(expected[0])
        fast += cli._analyze_plain_numbers(path) is not None
    # Every outcome occurs, and the fast path answers a good share of the clean files.
    assert min(codes.count(0), codes.count(1), codes.count(2), fast) > 30


def test_analyze_in_tiny_parts_gives_the_line_parsers_output(capsys, tmp_path, monkeypatch):
    started = in_parts(monkeypatch, 4)
    rng = random.Random(1505)
    path = str(tmp_path / "data.csv")
    for _ in range(60):
        Path(path).write_bytes(fuzz_dataset(rng))
        format = rng.choice(["csv", "json"])
        expected = analyze_by_the_line_parser(path, format)
        assert run_cli(capsys, "analyze", path, "--format", format) == expected, Path(path).read_bytes()
    assert len(started) > 30


def test_analyze_explains_bad_lines_in_a_childs_part(capsys, tmp_path, monkeypatch):
    started = in_parts(monkeypatch, 16)
    data = tmp_path / "data.csv"
    data.write_text("value\n" + "1.5\n" * 40 + "-3\nnan\nwat\n")
    expected = analyze_by_the_line_parser(str(data), "csv")
    assert expected[0] == 1 and expected[2].count("error: line") == 3
    assert run_cli(capsys, "analyze", str(data)) == expected
    # The bad lines are all in the last part, and "wat" fails its child.
    assert [child.returncode for child in started] == [0, 1]


def spy_on_tallies(monkeypatch, events):
    """Append to ``events`` each run that ``stats._report`` tallies."""
    tally = stats.tally_digits
    monkeypatch.setattr(stats, "tally_digits", lambda run: events.append(run) or tally(run))


@pytest.mark.parametrize("part", ["child", "parent"])
def test_analyze_explains_a_part_whose_bad_values_float_accepts(capsys, tmp_path, monkeypatch, part):
    # float() takes every bad line here (1e-400 is 0.0), so only the check of
    # the sorted part turns it down: the last part's, in its child, or the
    # first part's, in this process before anything is tallied.
    started = in_parts(monkeypatch, 16)
    tallied = []
    spy_on_tallies(monkeypatch, tallied)
    bad, good = ["nan", "inf", "0", "-0.0", "1e-400"], ["1.5"] * 40
    data = tmp_path / "data.csv"
    data.write_text("value\n" + "".join(f"{x}\n" for x in (good + bad if part == "child" else bad + good)))
    expected = analyze_by_the_line_parser(str(data), "csv")
    assert expected[0] == 1 and expected[2].count("error: line") == 5
    assert run_cli(capsys, "analyze", str(data)) == expected
    if part == "child":
        # The runs before the failed child's are tallied; its doubles never are.
        assert [child.returncode for child in started] == [0, 1]
        assert [type(run) for run in tallied] == [list, memoryview]
    else:
        assert len(started) == 2 and 1 not in [child.returncode for child in started]
        assert tallied == []


def test_analyze_reports_on_each_childs_doubles_as_they_arrive(capsys, tmp_path, monkeypatch):
    # The parent's part is one list; each child's doubles reach the tally as
    # a memoryview, never copied into floats or merged.
    started = in_parts(monkeypatch, 64 << 10)
    tallied = []
    spy_on_tallies(monkeypatch, tallied)
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{x}\n" for x in log_uniform_lines(10_000, 9)))
    assert run_cli(capsys, "analyze", str(data))[0] == 0
    assert len(started) == 2
    assert [type(run) for run in tallied] == [list, memoryview, memoryview]
    assert sum(map(len, tallied)) == 10_000


def test_analyze_tallies_its_own_run_before_reading_any_child(capsys, tmp_path, monkeypatch):
    # The parent's tally overlaps the children's work: it comes before the
    # first read of a child's stdout, and each child's doubles are tallied
    # as they arrive.
    started = in_parts(monkeypatch, 64 << 10)
    events = []
    spy_on_tallies(monkeypatch, events)
    popen = subprocess.Popen

    class LoggedStdout:
        def __init__(self, stream):
            self.stream = stream

        def read(self):
            events.append("read")
            return self.stream.read()

        def close(self):
            self.stream.close()

    def start(*args, **kwargs):
        child = popen(*args, **kwargs)
        child.stdout = LoggedStdout(child.stdout)
        return child

    monkeypatch.setattr(subprocess, "Popen", start)
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{x}\n" for x in log_uniform_lines(10_000, 9)))
    assert run_cli(capsys, "analyze", str(data))[0] == 0
    assert len(started) == 2
    assert [event if event == "read" else type(event) for event in events] == [
        list, "read", memoryview, "read", memoryview,
    ]


@pytest.mark.parametrize("executable", [None, ""])
def test_analyze_parses_every_part_itself_without_an_interpreter_to_start(
    capsys, tmp_path, monkeypatch, executable
):
    # An embedded interpreter may leave sys.executable None or empty.
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{x}\n" for x in log_uniform_lines(1000, 5)))
    expected = run_cli(capsys, "analyze", str(data), "--format", "json")
    assert expected[0] == 0
    started = in_parts(monkeypatch, 64)
    monkeypatch.setattr(sys, "executable", executable)
    assert run_cli(capsys, "analyze", str(data), "--format", "json") == expected
    assert started == []


def test_analyze_explains_bad_lines_spread_over_the_parts(capsys, tmp_path, monkeypatch):
    # Eighty 5-byte lines cut into four parts of twenty, the last three in
    # children. The 25 bad lines, negatives and non-numbers, are in every
    # child's part, so each child fails.
    started = in_parts(monkeypatch, 16, cpus=4)
    lines = ["1.25"] * 80
    for k in range(21, 70, 2):
        lines[k] = f"{-k:4d}" if k % 4 == 1 else f"x{k:03d}"
    data = tmp_path / "data.csv"
    data.write_text("value\n" + "".join(f"{line}\n" for line in lines))
    expected = analyze_by_the_line_parser(str(data), "csv")
    assert expected[0] == 1 and expected[2].endswith("error: ... and 5 more bad lines\n")
    assert run_cli(capsys, "analyze", str(data)) == expected
    assert len(started) == 3 and started[0].returncode == 1


@pytest.mark.parametrize(
    "lines, code",
    [(["1.5"] * 60, 0), (["1.5"] * 59 + ["wat"], 1), (["wat"] + ["1.5"] * 59, 1)],
    ids=["clean", "bad-line-in-a-child", "bad-line-before-any-child-is-read"],
)
def test_no_child_outlives_analyze(capsys, tmp_path, monkeypatch, lines, code):
    started = in_parts(monkeypatch, 16)
    data = tmp_path / "data.csv"
    data.write_text("value\n" + "".join(f"{line}\n" for line in lines))
    assert run_cli(capsys, "analyze", str(data))[0] == code
    assert len(started) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_analyze_parses_the_parts_itself_when_no_child_starts(capsys, tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{x}\n" for x in log_uniform_lines(1000, 5)))
    expected = run_cli(capsys, "analyze", str(data), "--format", "json")
    assert expected[0] == 0
    in_parts(monkeypatch, 64)

    def refuse(*args, **kwargs):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    assert run_cli(capsys, "analyze", str(data), "--format", "json") == expected
    assert cli._analyze_plain_numbers(str(data)) is not None


def test_children_read_the_file_analyze_opened(capsys, tmp_path, monkeypatch):
    # The path names another file by the time the children start.
    data = tmp_path / "data.csv"
    data.write_text("".join(f"{x}\n" for x in log_uniform_lines(1000, 6)))
    expected = run_cli(capsys, "analyze", str(data))
    started = in_parts(monkeypatch, 64)
    start_child = cli._start_child

    def replace_then_start(*args):
        if not started:
            other = tmp_path / "other.csv"
            other.write_text("".join(f"{x}\n" for x in log_uniform_lines(1000, 7)))
            os.replace(other, data)
        return start_child(*args)

    monkeypatch.setattr(cli, "_start_child", replace_then_start)
    assert run_cli(capsys, "analyze", str(data)) == expected
    assert len(started) == 2


def test_import_and_a_small_analyze_load_no_subprocess():
    # Importing subprocess takes ~10 ms, which only an analyze that starts a
    # child pays.
    src = str(Path(cli.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from benfordsim import cli; "
        "print('pathlib' in sys.modules); "
        "print('subprocess' in sys.modules); cli.main(['analyze', sys.argv[1]]); "
        "print('subprocess' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, EARTHQUAKE_CSV], capture_output=True, text=True, check=True
    )
    lines = out.stdout.splitlines()
    assert (lines[0], lines[1], lines[-1]) == ("False", "False", "False")
    assert "n,40" in lines


def analyze_from_a_fifo(fifo, data):
    """`analyze` in a child process on a new FIFO that ``data`` is written into once."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()  # blocks in open() until analyze opens the FIFO for reading
    proc = subprocess.run(
        [sys.executable, "-m", "benfordsim.cli", "analyze", str(fifo)],
        capture_output=True, text=True, timeout=60,
    )
    writer.join(timeout=10)
    assert not writer.is_alive()
    return proc.returncode, proc.stdout, proc.stderr


def test_analyze_reads_a_fifo_once(capsys, tmp_path):
    assert analyze_from_a_fifo(tmp_path / "bad.fifo", b"value\n1.5\n2.5\n-3\n4.5\n") == (
        1, "", "error: line 4: not strictly positive: '-3'\n",
    )
    clean = "".join(f"{x}\n" for x in log_uniform_lines(1000, 3))
    data = tmp_path / "data.csv"
    data.write_text(clean)
    code, out, err = run_cli(capsys, "analyze", str(data))
    assert code == 0
    assert analyze_from_a_fifo(tmp_path / "clean.fifo", clean.encode()) == (0, out, err)
