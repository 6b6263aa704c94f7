import errno
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from benfordsim import cli
from benfordsim.cli import _parse_dataset, main
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
    read_text = Path.read_text

    def counted_read_text(path):
        reads.append(path)
        return read_text(path)

    monkeypatch.setattr(Path, "read_text", counted_read_text)
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert "seed: " in err
    assert reads == [cfg]  # the file without a seed key is read once

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


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_run_seed_outside_64_bits_exits_2(capsys, seed):
    code, out, err = run_cli(capsys, "run", "--preset", "Small_100", "--seed", seed)
    assert code == 2
    assert "seed" in err
    assert out == ""


@pytest.mark.parametrize("width", ["-1", "0", "nan", "inf"])
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


RUN_WITH_ALL_OUTPUTS = (
    "run --preset Small_100 --seed 1 --out {tmp}/t.csv --emit-values {tmp}/v.txt --emit-hist {tmp}/h.csv"
)


@pytest.mark.parametrize(
    "command, flag",
    [
        (RUN_WITH_ALL_OUTPUTS, "--out"),
        (RUN_WITH_ALL_OUTPUTS, "--emit-values"),
        (RUN_WITH_ALL_OUTPUTS, "--emit-hist"),
        (f"analyze {EARTHQUAKE_CSV} --out {{tmp}}/r.csv", "--out"),
    ],
    ids=["run-out", "run-emit-values", "run-emit-hist", "analyze-out"],
)
def test_missing_output_directory_exits_2_before_running(capsys, tmp_path, command, flag):
    argv = command.format(tmp=tmp_path).split()
    argv[argv.index(flag) + 1] = str(tmp_path / "missing" / "file")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "directory does not exist" in err
    assert "seed:" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


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
    data.write_text("")
    code, _, err = run_cli(capsys, "analyze", str(data))
    assert code == 1
