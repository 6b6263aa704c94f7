"""Command line front end: run experiments, analyze datasets, list presets."""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import random
import stat
import sys
from pathlib import Path

from . import stats
from .errors import BenfordSimError, ConfigError, DomainError, EmptyDataError, MissingSeedError
from .experiments import (
    PRESET_NAMES,
    ExperimentConfig,
    parse_config,
    render_table,
    run_experiment,
    scheme_preset,
)

__all__ = ["main"]

_EXIT_RUNTIME = 1
_EXIT_CONFIG = 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the command line, built on the first call of ``main`` and
    kept: argparse parses each call into a new namespace, so a parse leaves
    no state in it."""
    parser = argparse.ArgumentParser(
        prog="benfordsim",
        description=(
            "Simulate random fragmentation/consolidation cycles over a population "
            "of positive values and measure first-digit conformance to Benford's Law."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="run an experiment and emit its checkpoint table")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help=f"preset name ({', '.join(PRESET_NAMES)})")
    src.add_argument("--config", help="path to a key = value config file")
    p_run.add_argument("--seed", type=int, help="seed override; generated and reported if omitted")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--out", help="write the checkpoint table here instead of stdout")
    p_run.add_argument(
        "--hist-bin-width",
        type=float,
        default=0.25,
        metavar="FLOAT",
        help="bin width (log10 units) for --emit-hist (default 0.25)",
    )
    p_run.add_argument("--emit-values", metavar="PATH", help="write final values, one per line")
    p_run.add_argument(
        "--emit-hist", metavar="PATH", help="write a log10 histogram of the final values"
    )
    p_run.set_defaults(func=cmd_run)

    p_analyze = sub.add_parser("analyze", help="report digit conformance of a dataset file")
    p_analyze.add_argument("input", help="CSV file, one positive value per line")
    p_analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    p_analyze.add_argument("--out", help="write the report here instead of stdout")
    p_analyze.set_defaults(func=cmd_analyze)

    p_presets = sub.add_parser("presets", help="list the built-in experiment presets")
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except BenfordSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME
    return 0


def cmd_run(args: argparse.Namespace) -> None:
    width = args.hist_bin_width
    if args.emit_hist:
        try:
            stats._check_bin_width(width, "--hist-bin-width")
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
    paths = {"--out": args.out, "--emit-values": args.emit_values, "--emit-hist": args.emit_hist}
    with _outputs(paths, "--config", args.config) as texts:
        config = _resolve_config(args)
        print(f"seed: {config.seed}", file=sys.stderr)
        values, records = run_experiment(config)
        texts["--out"] = render_table(records, args.format)
        if args.emit_values:
            texts["--emit-values"] = "\n".join(map(repr, values)) + "\n"
        if args.emit_hist:
            texts["--emit-hist"] = _render_histogram(stats.log_histogram(values, width), width)


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.preset is not None:
        seed = args.seed if args.seed is not None else _generate_seed()
        return scheme_preset(args.preset, seed)
    text = _read_input(args.config)
    try:
        return parse_config(text, seed=args.seed, source=args.config)
    except MissingSeedError:
        return parse_config(text, seed=_generate_seed(), source=args.config)


def _generate_seed() -> int:
    return random.SystemRandom().getrandbits(63)


def _read_input(path: str) -> str:
    """The text of a dataset or config file: UTF-8, with or without a byte order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _outputs(paths: dict[str, str | None], input_name: str, input_path: str | None):
    """Own a command's outputs, keyed by flag, from refusal to rename.

    On entry, refuse a path that is empty, that could not be written, or that
    names the same file as another output or the input. A path naming the file
    of stdout or stderr is written through that stream, and one that exists and
    is not a regular file, such as /dev/null or a pipe, in place as given; both
    may be named more than once. Any other goes through a temp file beside its
    real path, a name made and removed here first. The block puts each text in
    the yielded dict under its flag (stdout if its path is None). Only a clean
    exit writes them; the temp files take the permission bits of the files they
    replace and are renamed once all are written, else removed.
    """
    seen = {os.path.realpath(input_path): input_name} if input_path else {}
    targets: dict[str, object] = {}
    for flag, path in paths.items():
        if path is None:
            continue
        if not path:
            raise ConfigError(f"{flag} names an empty path")
        real = os.path.realpath(path)
        if Path(real).is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not Path(real).parent.is_dir():
            raise ConfigError(f"cannot write {path}: its directory does not exist")
        stream = _stream_named(path)
        in_place = stream is not None or Path(path).exists() and not Path(path).is_file()
        if real in seen and not in_place:
            raise ConfigError(f"cannot write {path}: {flag} names the same file as {seen[real]}")
        seen[real] = flag
        if in_place:
            targets[flag] = stream.write if stream else Path(path).write_text
            continue
        tmp = Path(real).with_name(f".{Path(real).name}.{os.urandom(4).hex()}.tmp")
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(tmp)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
        targets[flag] = (tmp, Path(real))
    texts: dict[str, str] = {}
    yield texts
    made = []
    try:
        for flag, text in texts.items():
            target = targets.get(flag, sys.stdout.write)
            if callable(target):
                target(text)
                continue
            tmp, real = target
            with open(tmp, "x") as f:
                made.append((tmp, real))
                if real.exists():
                    os.chmod(tmp, stat.S_IMODE(real.stat().st_mode))
                f.write(text)
        for tmp, real in made:
            os.replace(tmp, real)
    except BaseException:
        for tmp, _ in made:
            tmp.unlink(missing_ok=True)
        raise


def _stream_named(path: str):
    """sys.stdout or sys.stderr if ``path`` names the file open on fd 1 or fd 2, else None."""
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
        with contextlib.suppress(OSError):
            if os.path.samestat(os.stat(path), os.fstat(fd)):
                return stream
    return None


def _render_histogram(bins: list[tuple[int, int]], width: float) -> str:
    lines = ["bin,log10_lo,log10_hi,count"]
    for index, count in bins:
        lo = index * width
        hi = lo + width
        lines.append(f"{index},{lo:.6g},{hi:.6g},{count}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> None:
    """Report the digit conformance of a dataset file, or explain why it has none.

    A regular file of plain numbers takes the fast path, ``_analyze_plain_numbers``.
    Any other input, and any file that path turns down, is read whole and
    parsed by ``_parse_dataset``, which names every bad line; so every message,
    line number and exit code comes from that one parser.
    """
    with _outputs({"--out": args.out}, "the input", args.input) as texts:
        report = _analyze_plain_numbers(args.input) if Path(args.input).is_file() else None
        if report is None:
            values, bad_lines = _parse_dataset(_read_input(args.input))
            if bad_lines:
                shown = [f"line {lineno}: {why}: {line!r}" for lineno, line, why in bad_lines[:20]]
                if len(bad_lines) > 20:
                    shown.append(f"... and {len(bad_lines) - 20} more bad lines")
                raise DomainError("\nerror: ".join(shown))
            if not values:
                raise EmptyDataError(f"{args.input}: no data values found")
            report = stats.analyze(values)
        texts["--out"] = _render_analysis(report, args.format)


# The least a part of the file handed to a child interpreter holds. Starting
# one with -I -S takes ~25-40 ms, and float() and sort take ~40 ns a byte of
# 17-digit numerals, so a part of 4 MiB pays ~170 ms of work for it.
_PART_BYTES = 4 << 20

# A child's program: the doubles of one part of the file open on its stdin,
# sorted, in machine order on stdout. It maps the file rather than reading
# it, so it moves no file offset it shares with the parent. It exits 1 on a
# line float() rejects, or on a value that is not positive and finite, as
# stats._is_positive_run checks a run, before it writes anything. It sums the
# contiguous array, not the sorted list whose floats lie all over the heap
# (~8 against ~23 ms for 500,000), and ends with os._exit, as the parent reads
# to EOF and a normal exit first frees each float (~70 ms).
_PART_CODE = """\
import io, mmap, os, sys
from array import array
offset, length = int(sys.argv[1]), int(sys.argv[2])
with mmap.mmap(0, offset + length, access=mmap.ACCESS_READ) as m:
    lines = io.BytesIO(m[offset:offset + length])
xs = sorted(map(float, lines))
doubles = array("d", xs)
if doubles and not (0.0 < doubles[0] and doubles[-1] <= sys.float_info.max and sum(doubles) > 0.0):
    sys.exit(1)
sys.stdout.buffer.write(doubles)
sys.stdout.flush()
os._exit(0)
"""


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _analyze_plain_numbers(path: str) -> stats.BenfordReport | None:
    """The report of a file whose lines after the first are each one number,
    else None, for ``_parse_dataset`` to explain.

    The first line is decoded as ``_read_input`` decodes a file and goes
    through ``_parse_dataset``, which decides whether it is a header; a bad
    first line gives None. Every later line goes to ``float`` as bytes, and a
    part with a zero, negative, inf or NaN value gives None. This gives
    ``_parse_dataset``'s values exactly: a line of bytes that ``float``
    accepts is one number padded with ASCII whitespace, so it decodes as it
    is and each piece ``str.splitlines`` cuts from it is blank or that
    number. After a blank first line, the first line that is not blank is a
    number here, so it is data to ``_parse_dataset`` too.

    The later lines are cut at line starts into one part per available CPU,
    each of at least ``_PART_BYTES``. This process parses the first part, and
    a child interpreter each other one (or this process, if it cannot be
    started); each sorts and checks its values. ``stats._report`` takes the
    sorted runs as they are, a child's as a ``memoryview`` of its doubles, so
    the report is the same whatever the cut. It tallies this process's run
    before it reads any child's, while the children are still parsing. A
    child that fails gives None; none outlives this call.
    """
    children = []
    try:
        with open(path, "rb") as f:
            head = f.readline().decode("utf-8-sig")
            values, bad_lines = _parse_dataset(head)
            if bad_lines:
                return None
            start, end = f.tell(), os.fstat(f.fileno()).st_size
            count = max(1, min(_available_cpus(), (end - start) // _PART_BYTES))
            cuts = [start]
            for k in range(1, count):  # the first line start at or after k/count of the rest
                f.seek(start + (end - start) * k // count - 1)
                f.readline()
                cuts.append(f.tell())
            parts = [(a, b - a) for a, b in zip(cuts, [*cuts[1:], end])]
            own = parts[:1]
            for part in parts[1:]:
                child = _start_child(f, *part)
                if child is None:
                    own.append(part)
                else:
                    children.append(child)
            for offset, length in own:
                f.seek(offset)
                values += map(float, io.BytesIO(f.read(length)))
            values.sort()
            if not stats._is_positive_run(values):
                return None

        def runs():  # this process's run is tallied while the children still work
            yield values
            for child in children:
                doubles = child.stdout.read()
                if child.wait() != 0:
                    raise ValueError(f"child {child.pid} failed")
                yield memoryview(doubles).cast("d")

        return stats._report(runs())
    except ValueError:  # also a UnicodeDecodeError, and the EmptyDataError of no values
        return None
    finally:
        for child in children:
            child.kill()
            child.stdout.close()
            child.wait()


def _start_child(file: io.BufferedReader, offset: int, length: int):
    """A child interpreter running ``_PART_CODE`` on one part of the open
    ``file``, or None if it cannot be started or ``sys.executable`` is empty
    or None. The child gets the file as its stdin, not by name, so it reads
    the file this process opened even if the path is replaced meanwhile. Only
    here is ``subprocess`` imported (~10 ms), so a run or a small file never
    pays for it."""
    if not sys.executable:
        return None
    import subprocess

    try:
        return subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _PART_CODE, str(offset), str(length)],
            stdin=file, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except OSError:
        return None


def _parse_dataset(text: str) -> tuple[list[float], list[tuple[int, str, str]]]:
    """Parse one value per line; returns (values, bad (lineno, text, reason) rows).

    A non-numeric first line is taken as a header and skipped. This is the
    parser that explains a bad dataset; ``cmd_analyze`` runs it on the whole
    text only when its fast path turns the file down.
    """
    values: list[float] = []
    bad: list[tuple[int, str, str]] = []
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            x = float(line)
        except ValueError:
            if first_data_line:
                first_data_line = False
                continue
            bad.append((lineno, line, "not a number"))
            continue
        first_data_line = False
        if 0.0 < x < math.inf:
            values.append(x)
        else:
            why = "not strictly positive" if -math.inf < x <= 0.0 else "not finite"
            bad.append((lineno, line, why))
    return values, bad


def _render_analysis(report: stats.BenfordReport, format: str) -> str:
    if format == "json":
        payload = {
            "n": report.n,
            "counts": list(report.counts),
            "proportions_pct": list(report.proportions_pct),
            "benford_pct": list(stats.BENFORD_PCT),
            "ssd": report.ssd,
            "q10": report.q10,
            "q90": report.q90,
            "qtm": report.qtm,
            "oom": report.oom,
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["digit,count,observed_pct,benford_pct"]
    for d in range(9):
        lines.append(
            f"{d + 1},{report.counts[d]},{report.proportions_pct[d]:.4f},{stats.BENFORD_PCT[d]:.4f}"
        )
    lines.append("")
    lines.append("metric,value")
    lines.append(f"n,{report.n}")
    lines.append(f"ssd,{report.ssd:.2f}")
    for name, v in (("q10", report.q10), ("q90", report.q90), ("qtm", report.qtm), ("oom", report.oom)):
        lines.append(f"{name},{v:.6g}")
    return "\n".join(lines) + "\n"


def cmd_presets(args: argparse.Namespace) -> None:
    for name in PRESET_NAMES:
        config = scheme_preset(name, seed=0)
        policy = "uniform" if config.ratio is None else f"fixed ratio={config.ratio:g}"
        print(
            f"{name}: L={config.ball_count} C={config.cycles} {policy} "
            f"V={config.initial_value:g} checkpoints={','.join(map(str, config.checkpoints))}"
        )


if __name__ == "__main__":
    sys.exit(main())
