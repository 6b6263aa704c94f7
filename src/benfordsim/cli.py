"""Command line front end: run experiments, analyze datasets, list presets."""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import random
import stat
import sys

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
    with open(args.config, "rb") as f:
        text = _read_input(f, args.config)
    try:
        return parse_config(text, seed=args.seed, source=args.config)
    except MissingSeedError:
        return parse_config(text, seed=_generate_seed(), source=args.config)


def _generate_seed() -> int:
    return random.SystemRandom().getrandbits(63)


def _read_input(f: io.BufferedIOBase, name: str) -> str:
    """The rest of the binary file ``f``, named ``name``: UTF-8, with or without a byte order mark."""
    try:
        return f.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{name}: {exc}") from None


@contextlib.contextmanager
def _outputs(paths: dict[str, str | None], input_name: str, input_path: str | None):
    """Own a command's outputs, keyed by flag, from refusal to rename.

    On entry one stat of each path, following links, decides it. A path is
    refused if it is empty, is a directory or ends in a separator, . or .., if
    the stat fails other than on a missing file (as on a symlink loop), if its
    directory takes no new file, or if it names the same file as another output
    or the input. The file on fd 1 or 2 goes through that stream, another
    existing file that is not regular (/dev/null, a pipe) is written in place;
    both may take several outputs. Any other goes through a temp file beside its
    real path, tried here first. The block puts each text in the yielded dict by
    flag (stdout if its path is None). Only a clean exit writes them; temp files
    take the permission bits of the files they replace and are renamed once all
    are written, else removed.
    """
    seen = {os.path.realpath(input_path): input_name} if input_path else {}
    streams = []
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
        with contextlib.suppress(OSError):
            streams.append((os.fstat(fd), stream))
    targets: dict[str, object] = {}
    for flag, path in paths.items():
        if path is None:
            continue
        if not path:
            raise ConfigError(f"{flag} names an empty path")
        if os.path.basename(path) in ("", ".", ".."):  # else taken for a new file, and realpath drops the end
            raise ConfigError(f"cannot write {path}: it names a directory")
        try:
            st = os.stat(path)
        except (FileNotFoundError, NotADirectoryError):
            st = None
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
        if st and stat.S_ISDIR(st.st_mode):
            raise ConfigError(f"cannot write {path}: it is a directory")
        stream = next((s for fd_st, s in streams if st and os.path.samestat(st, fd_st)), None)
        if stream or st and not stat.S_ISREG(st.st_mode):
            targets[flag] = stream or (path, None)
            continue
        real = os.path.realpath(path)
        head, name = os.path.split(real)
        tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(tmp)
        except OSError as exc:
            why = exc.strerror if os.path.isdir(head) else "its directory does not exist"
            raise ConfigError(f"cannot write {path}: {why}") from None
        if real in seen:
            raise ConfigError(f"cannot write {path}: {flag} names the same file as {seen[real]}")
        seen[real] = flag
        targets[flag] = (tmp, real)
    texts: dict[str, str] = {}
    yield texts
    made = []
    try:
        for flag, text in texts.items():
            target = targets.get(flag, sys.stdout)
            if not isinstance(target, tuple):
                target.write(text)
                continue
            tmp, real = target  # real is None for a file written in place
            with open(tmp, "x" if real else "w") as f:
                if real:
                    made.append(target)
                    with contextlib.suppress(FileNotFoundError):
                        os.chmod(tmp, stat.S_IMODE(os.stat(real).st_mode))
                f.write(text)
        for tmp, real in made:
            os.replace(tmp, real)
    except BaseException:
        for tmp, _ in made:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _render_histogram(bins: list[tuple[int, int]], width: float) -> str:
    lines = ["bin,log10_lo,log10_hi,count"]
    lines += (f"{i},{i * width:.6g},{i * width + width:.6g},{count}" for i, count in bins)
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> None:
    """Report the digit conformance of a dataset file, or explain why it has none.

    Opened once (one that is not a regular file, such as a pipe, can be read only
    once and is held in memory), an input of ``_BULK_BYTES`` or more is parsed by
    ``_sort_bulk``; a smaller one, or one it turns down, is read from its start by
    ``_parse_dataset``, so every message, line number and exit code comes from it.
    The parser that answers checks each value once; ``stats._report`` reports its sorted run.
    """
    with _outputs({"--out": args.out}, "the input", args.input) as texts, open(args.input, "rb") as f:
        if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f = io.BytesIO(f.read())
        xs = None
        if f.seek(0, os.SEEK_END) >= _BULK_BYTES:
            f.seek(0)
            with contextlib.suppress(ValueError):  # also UnicodeDecodeError and orjson's JSONDecodeError
                xs = _sort_bulk(f)
        if xs is None:
            f.seek(0)
            xs, bad_lines = _parse_dataset(_read_input(f, args.input))
            if bad_lines:
                shown = [f"line {lineno}: {why}: {line!r}" for lineno, line, why in bad_lines[:20]]
                if len(bad_lines) > 20:
                    shown.append(f"... and {len(bad_lines) - 20} more bad lines")
                raise DomainError("\nerror: ".join(shown))
            if not xs:
                raise EmptyDataError(f"{args.input}: no data values found")
            xs.sort()
        texts["--out"] = _render_analysis(stats._report(xs), args.format)


# From this many bytes up, and only then, a file is parsed by orjson, ~1 MiB of whole
# lines at a time, and sorted by numpy. Chunks keep few of orjson's floats alive at once:
# one orjson.loads of a whole 10^6-line file raised the peak memory by ~10 MB.
_BULK_BYTES = 8 << 20
_CHUNK_BYTES = 1 << 20

# Maps a chunk of lines to the items of one JSON array: each newline becomes a
# comma, and each byte outside 0-9 + - . e E space \t \r an "x", which no JSON
# text holds outside a string, nor does the quote that would open one. So
# orjson reads a chunk only if each of its lines is one JSON number padded with
# JSON whitespace, and float() takes every JSON number to the same double.
_AS_JSON_ITEMS = bytes(
    b if b in b"0123456789+-.eE \t\r" else ord(",") if b == ord("\n") else ord("x") for b in range(256)
)


def _sort_bulk(f: io.BufferedIOBase) -> memoryview:
    """The values of the lines of the binary file ``f``, sorted by numpy, as a
    ``memoryview`` of doubles.

    The first line, decoded as ``_read_input`` decodes a file, may be a header to
    ``_parse_dataset``, which judges it before numpy and orjson are imported; after
    a blank one, the first line that is not blank is a number here and data there.
    Each chunk of whole lines is mapped by ``_AS_JSON_ITEMS``, read as one JSON
    array by orjson and packed by ``struct.pack`` onto one buffer of native
    doubles, which numpy sorts in place.
    A chunk orjson turns down is read once more without its blank lines (empty
    or ASCII whitespace alone, as ``bytes.strip`` sees them), which
    ``_parse_dataset`` skips. A line that is still not one JSON number
    (``.5``, ``1,5``, ``1e999``), or a sorted run whose ends are not positive
    and finite, raises ``ValueError``; numpy sorts NaN last, though orjson
    gives none.
    """
    head, bad_lines = _parse_dataset(f.readline().decode("utf-8-sig"))
    if bad_lines:
        raise ValueError("a value is not positive and finite")
    import numpy  # ~0.1 s on a cold start
    import orjson
    import struct

    def load(text: bytearray) -> list[float]:
        text = text.translate(_AS_JSON_ITEMS)
        text[0], text[-1] = ord("["), ord("]")
        return orjson.loads(text)

    doubles = bytearray(struct.pack(f"{len(head)}d", *head))
    while chunk := f.read(_CHUNK_BYTES):
        text = bytearray(b"\n")  # "\n" + lines + "\n" -> "," + items + "," -> "[" + items + "]"
        text += chunk
        text += f.readline()
        if text[-1] != ord("\n"):  # the last line of a file that does not end in one
            text += b"\n"
        try:
            items = load(text)
        except orjson.JSONDecodeError:
            lines = [line for line in text.split(b"\n") if line.strip()]
            items = load(bytearray(b"\n%b\n" % b"\n".join(lines)))
        # struct.pack reads each double directly: ~10-13 ns a value, ~19-30 in array("d", items)
        doubles += struct.pack(f"{len(items)}d", *items)
    values = numpy.frombuffer(doubles)
    values.sort()
    if not (values.size and 0.0 < values[0] and values[-1] <= sys.float_info.max):
        raise ValueError("a value is not positive and finite")
    return memoryview(values)


def _parse_dataset(text: str) -> tuple[list[float], list[tuple[int, str, str]]]:
    """Parse one value per line; returns (values, bad (lineno, text, reason) rows).

    A non-numeric first line is taken as a header and skipped. This is the
    parser that explains a bad dataset; ``cmd_analyze`` runs it on the whole
    text of a file under ``_BULK_BYTES``, or of one its bulk path turns down.
    """
    values: list[float] = []
    bad: list[tuple[int, str, str]] = []
    first_data_line = True
    for lineno, raw in enumerate(_lines(text), 1):
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


def _lines(text: str):
    """``text.splitlines()``, ~``_CHUNK_BYTES`` characters of lines at a time, so no list of
    every line is held. Each piece ends just after a LF, which ends a line after a CR too."""
    end = 0
    while end < len(text):
        start, end = end, text.find("\n", end + _CHUNK_BYTES) + 1 or len(text)
        yield from text[start:end].splitlines()


def _render_analysis(report: stats.BenfordReport, format: str) -> str:
    if format == "json":
        import json

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
