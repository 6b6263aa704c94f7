"""Command line front end: run experiments, analyze datasets, list presets."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from pathlib import Path

from . import stats
from .errors import BenfordSimError, ConfigError, MissingSeedError
from .experiments import (
    PRESET_NAMES,
    ExperimentConfig,
    parse_config,
    render_table,
    run_experiment,
    scheme_preset,
)

__all__ = ["main", "build_parser"]

_EXIT_OK = 0
_EXIT_RUNTIME = 1
_EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line; ``main`` keeps one of its own."""
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


# Built on the first call of main and kept: a parse leaves no state in it.
_main_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except BenfordSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


def cmd_run(args: argparse.Namespace) -> int:
    width = args.hist_bin_width
    if args.emit_hist:
        if not 0.0 < width < math.inf:
            raise ConfigError(f"--hist-bin-width must be a positive finite number, got {width!r}")
        if stats._bin_width_is_tiny(width):
            raise ConfigError(f"--hist-bin-width {width!r} is too small: {stats._TINY_BIN_WIDTH_WHY}")
    outputs = {"--out": args.out, "--emit-values": args.emit_values, "--emit-hist": args.emit_hist}
    _check_output_paths(outputs, "--config", args.config)
    config = _resolve_config(args)
    print(f"seed: {config.seed}", file=sys.stderr)
    values, records = run_experiment(config)
    _emit(render_table(records, args.format), args.out)
    if args.emit_values:
        _write_output(args.emit_values, "\n".join(map(repr, values)) + "\n")
    if args.emit_hist:
        bins = stats.log_histogram(values, width)
        _write_output(args.emit_hist, _render_histogram(bins, width))
    return _EXIT_OK


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.preset is not None:
        seed = args.seed if args.seed is not None else _generate_seed()
        return scheme_preset(_canonical_preset(args.preset), seed)
    text = _read_input(args.config)
    try:
        return parse_config(text, seed=args.seed, source=args.config)
    except MissingSeedError:
        return parse_config(text, seed=_generate_seed(), source=args.config)


def _canonical_preset(name: str) -> str:
    for known in PRESET_NAMES:
        if name.lower() == known.lower():
            return known
    return name  # let scheme_preset produce the error


def _generate_seed() -> int:
    return random.SystemRandom().getrandbits(63)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write_output(out_path, text)
    else:
        sys.stdout.write(text)


def _read_input(path: str) -> str:
    """The text of a dataset or config file: UTF-8, with or without a byte order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _check_output_paths(outputs: dict[str, str | None], input_name: str, input_path: str | None) -> None:
    """Refuse, before any work, an output path (keyed by its flag) that cannot be
    written or that names the same file as another output or the input, which
    writing it would destroy. An existing file that is not a regular one, such
    as /dev/null, may be named more than once."""
    seen = {os.path.realpath(input_path): input_name} if input_path else {}
    for flag, path in outputs.items():
        if not path:
            continue
        if Path(path).is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise ConfigError(f"cannot write {path}: its directory does not exist")
        real = os.path.realpath(path)
        if real in seen and (Path(real).is_file() or not Path(real).exists()):
            raise ConfigError(f"cannot write {path}: {flag} names the same file as {seen[real]}")
        seen[real] = flag


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    A regular or new file is written to a temp file in its own directory,
    which is then renamed over it, so a failed write leaves neither a partial
    file nor the temp file. The temp file is opened like ``Path.write_text``
    opens a file, so the result has the same mode. A path that exists and is
    not a regular file, such as /dev/null or a pipe, is written in place.
    """
    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_file():
        target.write_text(text)
        return
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "x")
    try:
        with f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _render_histogram(bins: list[tuple[int, int]], width: float) -> str:
    lines = ["bin,log10_lo,log10_hi,count"]
    for index, count in bins:
        lo = index * width
        hi = lo + width
        lines.append(f"{index},{lo:.6g},{hi:.6g},{count}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    """Report the digit conformance of a dataset file, or explain why it has none.

    A regular file of plain numbers takes the fast path, ``_analyze_plain_numbers``.
    Any other input, and any file that path turns down, is read whole and
    parsed by ``_parse_dataset``, which names every bad line; so every message,
    line number and exit code comes from that one parser.
    """
    _check_output_paths({"--out": args.out}, "the input", args.input)
    report = _analyze_plain_numbers(args.input) if Path(args.input).is_file() else None
    if report is None:
        text = _read_input(args.input)  # OSError, ConfigError -> exit 2 in main()
        values, bad_lines = _parse_dataset(text)
        if bad_lines:
            shown = bad_lines[:20]
            for lineno, line, why in shown:
                print(f"error: line {lineno}: {why}: {line!r}", file=sys.stderr)
            if len(bad_lines) > len(shown):
                print(f"error: ... and {len(bad_lines) - len(shown)} more bad lines", file=sys.stderr)
            return _EXIT_RUNTIME
        if not values:
            print(f"error: {args.input}: no data values found", file=sys.stderr)
            return _EXIT_RUNTIME
        report = stats.analyze(values)
    _emit(_render_analysis(report, args.format), args.out)
    return _EXIT_OK


def _analyze_plain_numbers(path: str) -> stats.BenfordReport | None:
    """The report of a file whose lines after the first are each one number,
    else None, for ``_parse_dataset`` to explain.

    The first line is decoded as ``_read_input`` decodes a file and goes
    through ``_parse_dataset``, which decides whether it is a header; a bad
    first line gives None. Every later line goes to ``float`` as bytes as it
    is read, and ``stats.analyze`` rejects a zero, negative, inf or NaN
    value. This gives ``_parse_dataset``'s values exactly: a line of bytes
    that ``float`` accepts is one number padded with ASCII whitespace, so it
    decodes as it is and each piece ``str.splitlines`` cuts from it is blank
    or that number. After a blank first line, the first line that is not
    blank is a number here, so it is data to ``_parse_dataset`` too.
    """
    try:
        with open(path, "rb") as f:
            head = f.readline().decode("utf-8-sig")
            values, bad_lines = _parse_dataset(head)
            if bad_lines:
                return None
            values.extend(map(float, f))
        return stats.analyze(values)
    except ValueError:  # also a UnicodeDecodeError, and analyze's DomainError or EmptyDataError
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
    inf = math.inf
    for lineno, raw in enumerate(text.splitlines(), 1):
        try:
            x = float(raw)  # float() ignores surrounding whitespace itself
        except ValueError:
            line = raw.strip()
            if not line:
                continue
            try:
                x = float(line)  # str.strip() also drops "\x1f", float() does not
            except ValueError:
                if first_data_line:
                    first_data_line = False
                    continue
                bad.append((lineno, line, "not a number"))
                continue
        first_data_line = False
        if 0.0 < x < inf:
            values.append(x)
        else:
            why = "not strictly positive" if -inf < x <= 0.0 else "not finite"
            bad.append((lineno, raw.strip(), why))
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


def cmd_presets(args: argparse.Namespace) -> int:
    for name in PRESET_NAMES:
        config = scheme_preset(name, seed=0)
        policy = "uniform" if config.ratio is None else f"fixed ratio={config.ratio:g}"
        print(
            f"{name}: L={config.ball_count} C={config.cycles} {policy} "
            f"V={config.initial_value:g} checkpoints={','.join(map(str, config.checkpoints))}"
        )
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
