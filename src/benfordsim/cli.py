"""Command line front end: run experiments, analyze datasets, list presets."""

from __future__ import annotations

import argparse
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except BenfordSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


def cmd_run(args: argparse.Namespace) -> int:
    width = args.hist_bin_width
    if args.emit_hist and not (math.isfinite(width) and width > 0.0):
        raise ConfigError(
            f"--hist-bin-width must be a positive finite number, got {width!r}"
        )
    _check_output_dirs(args.out, args.emit_values, args.emit_hist)
    config = _resolve_config(args)
    print(f"seed: {config.seed}", file=sys.stderr)
    values, records = run_experiment(config)
    _emit(render_table(records, args.format), args.out)
    if args.emit_values:
        _write_output(args.emit_values, "".join(f"{v}\n" for v in values))
    if args.emit_hist:
        hist = stats.log_histogram(values, args.hist_bin_width)
        _write_output(args.emit_hist, _render_histogram(hist))
    return _EXIT_OK


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.preset is not None:
        seed = args.seed if args.seed is not None else _generate_seed()
        return scheme_preset(_canonical_preset(args.preset), seed)
    text = Path(args.config).read_text()
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


def _check_output_dirs(*paths: str | None) -> None:
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise ConfigError(f"cannot write {path}: its directory does not exist")


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


def _render_histogram(hist: stats.LogHistogram) -> str:
    lines = ["bin,log10_lo,log10_hi,count"]
    for index, count in hist.bins:
        lo = hist.origin + index * hist.bin_width
        hi = lo + hist.bin_width
        lines.append(f"{index},{lo:.6g},{hi:.6g},{count}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_output_dirs(args.out)
    text = Path(args.input).read_text()  # OSError -> exit 2 in main()
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


def _parse_dataset(text: str) -> tuple[list[float], list[tuple[int, str, str]]]:
    """Parse one value per line; returns (values, bad (lineno, text, reason) rows).

    A non-numeric first line is taken as a header and skipped.
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
