"""Reference results that every benchmark operation is checked against.

Nothing here imports benfordsim. The reference simulation is a plain loop
over ``random.Random`` that follows the draw-order contract documented in
``process.py``; first digits come from the exact decimal expansion of each
double; quantiles use sorted linear interpolation between closest ranks.

Final ball values and digit counts must match exactly. Derived floats (digit
percentages, SSD, quantiles) may differ from the reference by REL_TOL, so a
change of summation or interpolation order is not a failure, while one
misclassified digit is.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal

BENFORD_PCT = tuple(100.0 * math.log10(1.0 + 1.0 / d) for d in range(1, 10))
REL_TOL = 1e-12
CSV_HEADER = "cycle,d1,d2,d3,d4,d5,d6,d7,d8,d9,ssd,q10,q90,qtm"

# A mantissa estimated through log10 and pow is off by less than 1e-12
# (relative) anywhere in the double range; inside this window of an integer
# the digit is settled from the exact expansion instead.
_DIGIT_WINDOW = 1e-9


def first_digit(x: float) -> int:
    """Leftmost nonzero digit of the exact decimal expansion of ``abs(x)``."""
    m = abs(x)
    t = math.log10(m)
    mantissa = 10.0 ** (t - math.floor(t))
    if abs(mantissa - round(mantissa)) > _DIGIT_WINDOW * mantissa:
        return int(mantissa)
    return Decimal(m).as_tuple().digits[0]


def quantile_sorted(xs: list[float], q: float) -> float:
    """Linear interpolation between closest ranks of ascending ``xs``."""
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] + (h - lo) * (xs[lo + 1] - xs[lo])


@dataclass(frozen=True)
class Analysis:
    counts: tuple[int, ...]
    pct: tuple[float, ...]
    ssd: float
    q10: float
    q90: float
    qtm: float
    oom: float


def analyze(values) -> Analysis:
    counts = [0] * 9
    for x in values:
        counts[first_digit(x) - 1] += 1
    n = len(values)
    pct = tuple(100.0 * c / n for c in counts)
    xs = sorted(values)
    q10 = quantile_sorted(xs, 0.1)
    q90 = quantile_sorted(xs, 0.9)
    return Analysis(
        counts=tuple(counts),
        pct=pct,
        ssd=sum((p - e) ** 2 for p, e in zip(pct, BENFORD_PCT)),
        q10=q10,
        q90=q90,
        qtm=q90 / q10,
        oom=math.log10(xs[-1] / xs[0]),
    )


def simulate(ball_count, initial_value, cycles, ratio, seed, checkpoints):
    """Final values and {cycle: snapshot} of one run, by the draw-order contract.

    Each cycle draws the split index, then the split ratio (a uniform draw on
    (0, 1) redrawn while zero, or ``ratio`` with no draw), then the merge
    index over all balls, whose ball is swap-removed, then the receiving
    index over the rest.
    """
    rng = random.Random(seed)
    randrange = rng.randrange
    draw = rng.random
    values = [initial_value] * ball_count
    marks = set(checkpoints)
    snapshots = {}
    if 0 in marks:
        snapshots[0] = list(values)
    for c in range(1, cycles + 1):
        i = randrange(len(values))
        if ratio is None:
            u = draw()
            while u == 0.0:
                u = draw()
        else:
            u = ratio
        w = values[i]
        values[i] = w * u
        values.append(w * (1.0 - u))
        j = randrange(len(values))
        merged = values[j]
        values[j] = values[-1]
        values.pop()
        values[randrange(len(values))] += merged
        if c in marks:
            snapshots[c] = list(values)
    return values, snapshots


def expected_run(preset, seed):
    """(final values, [(cycle, Analysis)]) for one preset run."""
    final, snapshots = simulate(
        preset.ball_count, preset.initial_value, preset.cycles, preset.ratio, seed,
        preset.checkpoints,
    )
    return final, [(c, analyze(snapshots[c])) for c in preset.checkpoints]


# --- comparisons; each returns a list of problems, empty when the output is right


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _close_all(got, want) -> bool:
    return len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want))


def _values_problems(label, got, want) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} final values, expected {len(want)}"]
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"{label}: final value {i} is {a!r}, reference gives {b!r}"]
    return []


def check_record(label, record, cycle, want: Analysis) -> list[str]:
    """``record`` is [cycle, digit_pct, ssd, q10, q90, qtm] at full precision."""
    got_cycle, pct, ssd, q10, q90, qtm = record
    problems = []
    if got_cycle != cycle:
        problems.append(f"{label}: checkpoint cycle {got_cycle}, expected {cycle}")
    if not _close_all(pct, want.pct):
        problems.append(f"{label} cycle {cycle}: digit percentages {pct} != {list(want.pct)}")
    for name, a, b in (("ssd", ssd, want.ssd), ("q10", q10, want.q10),
                       ("q90", q90, want.q90), ("qtm", qtm, want.qtm)):
        if not _close(a, b):
            problems.append(f"{label} cycle {cycle}: {name} {a!r} != {b!r}")
    return problems


def check_experiment(label, values, records, expected) -> list[str]:
    """Output of ``run_experiment``: bit-exact final values, then each record."""
    final, analyses = expected
    problems = _values_problems(label, values, final)
    if len(records) != len(analyses):
        return problems + [f"{label}: {len(records)} checkpoint records, expected {len(analyses)}"]
    for record, (cycle, want) in zip(records, analyses):
        problems += check_record(label, record, cycle, want)
    return problems


def _printed_close(text: str, want: float, spec: str) -> bool:
    """True when ``text`` is ``want`` printed with ``spec``, up to the print rounding."""
    if text == format(want, spec):
        return True
    got = float(text)
    if spec.endswith("f"):
        slack = 0.5 * 10.0 ** -int(spec[1:-1])
    else:
        slack = 0.5 * 10.0 ** (1 - int(spec[1:-1])) * abs(want)
    return abs(got - want) <= slack * (1.0 + 1e-9)


def check_table_csv(label, text, analyses) -> list[str]:
    """The CSV checkpoint table ``cli run`` writes with its default format."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"{label}: table header {lines[:1]} != {CSV_HEADER!r}"]
    rows = lines[1:]
    if len(rows) != len(analyses):
        return [f"{label}: {len(rows)} table rows, expected {len(analyses)}"]
    problems = []
    for row, (cycle, want) in zip(rows, analyses):
        cells = row.split(",")
        expected = [(c, p, ".4f") for c, p in zip(cells[1:10], want.pct)]
        expected.append((cells[10], want.ssd, ".2f"))
        expected += [(c, v, ".6g") for c, v in zip(cells[11:], (want.q10, want.q90, want.qtm))]
        if len(cells) != 14 or cells[0] != str(cycle) or not all(
            _printed_close(c, v, spec) for c, v, spec in expected
        ):
            problems.append(f"{label}: table row {row!r} disagrees with the reference at cycle {cycle}")
    return problems


def check_values_text(label, text, final) -> list[str]:
    """The file ``--emit-values`` writes: one value per line, in ball order."""
    try:
        got = [float(line) for line in text.splitlines()]
    except ValueError as exc:
        return [f"{label}: unreadable values file ({exc})"]
    return _values_problems(label, got, final)


def histogram_text(final) -> str:
    """The file ``--emit-hist`` should write for ``final`` at the default bin width."""
    bin_width = 0.25
    counts = {}
    for x in final:
        b = math.floor(math.log10(x) / bin_width)
        counts[b] = counts.get(b, 0) + 1
    lines = ["bin,log10_lo,log10_hi,count"]
    for index in sorted(counts):
        lo = index * bin_width
        lines.append(f"{index},{lo:.6g},{lo + bin_width:.6g},{counts[index]}")
    return "\n".join(lines) + "\n"


def check_analysis_json(label, text, n, want: Analysis) -> list[str]:
    """The JSON report ``cli analyze --format json`` writes for a dataset of ``n`` values."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"{label}: unreadable JSON report ({exc})"]
    problems = []
    if report.get("n") != n:
        problems.append(f"{label}: n={report.get('n')!r}, expected {n}")
    if report.get("counts") != list(want.counts):
        problems.append(f"{label}: digit counts {report.get('counts')} != {list(want.counts)}")
    for name, want_seq in (("proportions_pct", want.pct), ("benford_pct", BENFORD_PCT)):
        if not _close_all(report.get(name, ()), want_seq):
            problems.append(f"{label}: {name} disagrees with the reference")
    for name in ("ssd", "q10", "q90", "qtm", "oom"):
        got = report.get(name)
        if not isinstance(got, (int, float)) or not _close(got, getattr(want, name)):
            problems.append(f"{label}: {name} {got!r} != {getattr(want, name)!r}")
    return problems
