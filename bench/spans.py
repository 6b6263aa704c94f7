"""Spans around calls into benfordsim, recorded from outside the package.

A call site is traced by replacing the attribute that the calling module looks
up at call time: ``run_experiment`` calls ``run`` from the ``experiments``
namespace, so ``benfordsim.experiments.run`` is replaced and the span is named
after the layer that defines it, ``process.run``. Spans of one operation are
kept in memory and folded into per-name totals when the operation ends.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# Calls that hand a dataset to the digit analysis; the distinct datasets they
# receive from outside ``stats`` are the input of the tally waste ratio.
DIGIT_ENTRIES = frozenset({"stats.analyze", "stats.tally_digits"})


def cycles_arg(args, kwargs):
    """The cycle count passed to ``process.run(system, policy, rng, cycles, ...)``."""
    return kwargs["cycles"] if "cycles" in kwargs else args[3]


def dataset_arg(args, kwargs):
    """The dataset passed as the first argument of a ``stats`` function."""
    return args[0] if args else kwargs["values"]


# (module, attribute its callers look up, span name, what the span counts)
CALL_SITES = (
    ("benfordsim.cli", "run_experiment", "experiments.run_experiment", None),
    ("benfordsim.cli", "render_table", "experiments.render_table", None),
    ("benfordsim.experiments", "run", "process.run", cycles_arg),
    ("benfordsim.stats", "analyze", "stats.analyze", dataset_arg),
    ("benfordsim.stats", "tally_digits", "stats.tally_digits", dataset_arg),
    ("benfordsim.stats", "log_histogram", "stats.log_histogram", dataset_arg),
)


class Tracer:
    def __init__(self) -> None:
        self._spans: list[list] = []  # [name, parent index, start, end, counted item]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.installed: set[str] = set()
        self.totals: dict[str, dict[str, float]] = {}
        self.root_s = 0.0
        self.distinct_values = 0

    def wrap(self, fn, name, measure=None):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            item = measure(args, kwargs) if measure is not None else None
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, item]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every call site that exists; a missing one leaves its metrics out."""
        for module_name, attr, name, measure in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self.wrap(original, name, measure))
            self._patches.append((module, attr, original))
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def fold(self, scale: float = 1.0) -> None:
        """Add the finished operation's spans to the totals, then drop them.

        A span's self time is its duration minus the durations of its direct
        children, so the self times of one tree add up to its root's duration.
        Durations are multiplied by ``scale``.
        """
        spans = self._spans
        child_s = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += (end - start) * scale
        distinct: dict[int, int] = {}
        for i, (name, parent, start, end, item) in enumerate(spans):
            duration = (end - start) * scale
            t = self.totals.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "items": 0})
            t["calls"] += 1
            t["incl_s"] += duration
            t["self_s"] += duration - child_s[i]
            if isinstance(item, int):
                t["items"] += item
            elif item is not None and hasattr(item, "__len__"):
                t["items"] += len(item)
                if name in DIGIT_ENTRIES and (parent < 0 or not spans[parent][0].startswith("stats.")):
                    distinct[id(item)] = len(item)
            if parent < 0:
                self.root_s += duration
        self.distinct_values += sum(distinct.values())
        spans.clear()

    def summary(self) -> dict:
        return {
            "installed": sorted(self.installed),
            "totals": self.totals,
            "root_s": self.root_s,
            "distinct_values": self.distinct_values,
        }
