"""Spans recorded around calls into the package, from the benchmark's side.

In a traced run the benchmark replaces selected module attributes and
methods of the package with wrappers that open a span, call the original
and close the span. Calls between the package's modules go through those
attributes, so spans nest and each layer's self time can be derived. All
spans stay in memory; `write_csv` saves them when the run ends.
"""

from __future__ import annotations

import csv
import functools
import importlib
from collections import defaultdict
from time import perf_counter

# Each span is [name, start, end, parent index, operation id].
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.dense: dict = {}
        self.solves: list[tuple[bool, float]] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, label, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, label, observe in _targets():
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(label, original, observe))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self, scale: dict, first: int = 0, last: int | None = None) -> dict[str, list]:
        """{span name: [calls, total self seconds]} over spans[first:last],
        each span's time multiplied by `scale[its operation id]`."""
        last = len(self.spans) if last is None else last
        child = defaultdict(float)
        for rec in self.spans[first:last]:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for i in range(first, last):
            rec = self.spans[i]
            agg = out[rec[NAME]]
            agg[0] += 1
            agg[1] += (rec[END] - rec[START] - child[i]) * scale.get(rec[OP], 1.0)
        return dict(out)

    def write_csv(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_s", "end_s", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                w.writerow([i, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, op])


def _note_matrix(tracer: Tracer, args, result) -> None:
    tracer.dense[(args[0], args[1])] = result.entries.nbytes


def _note_solve(tracer: Tracer, args, result) -> None:
    tracer.solves.append((bool(result.used_fallback), float(result.gram_condition)))


def _analyze_label(x, family, *args, **kwargs) -> str:
    return f"transform.analyze.{family}"


def _main_label(argv, *args, **kwargs) -> str:
    return f"cli.main.{argv[0]}"


def _targets():
    """(owner, attribute, span name, observer) for every wrapped call site."""
    tr = importlib.import_module("ccpt.transform")
    pm = importlib.import_module("ccpt.period")
    cli = importlib.import_module("ccpt.cli")
    targets = [(tr, f, f"transform.{f}", None) for f in (
        "occpt_analysis", "occpt_synthesis", "synthesize", "dft_from_occpt",
        "shift_coefficients", "parseval_energy", "coefficients_to_dict")]
    targets += [
        (tr, "analyze", _analyze_label, None),
        (tr.CoefficientSet, "items", "transform.items", None),
        # the transform layer resolves column addresses through this lookup
        (tr, "cached_matrix", "matrices.cached_matrix", _note_matrix),
        (pm, "dictionary_solve", "period.dictionary_solve", _note_solve),
        (pm.PeriodicDictionary, "gram", "period.gram", None),
        (cli, "main", _main_label, None),
        (cli, "foccpt", "foccpt.foccpt", None),
        (cli, "read_signal_csv", "cli.read_signal_csv", None),
        (cli, "band_filter", "cli.band_filter", None),
    ]
    targets += [(pm, f, f"period.{f}", None) for f in (
        "period_strengths", "frequency_components", "build_dictionary",
        "candidate_matrix_solve")]
    return targets
