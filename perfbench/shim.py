"""Call tracing for the traced run, installed from outside cktrace.

    python3 perfbench/shim.py SPANS_FILE -- CLI_ARG...

runs cktrace.cli.main(CLI_ARGS) with the traced public functions wrapped,
writes the spans to SPANS_FILE and exits with main's exit code.
battery.py uses Tracer and install() directly.

A wrapper replaces each traced function in every cktrace module namespace
that holds it (for example simple_cycles in graph, structure and the
package), and CircleValue.__eq__, CircleValue.is_zero and
TraceFunctional.value on their classes.  Spans record name, start, end,
parent and self time (duration minus the time of traced calls inside it);
they stay in memory until dump().  The hot functions, called tens of
thousands of times per operation, are aggregated per parent span instead.
Counters are taken from the wrappers' view of arguments and results.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import weakref
from time import perf_counter

TRACED = {
    "cli": ("main",),
    "graph": ("parse_graph", "simple_cycles", "cyclic_structure", "paths_up_to"),
    "structure": ("tighten_min", "is_tight", "emit_entry_set", "auto_gauge_criterion"),
    "traces": ("extreme_traces", "lift_trace", "validate_trace"),
    "tagging": ("validate_tag",),
    "monomials": ("monomials", "multiply", "cyclic_form"),
    "functionals": ("check_traciality", "check_edge_invariance", "check_gauge",
                    "gram_psd_check", "ck_additivity_check", "cylinder_measure_check"),
    "fuzz": ("graph_battery",),
}
SUITE_SPANS = {
    "check_traciality": "functionals.traciality",
    "check_edge_invariance": "functionals.invariance",
    "check_gauge": "functionals.gauge",
    "gram_psd_check": "functionals.gram",
    "ck_additivity_check": "functionals.ck",
    "cylinder_measure_check": "functionals.cylinder",
}
HOT = {"monomials.multiply", "monomials.cyclic_form", "functionals.value", "tagging.circle_eq"}


def _add(counts, key, amount):
    counts[key] = counts.get(key, 0) + amount


def _maximum(counts, key, value):
    counts[key] = max(counts.get(key, 0), value)


def _count_len(key):
    def after(counts, args, result):
        _add(counts, key, len(result))
    return after


def _count_traces(counts, args, result):
    _add(counts, "traces.extreme_traces.points", len(result))
    _maximum(counts, "traces.extreme_traces.max_vertices", len(args[0].vertices))


def _count_multiply(counts, args, result):
    _add(counts, "monomials.multiply.nonzero", not result.is_zero)


def _circle(counts, terms, reduced):
    _add(counts, "tagging.circle_eq.reduced", reduced)
    if terms:
        _maximum(counts, "tagging.circle_eq.max_n", math.lcm(*(a.denominator for a, _ in terms)))


def _count_eq(counts, args, result):
    this, other = args
    terms = getattr(other, "terms", None)
    if isinstance(terms, tuple):
        _circle(counts, this.terms + terms, this.terms != terms)


def _count_is_zero(counts, args, result):
    _circle(counts, args[0].terms, bool(args[0].terms))


class _ValueHits:
    """Counts calls that ask a functional about a monomial it was asked
    about before.  Entries die with their functional."""

    def __init__(self):
        self.asked = {}

    def __call__(self, counts, args, result):
        fn, x = args
        seen = self.asked.get(id(fn))
        if seen is None:
            seen = self.asked[id(fn)] = set()
            weakref.finalize(fn, self.asked.pop, id(fn), None)
        if x in seen:
            _add(counts, "functionals.value.hits", 1)
        else:
            seen.add(x)


COUNTERS = {
    "graph.simple_cycles": _count_len("graph.simple_cycles.cycles"),
    "traces.extreme_traces": _count_traces,
    "monomials.monomials": _count_len("monomials.monomials.count"),
    "monomials.multiply": _count_multiply,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, self seconds)
        self.hot = {}  # (parent id, name) -> [calls, seconds, self seconds]
        self.counts = {}
        self._frames = []  # child seconds of each open traced call
        self._open = [0]  # ids of the open spans; 0 is the process
        self._next_id = 1

    def wrap(self, name, fn, after=None):
        hot = name in HOT
        frames, open_spans = self._frames, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if not hot:
                span_id, parent = self._next_id, open_spans[-1]
                self._next_id += 1
                open_spans.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                took = end - start
                if frames:
                    frames[-1][0] += took
                if hot:
                    agg = self.hot.setdefault((open_spans[-1], name), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += took
                    agg[2] += took - frame[0]
                else:
                    open_spans.pop()
                    self.spans.append((span_id, parent, name, start, end, took - frame[0]))
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def dump(self, path):
        doc = {
            "spans": self.spans,
            "hot": [[parent, name, *agg] for (parent, name), agg in self.hot.items()],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of an already importable cktrace."""
    import cktrace
    import cktrace.cli

    modules = [m for name, m in sys.modules.items()
               if name == "cktrace" or name.startswith("cktrace.")]
    for layer, names in TRACED.items():
        module = sys.modules[f"cktrace.{layer}"]
        for fname in names:
            original = getattr(module, fname)
            span = SUITE_SPANS.get(fname, f"{layer}.{fname}")
            wrapped = tracer.wrap(span, original, COUNTERS.get(span))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
    functional = cktrace.functionals.TraceFunctional
    functional.value = tracer.wrap("functionals.value", functional.value, _ValueHits())
    circle = cktrace.tagging.CircleValue
    circle.__eq__ = tracer.wrap("tagging.circle_eq", circle.__eq__, _count_eq)
    circle.is_zero = property(tracer.wrap("tagging.circle_eq", circle.is_zero.fget, _count_is_zero))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: shim.py SPANS_FILE -- CLI_ARG...", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    import cktrace.cli

    try:
        return cktrace.cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
