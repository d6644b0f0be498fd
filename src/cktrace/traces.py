"""Exact graph traces and the polytope of normalized traces.

A graph trace assigns a nonnegative rational to each vertex so that the
value at a vertex dominates the sum over received edges of the values at
the edge starts, with equality at regular vertices.  All arithmetic is
exact (fractions.Fraction).  The normalized traces form a simplex: one
vertex per vertex that receives nothing and one per entry-less cycle on
the minimal tightening, each a normalized path census built directly on
the input graph, where it vanishes on the removed set.  The seeds are the
classes of ``trace_structure`` and the kept vertices receiving nothing, and
a census is one pass over the components in reverse, a topological order.
Positivity of a cylinder combination is decided on its paths' prefix tree.

A value becomes a Fraction once, where it enters: ``parse_rational`` and
``GraphTrace.from_values``.  A census makes one Fraction per nonzero count,
every zero is one shared Fraction, and the traces built here pass their
values through.
``structure`` is reached through the package's lazily loaded module, so
checking a trace never loads it.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .graph import (
    Graph,
    GraphError,
    LimitError,
    ParseError,
    Path,
    Record,
    format_path,
    is_cycle,
    strong_components,
)
from . import structure


MAX_RATIONAL_LITERAL = 1000  # characters
MAX_RATIONAL_EXPONENT = 1000
# The exponent part of a decimal literal, as fractions.Fraction reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*\Z")
_ZERO = Fraction(0)  # shared by every zero a census or a lift writes


def parse_rational(text: str) -> Fraction:
    """Exact rational from "p/q", a decimal or exponent notation.  Literals
    longer than MAX_RATIONAL_LITERAL characters or with an exponent beyond
    MAX_RATIONAL_EXPONENT are rejected before Fraction expands them (it
    builds 10**exponent in full); so is any "_", which Fraction reads as a
    digit separator only from Python 3.11 on."""
    literal = str(text)
    if len(literal) > MAX_RATIONAL_LITERAL:
        raise LimitError(
            f"rational literal is longer than {MAX_RATIONAL_LITERAL} characters"
        )
    if "_" in literal:
        raise ParseError(f"invalid rational literal {text!r}")
    exponent = _EXPONENT.search(literal)
    if exponent is not None and abs(int(exponent.group(1))) > MAX_RATIONAL_EXPONENT:
        raise LimitError(
            f"rational literal {literal!r} has an exponent beyond "
            f"±{MAX_RATIONAL_EXPONENT}"
        )
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid rational literal {text!r}") from None


class GraphTrace(Record):
    """Exact vertex weighting, stored as a sorted tuple of (vertex, value)."""

    _fields = ("entries",)

    @classmethod
    def from_values(cls, values: Mapping[str, Fraction | int | str]) -> "GraphTrace":
        items = tuple(sorted((v, Fraction(x)) for v, x in values.items()))
        return cls(items)

    @classmethod
    def from_doc(cls, doc: object) -> "GraphTrace":
        if not isinstance(doc, dict) or not isinstance(doc.get("values"), dict):
            raise ParseError("trace document must be {'values': {vertex: rational}}")
        return cls(tuple(sorted((str(v), parse_rational(x)) for v, x in doc["values"].items())))

    def to_doc(self) -> dict:
        return {"values": {v: str(x) for v, x in self.entries}}

    @cached_property
    def _map(self) -> Mapping[str, Fraction]:
        return dict(self.entries)

    def __getitem__(self, v: str) -> Fraction:
        return self._map[v]

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.entries)

    def total(self) -> Fraction:
        return sum((x for _, x in self.entries), Fraction(0))


class TraceViolation(Record):
    """First violated defining constraint: g(vertex) vs the received-edge sum."""

    _fields = ("vertex", "lhs", "rhs", "equality_required")

    def message(self) -> str:
        rel = "=" if self.equality_required else ">="
        return (
            f"constraint failed at vertex {self.vertex!r}: "
            f"{self.lhs} {rel} {self.rhs} does not hold"
        )


def validate_trace(graph: Graph, trace: GraphTrace) -> TraceViolation | None:
    """None when the trace (in)equalities hold; otherwise the first violation
    in vertex order.  Missing vertices and negative values are input errors."""
    values = trace._map
    for v in graph.vertices:
        if v not in values:
            raise GraphError(f"trace missing vertex {v!r}")
        if values[v] < 0:
            raise GraphError(f"trace value at {v!r} is negative")
    for v in trace.vertices:
        if v not in graph._receivers:
            raise GraphError(f"trace mentions unknown vertex {v!r}")
    for v, into in graph._receivers.items():
        received = sum((values[e.src] for e in into), Fraction(0))
        if into:  # regular
            if values[v] != received:
                return TraceViolation(v, values[v], received, True)
        elif values[v] < received:
            return TraceViolation(v, values[v], received, False)
    return None


def require_valid_trace(graph: Graph, trace: GraphTrace) -> None:
    """Raise GraphError("invalid trace: ...") when ``validate_trace`` finds a
    violation; the evaluators and ``tag-check`` accept only a valid trace."""
    problem = validate_trace(graph, trace)
    if problem is not None:
        raise GraphError(f"invalid trace: {problem.message()}")


# -- extreme points --------------------------------------------------------


def _census_trace(graph: Graph, seeds: frozenset[str]) -> GraphTrace:
    """Normalized count of the paths from a seed to each vertex that use no
    edge ending at a seed (1 at each seed).

    One pass over the components in topological order, upstream first: a
    vertex other than a seed counts the paths at the starts of the edges it
    receives.  It needs the part the seeds reach, seeds aside, to be
    acyclic, which tightness below the seeds gives.  The trace is built in
    vertex order, which is sorted, with one Fraction per nonzero count.
    """
    counts = dict.fromkeys(graph.vertices, 0)
    for verts in reversed(strong_components(graph)):
        for v in verts:
            counts[v] = 1 if v in seeds else sum(counts[e.src] for e in graph._receivers[v])
    total = sum(counts.values())
    return GraphTrace(tuple((v, Fraction(c, total) if c else _ZERO) for v, c in counts.items()))


def trace_seeds(graph: Graph) -> list[frozenset[str]]:
    """One seed per extreme trace: each class of ``trace_structure`` and each
    kept vertex that receives nothing, read off the kept structure in
    O(V + E), so the points can be counted before any census."""
    removed = structure.trace_null_set(graph)
    seeds = [frozenset(c) for c in structure.trace_structure(graph).classes]
    seeds += [frozenset({v}) for v, into in graph._receivers.items()
              if not into and v not in removed]
    return seeds


def extreme_traces(graph: Graph) -> list[GraphTrace]:
    """Extreme points of the normalized trace polytope, exactly, sorted by
    their value tuples in vertex order.

    Every trace vanishes on the minimal tightening's removed set.  On the
    tight rest, a trace is free at each vertex that receives nothing (by
    saturation, one that receives nothing in the input graph too) and
    constant, and free, around each class of ``trace_structure``; the
    equalities give the rest.  So the normalized traces form a simplex whose
    vertices are the normalized path censuses from those seeds.  A cycle
    below a seed would have an entry the seed emits, so below each seed,
    the seed aside, the graph is acyclic, as the census needs.
    """
    # the removed set is hereditary, so no seed reaches it: the census on the
    # whole graph is zero there and equals the lifted census of the tightening
    points = [_census_trace(graph, s) for s in trace_seeds(graph)]
    return sorted(points, key=lambda t: tuple(x for _, x in t.entries))


# -- cylinder combinations (admissible tuples) ----------------------------

PathCombination = Sequence[tuple[Fraction, Path]]


def cylinder_positive(graph: Graph, terms: PathCombination) -> bool:
    """Decide positivity of a rational combination of cylinder indicators.

    Its function on the boundary path space is constant below the terms'
    own paths, so it is decided on their prefix tree.  Each node is numbered
    once, keyed by its parent's number and its last edge (``@v`` by v), so
    the work is linear in the terms' total length; a node's value is its
    parent's plus the weights of the terms on it.  A negative prefix t gives
    a boundary path of that value exactly when t's source receives nothing
    (t itself is one) or some edge into its source extends t out of the tree
    (in a finite graph every path extends to a boundary path).  Otherwise
    every boundary path through t reaches a longer prefix, decided in its
    turn.
    """
    node: dict[tuple, int] = {}  # (parent's number, edge id), or (None, v) for @v
    tree: list[list] = []  # by number: parent's number, source, weight, then value
    for w, p in [(Fraction(w), p) for w, p in terms]:
        n = None
        for i in (graph.check_path(p).range,) + p.edges:
            if (n, i) not in node:
                node[n, i] = len(tree)
                tree.append([n, i if n is None else graph.edge(i).src, Fraction(0)])
            n = node[n, i]
        tree[n][2] += w
    for n, (up, end, x) in enumerate(tree):  # a parent is numbered before its children
        if up is not None:
            x = tree[n][2] = tree[up][2] + x
        if x < 0:
            into = graph.receivers(end)
            if not into or any((n, e.id) not in node for e in into):
                return False
    return True


def combination_value(trace: GraphTrace, terms: PathCombination) -> Fraction:
    return sum((Fraction(w) * trace[p.source] for w, p in terms), Fraction(0))


def char_implication_check(
    graph: Graph, trace: GraphTrace, terms: PathCombination
) -> bool:
    """For an admissible combination, whether the induced value on the trace
    is nonnegative.  Holds for every valid trace; refusing non-admissible
    input keeps the implication meaningful."""
    if not cylinder_positive(graph, terms):
        raise ValueError("combination is not admissible (not a positive element)")
    return combination_value(trace, terms) >= 0


def violation_certificate(
    graph: Graph, candidate: GraphTrace
) -> list[tuple[Fraction, Path]] | None:
    """Admissible combination with negative value witnessing an invalid
    candidate, built from the first violated equality in vertex order."""
    violation = validate_trace(graph, candidate)
    if violation is None:
        return None
    v = violation.vertex
    terms: list[tuple[Fraction, Path]] = [(Fraction(1), graph.trivial_path(v))]
    for e in graph.receivers(v):
        terms.append((Fraction(-1), graph.edge_path(e.id)))
    if combination_value(candidate, terms) < 0:
        return terms
    if not violation.equality_required:
        # inequality slack is always nonnegative here; only equalities flip
        raise GraphError(f"no certificate exists for the violation at {v!r}")
    return [(-w, p) for w, p in terms]


# -- transport along tightenings ------------------------------------------


def lift_trace(graph: Graph, H: frozenset[str], sub_trace: GraphTrace) -> GraphTrace:
    """Zero-extension of a trace on the subgraph complementary to H, which
    ``quotient_graph`` requires to be hereditary and saturated.  So the
    extension is a trace with no second check: by heredity a vertex of H
    receives only from H, where all is zero, and by saturation a regular
    vertex outside H stays regular in the subgraph, where it receives the
    same values, zeros from H aside."""
    sub = structure.quotient_graph(graph, H)
    problem = validate_trace(sub, sub_trace)
    if problem is not None:
        raise GraphError(f"subgraph trace is invalid: {problem.message()}")
    return GraphTrace(tuple((v, _ZERO if v in H else sub_trace[v]) for v in graph.vertices))


def trace_vanishing_check(graph: Graph, trace: GraphTrace) -> bool:
    """Whether the trace vanishes on every entry-emitting (equivalently,
    essentially left infinite) vertex, as any valid finite trace must."""
    return all(trace[v] == 0 for v in structure.emit_entry_set(graph))


def witness_nongauge_trace(graph: Graph, cycle: Path) -> GraphTrace:
    """Normalized trace positive at the cycle's source: the extreme trace of
    the class that holds it, on which a point-mass tag breaks gauge
    invariance.

    Requires the cycle's source not to be essentially left infinite.  Such
    a source is kept, and its cycle is a class of ``trace_structure``.
    """
    if not is_cycle(cycle):
        raise GraphError(f"{format_path(cycle)!r} is not a cycle")
    graph.check_path(cycle)
    v = cycle.source
    if structure.essentially_left_infinite(graph, v):
        raise GraphError(
            f"vertex {v!r} is essentially left infinite; no such witness exists"
        )
    seeds = next(c for c in structure.trace_structure(graph).classes if v in c)
    return _census_trace(graph, frozenset(seeds))
