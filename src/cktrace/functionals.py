"""Trace functionals on spanning monomials and the verification suites.

Functionals are defined on formal pairs, not algebra elements; distinct
pairs can present the same element, and instead of assuming
well-definedness the suites check it: traciality and invariance are exact
identities in the circle-value arithmetic, and the relation-additivity
audit confirms that coinciding presentations get coinciding values.

A functional is a trace with a tag, ``haar_tag(graph, trace)`` for the
Haar state.  Its value on a monomial depends only on the monomial's class
(diagonal at a vertex, normal off-diagonal with a ray source and a power,
or zero), so it is computed once per class, keyed by the class itself.
All six suites run on the pairs of the graph's integer coding of its
monomials, the Gram probe included.  The coding takes every product
(traciality reads its product pairs, the Gram probe its product classes)
and invariance takes none, since conjugating by an edge prepends it to
both paths.  Each coded monomial is classified once per coding (per graph
and bound) from its paths, and two products of the same class need no
comparison.
Monomial objects are built only for witnesses.  ``value``, which serves
``eval``, classifies a monomial from its two paths and the tightening's
cyclic structure, with no enumeration.  The cylinder suite decides its identity
once per regular vertex: a cylinder's mass is the trace at its path's
source.

Floating point appears only in the Gram positivity probe, whose smallest
eigenvalue comes from cyclic Jacobi rotations in pure Python.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .graph import Graph, GraphError, Record, count_paths_from
from .monomials import (
    Monomial,
    coding,
    format_monomial,
    monomial_class,
)
from .tagging import (
    CIRCLE_ZERO,
    CircleValue,
    Tag,
    haar_tag,
    moment,
    validate_tag,
)
from .traces import GraphTrace, require_valid_trace


class TraceFunctional(Record):
    """Evaluator for the trace of a graph trace and a tag, the Haar trace
    when the tag is ``haar_tag(graph, trace)``: the trace at a diagonal's
    source, and the mass at a cyclic power's ray source times the tag's
    moment.  A value depends only on the monomial's class (see
    ``monomials.classify``), so values are cached per class key.

    Like every record, a functional has fixed fields and compares, hashes
    and prints by its graph, trace and tag.
    """

    _fields = ("graph", "trace", "tag")

    def __init__(self, graph: Graph, trace: GraphTrace, tag: Tag):
        super().__init__(graph, trace, tag)
        object.__setattr__(self, "_values", {0: CIRCLE_ZERO})

    def value(self, x: Monomial) -> CircleValue:
        return self.class_value(monomial_class(self.graph, x))

    def class_value(self, c: tuple[str, int] | int) -> CircleValue:
        """The value on the graph's monomials whose class key is c."""
        out = self._values.get(c)
        if out is None:
            out = self._values[c] = self._evaluate(*c)
        return out

    def _evaluate(self, vertex: str, power: int) -> CircleValue:
        """The value of the class (vertex, power): the trace at a diagonal's
        source, or the mass at the ray source times the tag's moment."""
        if power == 0:
            return CircleValue.rational(self.trace[vertex])
        if self.trace[vertex] == 0:
            return CIRCLE_ZERO
        measure = self.tag._map.get(vertex)
        if measure is None:
            raise GraphError(f"tag has no measure for cyclic vertex {vertex!r} with mass")
        return moment(measure, power).scaled(self.trace[vertex])

    def classes_agree(self, c: tuple[str, int] | int, d: tuple[str, int] | int) -> bool:
        """Whether classes c and d get equal values, decided exactly."""
        if c == d:
            self.class_value(c)
            return True
        return self.class_value(c) == self.class_value(d)


def tagged_functional(graph: Graph, trace: GraphTrace, tag: Tag) -> TraceFunctional:
    """Tagged evaluator for a valid trace and tag.  TraceFunctional(graph,
    trace, tag) skips the checks, to show how inconsistent tags break things."""
    require_valid_trace(graph, trace)
    tag_problem = validate_tag(graph, trace, tag)
    if tag_problem is not None:
        raise GraphError(f"invalid tag: {tag_problem.message}")
    return TraceFunctional(graph, trace, tag)


def haar_tagged_functional(graph: Graph, trace: GraphTrace) -> TraceFunctional:
    """Gauge-invariant evaluator: a valid trace with the Haar tag on its cyclic
    support, which is consistent by construction and so not checked again."""
    require_valid_trace(graph, trace)
    return TraceFunctional(graph, trace, haar_tag(graph, trace))


# -- verification suites ---------------------------------------------------


class CheckResult(Record):
    """Outcome of one suite; ``checked`` counts the cases it examined, up to
    and including a failing one."""

    _fields = ("name", "passed", "witness", "detail", "checked")

    def __init__(self, name: str, passed: bool, witness: str | None = None,
                 detail: str | None = None, checked: int = 0):
        super().__init__(name, passed, witness, detail, checked)

    def message(self) -> str:
        state = "pass" if self.passed else "FAIL"
        extra = f" [{self.witness}]" if self.witness else ""
        extra += f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {state}{extra}"


def check_traciality(fn: TraceFunctional, max_len: int) -> CheckResult:
    """F(xy) = F(yx) exactly, over all monomial pairs up to the length bound.

    Every pair with xy = 0 = yx has F(xy) = F(0) = F(yx), so only the pairs
    with a nonzero product are visited, as the coding's ``product_pairs``
    lists them: in the order of the full scan, which keeps the first failing
    pair, with both products' classes.  Equal classes have equal values."""
    code = coding(fn.graph, max_len)
    values, agree = fn._values, fn.classes_agree
    checked = 0
    for i, j, xy, yx in code.product_pairs():
        checked += 1
        if xy == yx:
            if xy not in values:
                fn.class_value(xy)
        elif not agree(xy, yx):
            return CheckResult(
                "traciality",
                False,
                witness=f"x={format_monomial(code.monomial(*code.codes[i]))} "
                f"y={format_monomial(code.monomial(*code.codes[j]))}",
                detail=f"F(xy)={fn.class_value(xy)} F(yx)={fn.class_value(yx)}",
                checked=checked,
            )
    return CheckResult("traciality", True, checked=checked)


def check_edge_invariance(fn: TraceFunctional, max_len: int) -> CheckResult:
    """F(n b n*) = F(n*n b) for the edge normalizers n, the single-edge
    isometries (e, @source of e), against every normal monomial b up to the
    bound.  The paths of a normal monomial end at one vertex.  When that is
    e's source, n b n* prepends e to both paths and n*n b = b; otherwise
    both sides are 0, so the pair counts in ``checked`` and needs no work."""
    graph = fn.graph
    code = coding(graph, max_len)
    paths, join, class_of = code.paths, code.join, code.class_of
    core: dict[str, list] = {}
    size = 0
    for a, b in code.codes:
        key = class_of(a, b)
        if key:
            core.setdefault(paths[a].range, []).append((size, a, b, key))
            size += 1
    for k, e in enumerate(graph.edges):
        path = graph.edge_path(e.id)
        edge = code.intern(path)
        for position, a, b, key in core.get(e.src, ()):
            conjugate = class_of(join(edge, a), join(edge, b))
            if not fn.classes_agree(conjugate, key):
                n = Monomial(path, graph.trivial_path(e.src))
                return CheckResult(
                    "invariance",
                    False,
                    witness=f"n={format_monomial(n)} "
                    f"b={format_monomial(code.monomial(a, b))}",
                    detail=f"F(nbn*)={fn.class_value(conjugate)} F(n*nb)={fn.class_value(key)}",
                    checked=k * size + position + 1,
                )
    return CheckResult("invariance", True, checked=len(graph.edges) * size)


def check_gauge(fn: TraceFunctional, max_len: int) -> CheckResult:
    """Gauge invariance: vanishing on every monomial of nonzero degree.  A
    pass on a graph with a class cycle whose checked monomials all have
    class 0 (no class-cycle power, so the value is 0 whatever the tag) says
    so in ``detail``."""
    code = coding(fn.graph, max_len)
    checked = 0
    powered = False
    for a, b in code.codes:
        degree = code.length[a] - code.length[b]
        if not degree:
            continue
        checked += 1
        key = code.class_of(a, b)
        powered = powered or key != 0
        val = fn.class_value(key)
        if not val.is_zero:
            return CheckResult(
                "gauge",
                False,
                witness=format_monomial(code.monomial(a, b)),
                detail=f"degree {degree} value {val.format_terms()}",
                checked=checked,
            )
    classes = code.struct.classes
    if powered or not classes:
        return CheckResult("gauge", True, checked=checked)
    shortest = min(len(c) for c in classes)
    detail = (f"no monomial up to length {max_len} has a class-cycle power "
              f"(shortest class cycle: {shortest})")
    return CheckResult("gauge", True, detail=detail, checked=checked)


def ck_additivity_check(fn: TraceFunctional, max_len: int) -> CheckResult:
    """F(x) equals the sum of F over all one-edge source extensions whenever
    the common source is regular; this is the relation that makes distinct
    presentations of one element agree."""
    graph = fn.graph
    code = coding(graph, max_len)
    steps = {
        v: [code.intern(graph.edge_path(e.id)) for e in graph.receivers(v)]
        for v in graph.vertices
    }
    checked = 0
    for a, b in code.codes:
        ends = steps[code.paths[a].source]
        if not ends:
            continue
        checked += 1
        total = CIRCLE_ZERO
        for step in ends:
            total = total + fn.class_value(
                code.class_of(code.join(a, step), code.join(b, step))
            )
        own = fn.class_value(code.class_of(a, b))
        if own != total:
            return CheckResult(
                "ck",
                False,
                witness=format_monomial(code.monomial(a, b)),
                detail=f"F(x)={own} sum={total}",
                checked=checked,
            )
    return CheckResult("ck", True, checked=checked)


def cylinder_measure_check(graph: Graph, trace: GraphTrace, max_len: int) -> CheckResult:
    """The cylinder measure of a trace: additivity over one-edge extensions,
    on every path with a regular source.  A cylinder's mass is the trace at
    its path's source, so that is one identity per regular vertex, decided
    once: a failing vertex fails at its trivial path, and a pass counts the
    paths.  The two cylinders a monomial transfers into each other share a
    source, so they have equal mass by construction and need no check."""
    # below length 0 there is no path, so no vertex is checked
    regular = [v for v in graph.vertices if graph.is_regular(v)] if max_len >= 0 else []
    for checked, v in enumerate(regular, 1):
        mass = trace[v]
        extended = sum((trace[e.src] for e in graph.receivers(v)), Fraction(0))
        if mass != extended:
            return CheckResult(
                "cylinder",
                False,
                witness=f"Z(@{v}|@{v})",
                detail=f"m={mass} extensions={extended}",
                checked=checked,
            )
    checked = sum(count_paths_from(graph, v, max_len) for v in regular)
    return CheckResult("cylinder", True, checked=checked)


def lowest_eigenvalue(matrix: Sequence[Sequence[complex]]) -> float:
    """Smallest eigenvalue of a Hermitian matrix, by cyclic Jacobi rotations.

    Each rotation first turns the pivot a_pq real by a phase on row and
    column q, then zeroes it by a real plane rotation; sweeps repeat until
    the off-diagonal part is negligible against the whole matrix.  Exact
    zeros are never rotated, so a block-diagonal matrix stays blocked."""
    a = [list(map(complex, row)) for row in matrix]
    n = len(a)
    scale = sum(abs(z) ** 2 for row in a for z in row)
    for _ in range(100):
        off = sum(abs(a[p][q]) ** 2 for p in range(n) for q in range(p + 1, n))
        if off <= 1e-36 * scale:
            break
        for p in range(n):
            for q in range(p + 1, n):
                g = a[p][q]
                r = abs(g)
                if r == 0:
                    continue
                phase = g / r  # row q times phase, column q times its conjugate
                for k in range(n):
                    a[q][k] *= phase
                    a[k][q] *= phase.conjugate()
                app, aqq = a[p][p].real, a[q][q].real
                theta = (aqq - app) / (2 * r)
                t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + math.sqrt(theta * theta + 1))
                c = 1 / math.sqrt(t * t + 1)
                s = t * c
                for k in range(n):
                    if k != p and k != q:
                        kp, kq = a[k][p], a[k][q]
                        a[k][p] = c * kp - s * kq
                        a[k][q] = s * kp + c * kq
                        a[p][k] = a[k][p].conjugate()
                        a[q][k] = a[k][q].conjugate()
                a[p][p] = app - t * r
                a[q][q] = aqq + t * r
                a[p][q] = a[q][p] = 0j
    return min(a[k][k].real for k in range(n))


def gram_psd_check(fn: TraceFunctional, max_len: int) -> CheckResult:
    """Numeric positivity probe on the family of the first six monomials up
    to the bound: the matrix F(x_i* x_j) must be PSD up to 1e-9.  With x_i
    coded (a, b), x_i* is (b, a), so each entry is the value of a product
    class, converted to a complex number once per class.  A graph with no
    monomial has an empty family, which passes with eigenvalue 0."""
    code = coding(fn.graph, max_len)
    family = code.codes[:6]
    classes = [[code.product_class(b, a, c, d) for c, d in family] for a, b in family]
    value = {
        c: fn.class_value(c).as_complex()
        for c in dict.fromkeys(k for row in classes for k in row)
    }
    size = len(family)
    herm = [
        [(value[classes[i][j]] + value[classes[j][i]].conjugate()) / 2 for j in range(size)]
        for i in range(size)
    ]
    lowest = lowest_eigenvalue(herm) if size else 0.0
    return CheckResult(
        "gram",
        lowest >= -1e-9,
        detail=f"min eigenvalue {lowest:.3e}",
        checked=size,
    )


SUITE_NAMES = ("traciality", "invariance", "gauge", "gram", "ck", "cylinder")


def run_suites(
    fn: TraceFunctional, max_len: int, names: Iterable[str] = SUITE_NAMES
) -> list[CheckResult]:
    results = []
    for name in names:
        if name == "traciality":
            results.append(check_traciality(fn, max_len))
        elif name == "invariance":
            results.append(check_edge_invariance(fn, max_len))
        elif name == "gauge":
            results.append(check_gauge(fn, max_len))
        elif name == "gram":
            results.append(gram_psd_check(fn, max_len))
        elif name == "ck":
            results.append(ck_additivity_check(fn, max_len))
        elif name == "cylinder":
            results.append(cylinder_measure_check(fn.graph, fn.trace, max_len))
        else:
            raise ValueError(f"unknown suite {name!r}")
    return results
