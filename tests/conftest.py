"""Shared fixture graphs for the whole suite, and the reference
definitions that more than one test module reads: normality, cyclic forms
and classes, and the tightening by the essentially left infinite vertices.

The references are the bodies the library used before normality and cyclic
forms were read off the memoized cyclic structure: they rebuild the
extension cycle and scan its entries, find its simple root by a divisor
search and rotate the seed one edge at a time.  They read nothing of
``cktrace.monomials`` beyond the ``CyclicForm`` record, so they stay
independent of the coding they check.
"""

from fractions import Fraction

import pytest

from cktrace.graph import Edge, Graph, Path, entries_of, is_prefix, remainder, rotate_cycle
from cktrace.monomials import CyclicForm
from cktrace.structure import essentially_left_infinite, quotient_graph, saturate
from cktrace.traces import GraphTrace


@pytest.fixture
def loop_graph() -> Graph:
    """One vertex with a single loop."""
    return Graph(["v"], [Edge("e", "v", "v")])


@pytest.fixture
def two_loops() -> Graph:
    """One vertex with two loops (each loop is an entry to the other)."""
    return Graph(["v"], [Edge("e1", "v", "v"), Edge("e2", "v", "v")])


@pytest.fixture
def line3() -> Graph:
    """v1 <- v2 <- v3: edge a from v2 to v1, edge b from v3 to v2."""
    return Graph(["v1", "v2", "v3"], [Edge("a", "v2", "v1"), Edge("b", "v3", "v2")])


@pytest.fixture
def loop_with_entry() -> Graph:
    """Loop e at v plus an entry edge f from u into v."""
    return Graph(["v", "u"], [Edge("e", "v", "v"), Edge("f", "u", "v")])


@pytest.fixture
def two_cycle() -> Graph:
    """Two vertices on one entry-less cycle: a from v to w, b from w to v."""
    return Graph(["v", "w"], [Edge("a", "v", "w"), Edge("b", "w", "v")])


@pytest.fixture
def disjoint_loops() -> Graph:
    """Two components, each a single loop."""
    return Graph(["v", "w"], [Edge("lv", "v", "v"), Edge("lw", "w", "w")])


@pytest.fixture
def figure_eight() -> Graph:
    """Two loops sharing no vertex but joined by a connector: loop at v,
    loop at w, edge c from v to w (so v emits an entry into w's loop)."""
    return Graph(
        ["v", "w"],
        [Edge("p", "v", "v"), Edge("q", "w", "w"), Edge("c", "v", "w")],
    )


def trace_of(values: dict) -> GraphTrace:
    return GraphTrace.from_values({v: Fraction(x) for v, x in values.items()})


# -- reference definitions -----------------------------------------------------


def is_normal_ref(graph, x):
    if x.is_zero:
        return False
    if x.is_diagonal:
        return True
    a, b = x.left, x.right
    if is_prefix(a, b):
        return not entries_of(graph, remainder(b, a))
    if is_prefix(b, a):
        return not entries_of(graph, remainder(a, b))
    return False


def simple_root_ref(graph, cycle):
    n = len(cycle.edges)
    for d in range(1, n + 1):
        if n % d:
            continue
        if cycle.edges == cycle.edges[:d] * (n // d):
            root_source = graph.edge(cycle.edges[d - 1]).src
            root = Path(cycle.edges[:d], cycle.range, root_source)
            ranges = [graph.edge(i).dst for i in root.edges]
            assert len(set(ranges)) == d
            return root, n // d
    raise AssertionError("every cycle is its own power")


def cyclic_form_ref(graph, x):
    a, b = x.left, x.right
    if is_prefix(b, a):
        shorter, cycle, sign = b, remainder(a, b), 1
    else:
        shorter, cycle, sign = a, remainder(b, a), -1
    root, power = simple_root_ref(graph, cycle)
    gamma = shorter
    seed = root
    while gamma.edges and gamma.edges[-1] in set(seed.edges):
        dropped = graph.edge(gamma.edges[-1])
        rest = gamma.edges[:-1]
        gamma = Path(rest, gamma.range if rest else dropped.dst, dropped.dst)
        seed = rotate_cycle(graph, seed, dropped.dst)
    return CyclicForm(gamma, seed, sign * power)


def tighten_left_ref(graph):
    """Tightening by the essentially left infinite vertices, from the
    definition: the quotient by their saturation."""
    infinite = frozenset(v for v in graph.vertices if essentially_left_infinite(graph, v))
    H = saturate(graph, infinite)
    return quotient_graph(graph, H), H


def class_ref(graph, x):
    """The class key of a nonzero monomial, from the references: (v, 0) on
    the diagonal, (ray source, power) when normal, 0 otherwise."""
    if x.is_diagonal:
        return (x.left.source, 0)
    if not is_normal_ref(graph, x):
        return 0
    form = cyclic_form_ref(graph, x)
    return (form.ray.source, form.power)
