"""Reference definitions the tests compare the library against, one copy each.

The graph helpers (a cycle's entries, its rotations, reachability and
incomparable paths) and the monomial helpers (adjoint, gauge degree,
diagonal projections and expectation, the monomial of a cyclic form) are
written from their definitions; only the tests use them.

Normality and cyclic forms are the bodies the library used before they
were read off the memoized cyclic structure: they rebuild the extension
cycle and scan its entries on the minimal tightening, find its simple root
by a divisor search and rotate the seed one edge at a time.  They read nothing of
``cktrace.monomials`` beyond the ``Monomial`` and ``CyclicForm`` records,
so they stay independent of the coding they check.  ``paths_of_length_ref``
restarts the walk from the trivial paths for every length and stays slow
on purpose, and ``cylinder_positive_ref`` is the positivity body that
enumerated one boundary path per cylinder class at the longest term's
depth, every path that long and every shorter one whose source receives
nothing, and summed the weights on each one's prefixes.  ``extreme_traces_ref`` is the extreme-trace body that took its
seeds from the minimal tightening built as a graph of its own.  The trace
data bodies that ran before the minimal tightening's cyclic structure was
read off the input graph's own component pass are kept as well:
``trace_structure_ref`` builds the tightening as a graph and runs the
pass on it, ``extreme_traces_on_cycle_ref`` seeds from the input graph's
kept components on a cycle, ``witness_nongauge_trace_ref`` takes the census
from a cycle's vertices and validates it afterwards, and
``auto_gauge_on_cycle_ref`` compares the vertices on a cycle with the
entry emitters; both read the vertices on a cycle from
``cycle_vertex_set_ref``, the union of the simple cycles.  The
circle-value helpers (``circle_value``, ``CIRCLE_ONE``, ``rotated``,
``conjugate``) are the constructor from (angle, weight) pairs in any form
and the rotation and conjugation only the tests apply, and ``measure_doc``
and ``tag_doc`` write the measure and tag documents the CLI reads.  The
graph families (lines, loop-fed lines, in-stars and in-trees) are the
scale tests' inputs.
"""

from fractions import Fraction
from functools import lru_cache

from cktrace.graph import (
    Edge,
    Graph,
    GraphError,
    Path,
    compose,
    cyclic_structure,
    format_path,
    is_cycle,
    is_prefix,
    remainder,
    simple_cycles,
    strong_components,
)
from cktrace.monomials import ZERO, CyclicForm, Monomial
from cktrace.structure import (
    emit_entry_set,
    essentially_left_infinite,
    quotient_graph,
    saturate,
    tighten_min,
    trace_null_set,
)
from cktrace.tagging import CircleValue
from cktrace.traces import _census_trace, validate_trace

# -- graph families ------------------------------------------------------------


def line(n):
    """v0 <- v1 <- ... <- v(n-1)."""
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [Edge(f"c{i}", vs[i], vs[i - 1]) for i in range(1, n)])


def loop_fed_line(n, entry=False):
    """A loop e at v0 feeding v0 -> v1 -> ... -> v(n-1); with an entry, u
    emits an edge f into v0 as well, so u is the removed set."""
    vs = [f"v{i}" for i in range(n)]
    edges = [Edge("e", vs[0], vs[0])] + [Edge(f"c{i}", vs[i - 1], vs[i]) for i in range(1, n)]
    if entry:
        return Graph(vs + ["u"], edges + [Edge("f", "u", vs[0])])
    return Graph(vs, edges)


def in_star(n):
    """A centre c receiving one edge from each of n - 1 leaves."""
    leaves = [f"l{i}" for i in range(1, n)]
    return Graph(["c"] + leaves, [Edge(f"e{i}", leaf, "c") for i, leaf in enumerate(leaves)])


def in_tree(n):
    """Heap-numbered binary tree on t1..tn: t(i // 2) receives from t(i)."""
    vs = [f"t{i}" for i in range(1, n + 1)]
    return Graph(vs, [Edge(f"e{i}", vs[i - 1], vs[i // 2 - 1]) for i in range(2, n + 1)])


# -- graphs --------------------------------------------------------------------


def paths_of_length_ref(graph, n):
    """All paths of length exactly n, in ``Path.sort_key`` order."""
    level = [graph.trivial_path(v) for v in graph.vertices]
    for _ in range(n):
        nxt = []
        for p in level:
            for e in graph.emitters(p.range):
                nxt.append(Path((e.id,) + p.edges, e.dst, p.source))
        level = nxt
    return sorted(level, key=Path.sort_key)


def cylinder_positive_ref(graph, terms, slack=0):
    """Positivity of a rational combination of cylinder indicators, by its
    value on every boundary test path, taken at the longest term's depth
    plus slack."""
    terms = [(Fraction(w), p) for w, p in terms]
    for _, p in terms:
        graph.check_path(p)
    if not terms:
        return True
    depth = max(len(p) for _, p in terms) + slack
    tests = list(paths_of_length_ref(graph, depth))
    for n in range(depth):
        tests.extend(p for p in paths_of_length_ref(graph, n) if not graph.is_regular(p.source))
    return all(
        sum((w for w, lam in terms if is_prefix(lam, mu)), Fraction(0)) >= 0 for mu in tests
    )


def incomparable(alpha, beta):
    """Neither path is a prefix of the other (their cylinders are disjoint)."""
    return not is_prefix(alpha, beta) and not is_prefix(beta, alpha)


def reaches(graph, v, w):
    """True when some (possibly trivial) path starts at v and ends at w."""
    graph.check_vertex(v)
    graph.check_vertex(w)
    seen = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        if u == w:
            return True
        for e in graph.emitters(u):
            if e.dst not in seen:
                seen.add(e.dst)
                frontier.append(e.dst)
    return w in seen


def rotate_cycle(graph, cycle, new_base):
    """Rotation of a cycle starting (source side) at one of its vertices."""
    traversal = [graph.edge(i) for i in reversed(cycle.edges)]
    for i, e in enumerate(traversal):
        if e.src == new_base:
            rotated = traversal[i:] + traversal[:i]
            ids = tuple(e.id for e in reversed(rotated))
            return Path(ids, new_base, new_base)
    raise GraphError(f"vertex {new_base!r} is not a source on cycle {format_path(cycle)!r}")


def cycle_vertices(graph, cycle):
    """Vertices visited by a cycle, as the ranges of its edges."""
    if not is_cycle(cycle):
        raise GraphError(f"{format_path(cycle)!r} is not a cycle")
    return tuple(graph.edge(i).dst for i in cycle.edges)


def cycle_vertex_set_ref(graph):
    """The vertices on some cycle: those its simple cycles visit."""
    out = set()
    for cyc in simple_cycles(graph):
        out.update(cycle_vertices(graph, cyc))
    return frozenset(out)


def entries_of(graph, cycle):
    """Edge ids entering the cycle other than the cycle's own edge at that spot."""
    if not is_cycle(cycle):
        raise GraphError(f"{format_path(cycle)!r} is not a cycle")
    hits = set()
    for pos_id in cycle.edges:
        pos = graph.edge(pos_id)
        for f in graph.receivers(pos.dst):
            if f.id != pos_id:
                hits.add(f.id)
    return frozenset(hits)


def tighten_left_ref(graph):
    """Tightening by the essentially left infinite vertices, from the
    definition: the quotient by their saturation."""
    infinite = frozenset(v for v in graph.vertices if essentially_left_infinite(graph, v))
    H = saturate(graph, infinite)
    return quotient_graph(graph, H), H


def extreme_traces_ref(graph):
    """The extreme traces with their seeds taken on the minimal tightening,
    built as a graph of its own: its sources and its cyclic classes."""
    tight, _ = tighten_min(graph)
    seeds = [frozenset({v}) for v in tight.vertices if not tight.is_regular(v)]
    seeds += [frozenset(c) for c in cyclic_structure(tight).classes]
    points = [_census_trace(graph, s) for s in seeds]
    return sorted(points, key=lambda t: tuple(x for _, x in t.entries))


def trace_structure_ref(graph):
    """The cyclic structure of the minimal tightening, built as a graph of
    its own with its own component pass."""
    return cyclic_structure(tighten_min(graph)[0])


def extreme_traces_on_cycle_ref(graph):
    """The extreme traces seeded by the input graph's kept components that
    hold a cycle or a vertex receiving nothing."""
    removed = trace_null_set(graph)
    cyclic = cycle_vertex_set_ref(graph)
    seeds = [frozenset(c) for c in strong_components(graph) if c[0] not in removed
             and (c[0] in cyclic or not graph.is_regular(c[0]))]
    points = [_census_trace(graph, s) for s in seeds]
    return sorted(points, key=lambda t: tuple(x for _, x in t.entries))


def witness_nongauge_trace_ref(graph, cycle):
    """The census from the cycle's vertices, validated once it is built."""
    if not is_cycle(cycle):
        raise GraphError(f"{format_path(cycle)!r} is not a cycle")
    graph.check_path(cycle)
    v = cycle.source
    if essentially_left_infinite(graph, v):
        raise GraphError(f"vertex {v!r} is essentially left infinite; no such witness exists")
    witness = _census_trace(graph, frozenset(cycle_vertices(graph, cycle)))
    problem = validate_trace(graph, witness)
    if problem is not None:
        raise GraphError(
            "path census is not a trace here (is the graph tight?): " + problem.message()
        )
    return witness


def auto_gauge_on_cycle_ref(graph):
    """Every vertex on a cycle of the input graph emits an entry."""
    return cycle_vertex_set_ref(graph) <= emit_entry_set(graph)


# -- circle values -------------------------------------------------------------

def circle_value(pairs):
    """The circle value of (angle, weight) pairs, each in any form ``Fraction``
    reads, angles taken mod 1."""
    return CircleValue._merged((Fraction(a) % 1, Fraction(w)) for a, w in pairs)


CIRCLE_ONE = CircleValue.rational(1)


def rotated(v, angle):
    """The circle value times exp(2 pi i angle)."""
    return circle_value((a + Fraction(angle), w) for a, w in v.terms)


def conjugate(v):
    """The complex conjugate of a circle value."""
    return circle_value((-a, w) for a, w in v.terms)


def measure_doc(m):
    """The document ``CircleMeasure.from_doc`` reads back as the measure m."""
    return {
        "haar": str(m.haar),
        "atoms": [{"angle": str(a), "weight": str(w)} for a, w in m.atoms],
    }


def tag_doc(tag):
    """The document ``Tag.from_doc`` reads back as the tag."""
    return {v: measure_doc(m) for v, m in tag.measures}


# -- monomials -----------------------------------------------------------------


def is_diagonal(x):
    return x.left is not None and x.left == x.right


def adjoint(x):
    return x if x.is_zero else Monomial(x.right, x.left)


def degree(x):
    """Gauge degree: length difference of the two paths (0 for zero)."""
    return 0 if x.is_zero else len(x.left) - len(x.right)


def projection(path):
    """Diagonal monomial: the indicator of the path's cylinder."""
    return Monomial(path, path)


def expect_diagonal(x):
    """Conditional expectation onto the diagonal: kills off-diagonal pairs."""
    return x if is_diagonal(x) else ZERO


def from_cyclic_form(form):
    """Monomial pair realizing a cyclic form (the seed power along the ray)."""
    loop = form.seed
    for _ in range(abs(form.power) - 1):
        loop = compose(loop, form.seed)
    extended = compose(form.ray, loop)
    x = Monomial(extended, form.ray)
    return x if form.power > 0 else adjoint(x)


# -- normality, cyclic forms and classes ---------------------------------------


@lru_cache(maxsize=16)
def tightening_ref(graph):
    """``tighten_min`` of the graph, kept for the last few graphs asked."""
    return tighten_min(graph)


def is_normal_ref(graph, x):
    """Normality where trace data lives, on the minimal tightening built as a
    graph of its own: a diagonal is normal, an off-diagonal pair whose source
    the tightening removes is not, and any other pair is a pair of paths of
    the tightening, normal when its overhang is a cycle without entries
    there."""
    if x.is_zero:
        return False
    if is_diagonal(x):
        return True
    tight, removed = tightening_ref(graph)
    if x.left.source in removed:
        return False
    a, b = x.left, x.right
    if is_prefix(a, b):
        return not entries_of(tight, remainder(b, a))
    if is_prefix(b, a):
        return not entries_of(tight, remainder(a, b))
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


def class_ref(graph, x):
    """The class key of a nonzero monomial, from the references: (v, 0) on
    the diagonal, (ray source, power) when normal, 0 otherwise."""
    if is_diagonal(x):
        return (x.left.source, 0)
    if not is_normal_ref(graph, x):
        return 0
    form = cyclic_form_ref(graph, x)
    return (form.ray.source, form.power)
