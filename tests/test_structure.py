import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktrace.fuzz import graph_battery
from cktrace.graph import Edge, Graph, GraphError, count_paths_from, simple_cycles
from cktrace.structure import (
    auto_gauge_criterion,
    emit_entry_set,
    essentially_left_infinite,
    is_hereditary,
    is_saturated,
    is_tight,
    quotient_graph,
    saturate,
    tighten_min,
)
from reference import cycle_vertex_set_ref, tighten_left_ref

# -- oracle helpers ----------------------------------------------------------


def saturate_oracle(graph, H):
    """Minimal saturated superset by scanning all supersets (tiny graphs only)."""
    from itertools import combinations

    rest = [v for v in graph.vertices if v not in H]
    best = None
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            candidate = frozenset(H) | frozenset(extra)
            if is_saturated(graph, candidate):
                if best is None or len(candidate) < len(best):
                    best = candidate
        if best is not None:
            return best
    return frozenset(graph.vertices)


def antichain_census(graph, v, max_length):
    """Counts of same-length paths with source v (each count is an antichain
    size).  Divergence for a vertex outside the entry-emitting set would
    falsify the finite-graph identification of left infinite vertices."""
    return [
        count_paths_from(graph, v, n) - count_paths_from(graph, v, n - 1)
        for n in range(1, max_length + 1)
    ]


def assert_census_bounded(graph, v):
    n = len(graph.vertices)
    window = n + 2
    counts = antichain_census(graph, v, 2 * n + 8)
    tail = counts[-window:]
    strictly_up = all(b > a for a, b in zip(tail, tail[1:]))
    assert not strictly_up, (
        f"antichain census diverges at {v!r} although it does not emit an entry "
        f"into a cycle; the finite-graph left-infinite rule is wrong here: {counts}"
    )


# -- saturation ----------------------------------------------------------------


def test_saturate_examples(loop_with_entry, line3):
    assert saturate(loop_with_entry, frozenset({"u"})) == frozenset({"u"})
    assert saturate(line3, frozenset({"v3"})) == frozenset({"v1", "v2", "v3"})
    assert saturate(line3, frozenset()) == frozenset()


def test_saturate_matches_oracle(loop_with_entry, line3, figure_eight, two_cycle):
    from itertools import combinations

    for g in (loop_with_entry, line3, figure_eight, two_cycle):
        verts = list(g.vertices)
        for k in range(len(verts) + 1):
            for H in combinations(verts, k):
                H = frozenset(H)
                assert saturate(g, H) == saturate_oracle(g, H)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_saturate_idempotent_monotone(data):
    graphs = graph_battery(seed=7, count=8, max_vertices=5, max_edges=7)
    g = data.draw(st.sampled_from(graphs))
    H = frozenset(data.draw(st.sets(st.sampled_from(list(g.vertices)))))
    H2 = H | frozenset(data.draw(st.sets(st.sampled_from(list(g.vertices)))))
    sat = saturate(g, H)
    assert saturate(g, sat) == sat
    assert sat <= saturate(g, H2)
    assert is_saturated(g, sat)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_saturation_preserves_hereditary(data):
    graphs = graph_battery(seed=11, count=8, max_vertices=5, max_edges=7)
    g = data.draw(st.sampled_from(graphs))
    seedset = frozenset(data.draw(st.sets(st.sampled_from(list(g.vertices)))))
    # hereditary closure first
    H = set(seedset)
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if e.dst in H and e.src not in H:
                H.add(e.src)
                changed = True
    H = frozenset(H)
    assert is_hereditary(g, H)
    assert is_hereditary(g, saturate(g, H))


def test_saturate_is_linear_on_a_long_line():
    """A line of 2,000 vertices fed by an entry emitter, flowing against the
    sorted vertex order: a fixpoint that rescans the vertices adds one
    vertex per scan, the worklist adds all of them in one pass."""
    n = 2000
    names = [f"v{i:04d}" for i in range(n)]
    edges = [Edge("l1", "w", "w"), Edge("l2", "w", "w"), Edge("f", "w", names[-1])]
    edges += [Edge(f"e{i:04d}", names[i + 1], names[i]) for i in range(n - 1)]
    g = Graph(names + ["w"], edges)
    start = time.perf_counter()
    tight, removed = tighten_min(g)
    assert time.perf_counter() - start < 1.0
    assert len(removed) == n + 1
    assert tight.vertices == ()


# -- quotients --------------------------------------------------------------------


def test_quotient_examples(loop_with_entry, loop_graph, line3):
    assert quotient_graph(loop_with_entry, frozenset({"u"})) == loop_graph
    assert quotient_graph(line3, frozenset()) == line3
    full = frozenset({"v1", "v2", "v3"})
    assert quotient_graph(line3, full) == Graph([], [])


def test_quotient_rejects_bad_sets(loop_with_entry, line3):
    # {v} is not hereditary in the loop-with-entry graph (f ends at v, starts at u)
    with pytest.raises(GraphError, match="hereditary"):
        quotient_graph(loop_with_entry, frozenset({"v"}))
    # {v2} is hereditary-violating too; use a hereditary but unsaturated set:
    # {v1} has s(a)=v2 outside, and v1 regular receiving only from {v2}; check a
    # genuinely unsaturated hereditary set on line3: {v1} leaves v1's receiver
    # v2 outside, fine; but v1 in H makes nothing unsaturated. Use figure case:
    g = Graph(["x", "y"], [Edge("e", "y", "x")])
    # {x} is hereditary? dst x in H -> src y must be in H: fails, so hereditary
    # violation again; {y} is hereditary (nothing ends at y) but unsaturated?
    # x receives only from y in H, x regular -> x must be in H: unsaturated.
    with pytest.raises(GraphError, match="saturated"):
        quotient_graph(g, frozenset({"y"}))


def test_quotient_never_dangles():
    for g in graph_battery(seed=3, count=25):
        sub, removed = tighten_min(g)
        surviving = set(sub.vertices)
        for e in sub.edges:
            assert e.src in surviving and e.dst in surviving


# -- entry emitters -----------------------------------------------------------------


def test_emit_entry_set_examples(two_loops, loop_with_entry, line3):
    assert emit_entry_set(two_loops) == frozenset({"v"})
    assert emit_entry_set(loop_with_entry) == frozenset({"u"})
    assert emit_entry_set(line3) == frozenset()


def test_emit_entry_set_hereditary():
    for g in graph_battery(seed=5, count=30):
        assert is_hereditary(g, emit_entry_set(g))


# -- tightenings ----------------------------------------------------------------------


def test_tighten_min_examples(two_loops, loop_with_entry, loop_graph):
    sub, removed = tighten_min(two_loops)
    assert removed == frozenset({"v"})
    assert sub == Graph([], [])
    sub, removed = tighten_min(loop_with_entry)
    assert removed == frozenset({"u"})
    assert sub == loop_graph
    sub, removed = tighten_min(loop_graph)
    assert removed == frozenset()
    assert sub == loop_graph


def test_is_tight_examples(two_loops, loop_graph, two_cycle):
    assert not is_tight(two_loops)
    assert is_tight(loop_graph)
    assert is_tight(two_cycle)


def test_tighten_min_idempotent_and_tight():
    for g in graph_battery(seed=13, count=30):
        sub, removed = tighten_min(g)
        assert is_tight(sub)
        again, removed2 = tighten_min(sub)
        assert removed2 == frozenset()
        assert again == sub


def test_tighten_left_examples(two_loops, loop_graph, loop_with_entry):
    assert tighten_left_ref(two_loops)[0] == Graph([], [])
    assert tighten_left_ref(loop_graph)[0] == loop_graph
    assert tighten_left_ref(loop_with_entry)[0] == loop_graph


def test_tighten_left_within_min():
    for g in graph_battery(seed=17, count=30):
        sub_min, _ = tighten_min(g)
        sub_left, _ = tighten_left_ref(g)
        assert is_tight(sub_left)
        assert set(sub_left.vertices) <= set(sub_min.vertices)


# -- essentially left infinite ------------------------------------------------------


def test_left_infinite_examples(two_loops, loop_with_entry, line3):
    assert essentially_left_infinite(two_loops, "v")
    assert not essentially_left_infinite(loop_with_entry, "v")
    assert not essentially_left_infinite(line3, "v3")


def test_antichain_census_guard(loop_with_entry, line3, figure_eight):
    """Consistency oracle for the finite-graph rule: vertices outside the
    entry-emitting set must have bounded same-length antichains, while the
    emitters must show growth somewhere in the census."""
    for g in [loop_with_entry, line3, figure_eight] + graph_battery(seed=19, count=20):
        infinite = emit_entry_set(g)
        for v in g.vertices:
            if v not in infinite:
                assert_census_bounded(g, v)


def test_census_detects_entry_emitters(two_loops, figure_eight):
    # sanity in the other direction: the census grows for genuine emitters
    assert antichain_census(two_loops, "v", 8) == [2, 4, 8, 16, 32, 64, 128, 256]
    counts = antichain_census(figure_eight, "v", 12)
    assert counts[-1] > counts[4]


# -- gauge criterion --------------------------------------------------------------------


def test_auto_gauge_examples(two_loops, loop_with_entry, line3, loop_graph):
    assert auto_gauge_criterion(two_loops)
    assert not auto_gauge_criterion(loop_with_entry)
    assert auto_gauge_criterion(line3)
    assert not auto_gauge_criterion(loop_graph)


def test_cycle_vertex_set(figure_eight, line3):
    assert cycle_vertex_set_ref(figure_eight) == frozenset({"v", "w"})
    assert cycle_vertex_set_ref(line3) == frozenset()
    assert len(simple_cycles(figure_eight)) == 2
