"""The linear-time structure layer against reference definitions that
enumerate simple cycles.

The references below are the cycle-enumerating bodies the structure layer
used before it switched to strongly connected components, and the fixpoint
saturation it used before the worklist; they are the definitions, written
out, and stay exponential or quadratic on purpose.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktrace.fuzz import graph_battery
from cktrace.graph import (
    CyclicStructure,
    Edge,
    Graph,
    cyclic_structure,
    simple_cycles,
    strong_components,
)
from cktrace.structure import (
    auto_gauge_criterion,
    emit_entry_set,
    essentially_left_infinite,
    is_tight,
    saturate,
    tighten_min,
)
from reference import (cycle_vertex_set_ref, cycle_vertices, entries_of, in_star, in_tree, line,
                       reaches, rotate_cycle)

BATTERY_SEEDS = (20260810, 1, 2, 3)

# -- reference definitions -----------------------------------------------------


def entry_edges_ref(graph):
    hits = set()
    for cyc in simple_cycles(graph):
        hits.update(entries_of(graph, cyc))
    return frozenset(hits)


def emit_entry_set_ref(graph):
    starts = {graph.edge(i).src for i in entry_edges_ref(graph)}
    return frozenset(
        v for v in graph.vertices if any(reaches(graph, v, s) for s in starts)
    )


def is_tight_ref(graph):
    return all(not entries_of(graph, cyc) for cyc in simple_cycles(graph))


def cyclic_structure_ref(graph):
    classes = []
    cycle_at = {}
    seen = set()
    for cyc in simple_cycles(graph):
        if entries_of(graph, cyc):
            continue
        verts = cycle_vertices(graph, cyc)
        assert not seen.intersection(verts), "entry-less cycles overlap"
        seen.update(verts)
        classes.append(tuple(sorted(verts)))
        for w in verts:
            cycle_at[w] = rotate_cycle(graph, cyc, w)
    classes.sort()
    return CyclicStructure(tuple(classes), cycle_at, entry_edges_ref(graph))


def auto_gauge_criterion_ref(graph):
    return cycle_vertex_set_ref(graph) <= emit_entry_set_ref(graph)


def saturate_ref(graph, H):
    """Increasing fixpoint of the regular-receiver rule."""
    closed = set(H)
    changed = True
    while changed:
        changed = False
        for v in graph.vertices:
            if v in closed:
                continue
            incoming = graph.receivers(v)
            if incoming and all(e.src in closed for e in incoming):
                closed.add(v)
                changed = True
    return frozenset(closed)


def hereditary_closure(graph, seeds):
    """The seeds and every vertex that reaches one of them."""
    return frozenset(v for v in graph.vertices if any(reaches(graph, v, s) for s in seeds))


def assert_saturate_matches_reference(graph, seeds):
    H = hereditary_closure(graph, seeds)
    assert saturate(graph, H) == saturate_ref(graph, H), (graph, H)


def assert_matches_reference(graph):
    struct = cyclic_structure(graph)
    assert struct.entries == entry_edges_ref(graph), graph
    emitters = emit_entry_set(graph)
    assert emitters == emit_entry_set_ref(graph), graph
    assert is_tight(graph) == is_tight_ref(graph), graph
    assert struct == cyclic_structure_ref(graph), graph
    assert auto_gauge_criterion(graph) == auto_gauge_criterion_ref(graph), graph
    for v in graph.vertices:
        assert essentially_left_infinite(graph, v) == (v in emitters)


def assert_components_are_mutual_reachability(graph):
    components = strong_components(graph)
    assert sorted(v for c in components for v in c) == list(graph.vertices)
    assert all(list(c) == sorted(c) for c in components)
    comp = {v: i for i, c in enumerate(components) for v in c}
    for u in graph.vertices:
        for v in graph.vertices:
            same = reaches(graph, u, v) and reaches(graph, v, u)
            assert (comp[u] == comp[v]) == same, (graph, u, v)
    assert_downstream_first(graph, components)


def assert_downstream_first(graph, listed):
    """Every edge between two components ends in the one listed first."""
    place = {v: i for i, c in enumerate(listed) for v in c}
    assert all(place[e.dst] <= place[e.src] for e in graph.edges), graph


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_tightening_lists_its_components_downstream_first(seed):
    for g in graph_battery(seed, 200):
        sub, _ = tighten_min(g)
        assert_components_are_mutual_reachability(sub)


@pytest.mark.parametrize("graph", [line(2000), in_tree(2000), in_star(2001)],
                         ids=["line", "in-tree", "in-star"])
def test_components_are_listed_downstream_first_at_scale(graph):
    assert_downstream_first(graph, strong_components(graph))


# -- comparisons -----------------------------------------------------------------


def test_fixture_graphs(loop_graph, two_loops, line3, loop_with_entry, two_cycle,
                        disjoint_loops, figure_eight):
    for g in (loop_graph, two_loops, line3, loop_with_entry, two_cycle,
              disjoint_loops, figure_eight, Graph([], [])):
        assert_matches_reference(g)
        assert_components_are_mutual_reachability(g)


def test_loop_edge_is_not_an_entry(loop_with_entry):
    # v receives two edges, but only f enters the loop
    assert cyclic_structure(loop_with_entry).entries == frozenset({"f"})


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_battery_matches_reference(seed):
    for g in graph_battery(seed, 200):
        assert_matches_reference(g)
        assert_components_are_mutual_reachability(g)


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_saturate_battery_matches_reference(seed):
    """The worklist saturation equals the fixpoint on the entry emitters and
    on the hereditary closures of seeded random vertex sets."""
    rng = random.Random(seed)
    for g in graph_battery(seed, 200):
        emitters = emit_entry_set(g)
        assert saturate(g, emitters) == saturate_ref(g, emitters), g
        for _ in range(3):
            assert_saturate_matches_reference(
                g, [v for v in g.vertices if rng.random() < 0.3]
            )


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    vertices = [f"v{i}" for i in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
            max_size=11,
        )
    )
    return Graph(vertices, [Edge(f"e{j}", s, d) for j, (s, d) in enumerate(pairs)])


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_random_graphs_match_reference(graph):
    assert_matches_reference(graph)
    assert_components_are_mutual_reachability(graph)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_random_saturations_match_reference(data):
    graph = data.draw(small_graphs())
    seeds = data.draw(st.sets(st.sampled_from(graph.vertices)))
    assert_saturate_matches_reference(graph, seeds)
