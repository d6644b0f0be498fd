"""Classes, cyclic forms and path enumeration against reference definitions.

The references for normality, cyclic forms and paths of one length live in
``reference``; the ones below build path enumeration from the paths of
each length, restarting the walk for every length.  They are the
definitions, written out, and stay slow on purpose.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cktrace.graph as graph_module
from cktrace.fuzz import graph_battery, monomial_count
from cktrace.graph import (
    Edge,
    Graph,
    GraphError,
    cyclic_structure,
    paths_up_to,
)
from cktrace.monomials import ZERO, coding, cyclic_form, expect_core, monomials, multiply
from reference import class_ref, cyclic_form_ref, is_diagonal, is_normal_ref, paths_of_length_ref

BATTERY_SEEDS = (20260810, 1, 2, 3)

# -- reference definitions -----------------------------------------------------


def paths_up_to_ref(graph, max_len):
    return [p for n in range(max_len + 1) for p in paths_of_length_ref(graph, n)]


def monomial_count_ref(graph, max_len):
    return sum(
        sum(len([p for p in paths_of_length_ref(graph, n) if p.source == v])
            for n in range(max_len + 1)) ** 2
        for v in graph.vertices
    )


def assert_cycle_facts_match_reference(graph, max_len):
    """Returns the number of normal off-diagonal monomials compared."""
    off_diagonal = 0
    for x in monomials(graph, max_len):
        normal = expect_core(graph, x) != ZERO
        assert normal == is_normal_ref(graph, x), (graph, x)
        if normal and not is_diagonal(x):
            off_diagonal += 1
            assert cyclic_form(graph, x) == cyclic_form_ref(graph, x), (graph, x)
        elif not normal:
            with pytest.raises(GraphError, match="normal off-diagonal"):
                cyclic_form(graph, x)
    return off_diagonal


def assert_walks_match_reference(graph, max_len):
    assert paths_up_to(graph, max_len) == paths_up_to_ref(graph, max_len)


# -- comparisons -----------------------------------------------------------------


def test_fixture_graphs(loop_graph, two_loops, line3, loop_with_entry, two_cycle,
                        disjoint_loops, figure_eight):
    fixtures = (loop_graph, two_loops, line3, loop_with_entry, two_cycle,
                disjoint_loops, figure_eight)
    assert sum(assert_cycle_facts_match_reference(g, 4) for g in fixtures) > 0
    for g in fixtures:
        assert_walks_match_reference(g, 4)
        for n in range(5):
            assert monomial_count(g, n) == monomial_count_ref(g, n)


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_battery_matches_reference(seed):
    off_diagonal = 0
    for g in graph_battery(seed, 200):
        off_diagonal += assert_cycle_facts_match_reference(g, 3)
    assert off_diagonal > 0  # the cyclic forms are genuinely exercised


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_coded_classes_match_reference(seed):
    """The coding classifies from its own paths; each coded monomial, and
    each product of two of them (paths up to twice the bound), gets the
    class the reference definitions give."""
    normal_products = 0
    for g in graph_battery(seed, 60):
        code = coding(g, 3)
        for a, b in code.codes:
            assert code.class_of(a, b) == class_ref(g, code.monomial(a, b)), (g, a, b)
        pool = list(zip(monomials(g, 3), code.codes))
        for x, cx in pool:
            for y, cy in pool:
                product = multiply(x, y)
                key = code.product_class(*cx, *cy)
                assert key == (0 if product.is_zero else class_ref(g, product)), (g, x, y)
                normal_products += key != 0 and key[1] != 0
    assert normal_products > 0  # the products reach genuine cyclic powers


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_battery_walks_match_reference(seed):
    for g in graph_battery(seed, 50):
        assert_walks_match_reference(g, 3)
        assert monomial_count(g, 3) == monomial_count_ref(g, 3)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    vertices = [f"v{i}" for i in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
            max_size=7,
        )
    )
    return Graph(vertices, [Edge(f"e{j}", s, d) for j, (s, d) in enumerate(pairs)])


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_random_graphs_match_reference(graph):
    max_len = 3 if monomial_count(graph, 3) <= 400 else 2
    assert_cycle_facts_match_reference(graph, max_len)
    assert_walks_match_reference(graph, 2)
    assert monomial_count(graph, 2) == monomial_count_ref(graph, 2)


# -- one cyclic structure per graph ------------------------------------------------


def test_cyclic_structure_is_built_once_per_graph(monkeypatch):
    builds = []
    real = graph_module.strong_components
    monkeypatch.setattr(
        graph_module, "strong_components", lambda g: builds.append(g) or real(g)
    )
    g = Graph(["v", "w", "u"], [Edge("a", "v", "w"), Edge("b", "w", "v"),
                                Edge("c", "w", "u")])
    first = cyclic_structure(g)
    for x in monomials(g, 4):
        if expect_core(g, x) != ZERO and not is_diagonal(x):
            cyclic_form(g, x)
    assert cyclic_structure(g) is first
    assert builds == [g]


# -- counting with a cap -------------------------------------------------------------


def test_monomial_count_stops_at_the_cap(loop_graph, two_loops, line3):
    # a level that dies out ends the count: any bound beyond it is exact
    assert monomial_count(line3, 10**18) == monomial_count(line3, 2) == 14
    assert monomial_count(line3, 10**18, cap=14) == 14
    # otherwise the count stops as soon as it passes the cap
    assert monomial_count(loop_graph, 10**18, cap=2000) == 45 ** 2
    assert monomial_count(two_loops, 10**18, cap=2000) == 63 ** 2  # 2**6 - 1 paths
    assert monomial_count(loop_graph, 43, cap=2000) == 44 ** 2
    assert monomial_count(loop_graph, -1) == 0
