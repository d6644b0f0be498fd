import pytest

from cktrace.fuzz import graph_battery, monomial_count
from cktrace.graph import GraphError, ParseError
from cktrace.monomials import (
    Monomial,
    ZERO,
    cyclic_form,
    expect_core,
    format_monomial,
    monomials,
    multiply,
    parse_monomial,
)
from reference import adjoint, degree, expect_diagonal, from_cyclic_form, is_diagonal, projection


# -- product rule -------------------------------------------------------------


def test_product_examples(loop_graph, two_loops):
    g = loop_graph
    x = parse_monomial(g, "@v|e")
    y = parse_monomial(g, "e|@v")
    assert multiply(x, y) == parse_monomial(g, "@v|@v")
    assert multiply(y, x) == parse_monomial(g, "e|e")
    e1e1 = parse_monomial(two_loops, "e1|e1")
    e2e2 = parse_monomial(two_loops, "e2|e2")
    assert multiply(e1e1, e2e2) == ZERO


def test_zero_absorbing(loop_graph):
    x = parse_monomial(loop_graph, "e|@v")
    assert multiply(x, ZERO) == ZERO
    assert multiply(ZERO, x) == ZERO
    assert adjoint(ZERO) == ZERO


def test_monomial_requires_common_source(line3):
    with pytest.raises(GraphError, match="sources"):
        Monomial(line3.trivial_path("v1"), line3.trivial_path("v2"))


def test_associativity_exhaustive(loop_graph, two_loops, line3, two_cycle):
    for g in (loop_graph, two_loops, line3, two_cycle):
        pool = monomials(g, 2)
        for x in pool:
            for y in pool:
                xy = multiply(x, y)
                for z in pool:
                    assert multiply(xy, z) == multiply(x, multiply(y, z))


def test_adjoint_antimultiplicative(two_cycle, two_loops):
    for g in (two_cycle, two_loops):
        pool = monomials(g, 2)
        for x in pool:
            assert adjoint(adjoint(x)) == x
            for y in pool:
                assert adjoint(multiply(x, y)) == multiply(adjoint(y), adjoint(x))


def test_semigroup_laws_on_random_multigraphs():
    # associativity and the adjoint law under parallel edges and mixed loops
    import random as _random

    rng = _random.Random(107)
    for g in graph_battery(seed=103, count=6, max_vertices=3, max_edges=5):
        pool = monomials(g, 2)
        if len(pool) > 40:
            pool = rng.sample(pool, 40)
        for x in pool:
            for y in pool:
                xy = multiply(x, y)
                assert adjoint(xy) == multiply(adjoint(y), adjoint(x))
                for z in pool[:: max(1, len(pool) // 12)]:
                    assert multiply(xy, z) == multiply(x, multiply(y, z))


# -- degree --------------------------------------------------------------------


def test_degree_examples(loop_graph):
    x = parse_monomial(loop_graph, "e|@v")
    assert degree(x) == 1
    assert degree(adjoint(x)) == -1
    assert degree(projection(loop_graph.parse_path("e.e"))) == 0
    sq = multiply(x, x)
    assert sq == parse_monomial(loop_graph, "e.e|@v")
    assert degree(sq) == 2


def test_degree_additive_on_products(two_cycle):
    pool = monomials(two_cycle, 2)
    for x in pool:
        for y in pool:
            xy = multiply(x, y)
            if not xy.is_zero:
                assert degree(xy) == degree(x) + degree(y)


# -- expectations -----------------------------------------------------------------


def test_expect_diagonal_examples(loop_graph):
    p = parse_monomial(loop_graph, "e|e")
    assert expect_diagonal(p) == p
    assert expect_diagonal(parse_monomial(loop_graph, "@v|e")) == ZERO
    assert expect_diagonal(ZERO) == ZERO


def test_expect_core_examples(loop_graph, two_loops):
    b = parse_monomial(loop_graph, "@v|e")
    assert expect_core(loop_graph, b) == b
    assert expect_core(two_loops, parse_monomial(two_loops, "@v|e1")) == ZERO
    diag = parse_monomial(two_loops, "e1|e1")
    assert expect_core(two_loops, diag) == diag


def test_expectations_idempotent_star_compatible(loop_graph, two_cycle, two_loops):
    for g in (loop_graph, two_cycle, two_loops):
        for x in monomials(g, 2):
            d = expect_diagonal(x)
            m = expect_core(g, x)
            assert expect_diagonal(d) == d
            assert expect_core(g, m) == m
            assert expect_diagonal(m) == expect_diagonal(x)  # E_D after E_M is E_D
            assert expect_diagonal(adjoint(x)) == adjoint(expect_diagonal(x))
            assert expect_core(g, adjoint(x)) == adjoint(m)


def test_expectations_are_bimodule_maps(two_cycle):
    g = two_cycle
    pool = monomials(g, 2)
    diags = [x for x in pool if is_diagonal(x)]
    for p in diags:
        for x in pool:
            for q in diags:
                pxq = multiply(multiply(p, x), q)
                assert expect_diagonal(pxq) == multiply(
                    multiply(p, expect_diagonal(x)), q
                )
                assert expect_core(g, pxq) == multiply(
                    multiply(p, expect_core(g, x)), q
                )


# -- normality and cyclic form ------------------------------------------------------


def _is_normal(graph, text):
    x = parse_monomial(graph, text)
    return expect_core(graph, x) == x


def test_is_normal_examples(loop_graph, two_loops, figure_eight):
    assert _is_normal(loop_graph, "@v|e")
    assert _is_normal(loop_graph, "e.e|e")
    assert not _is_normal(two_loops, "@v|e1")
    # v emits the entry c into q's loop, so the minimal tightening removes v
    # and keeps q's loop as a class: extending by q is normal, by p is not
    assert _is_normal(figure_eight, "q|@w")
    assert not _is_normal(figure_eight, "p|@v")


def test_cyclic_form_examples(loop_graph, two_cycle):
    g = loop_graph
    form = cyclic_form(g, parse_monomial(g, "e|@v"))
    assert (format_monomial(from_cyclic_form(form)), form.power) == ("e|@v", 1)
    assert form.ray == g.trivial_path("v")
    assert form.seed == g.edge_path("e")

    # stripping: (e, e.e) is the inverse power based at v
    form2 = cyclic_form(g, parse_monomial(g, "e|e.e"))
    assert form2.ray == g.trivial_path("v")
    assert form2.seed == g.edge_path("e")
    assert form2.power == -1

    cyc = two_cycle.parse_path("b.a")
    form3 = cyclic_form(two_cycle, Monomial(cyc, two_cycle.trivial_path("v")))
    assert form3.ray == two_cycle.trivial_path("v")
    assert form3.seed == cyc
    assert form3.power == 1


def test_cyclic_form_strips_to_rotated_base(two_cycle):
    # (a.b.a, a) presents the cycle power conjugated one step along the cycle
    x = parse_monomial(two_cycle, "a.b.a|a")
    form = cyclic_form(two_cycle, x)
    assert form.ray == two_cycle.trivial_path("w")
    assert form.seed == two_cycle.parse_path("a.b")
    assert form.power == 1


def test_cyclic_form_rejects_bad_input(loop_graph, two_loops):
    with pytest.raises(GraphError):
        cyclic_form(loop_graph, parse_monomial(loop_graph, "e|e"))
    with pytest.raises(GraphError):
        cyclic_form(two_loops, parse_monomial(two_loops, "@v|e1"))
    with pytest.raises(GraphError):
        cyclic_form(loop_graph, ZERO)


def test_cyclic_form_round_trip_battery():
    """Canonicalization is a retraction: re-canonicalizing the canonical pair
    gives the same form, powers compose, and the adjoint flips the power."""
    for g in graph_battery(seed=79, count=20, max_vertices=5, max_edges=7):
        for x in monomials(g, 3):
            if is_diagonal(x) or expect_core(g, x) == ZERO:
                continue
            form = cyclic_form(g, x)
            assert form.power != 0
            rebuilt = from_cyclic_form(form)
            assert cyclic_form(g, rebuilt) == form
            flipped = cyclic_form(g, adjoint(x))
            assert flipped.ray == form.ray
            assert flipped.seed == form.seed
            assert flipped.power == -form.power
            # rays never share edges with their seed
            assert not set(form.ray.edges) & set(form.seed.edges)
            assert form.ray.source == form.seed.source


def test_higher_powers(loop_graph):
    g = loop_graph
    x = parse_monomial(g, "e|@v")
    sq = multiply(x, x)
    form = cyclic_form(g, sq)
    assert form.power == 2
    assert form.ray == g.trivial_path("v")


# -- enumeration ---------------------------------------------------------------------


def test_monomials_enumeration(loop_graph, line3):
    got = monomials(loop_graph, 2)
    assert len(got) == 9  # paths @v, e, e.e -> 3x3 pairs
    assert got[0] == parse_monomial(loop_graph, "@v|@v")
    # per-source grouping on the line graph
    got3 = monomials(line3, 1)
    # sources: v1 {@v1}, v2 {@v2, a}, v3 {@v3, b}: 1 + 4 + 4
    assert len(got3) == 9


def test_monomial_count_matches_enumeration(figure_eight, line3):
    for g in (figure_eight, line3):
        for ln in (1, 2, 3):
            assert monomial_count(g, ln) == len(monomials(g, ln))


def test_parse_and_format_monomial(loop_graph):
    for text in ("e|e.e", "@v|e", "e.e|@v"):
        assert format_monomial(parse_monomial(loop_graph, text)) == text
    with pytest.raises(GraphError):
        parse_monomial(loop_graph, "e.e")


@pytest.mark.parametrize("text", ["e", "e|e|e", "|", "x|@v"])
def test_malformed_monomial_literal_is_a_parse_error(loop_graph, text):
    with pytest.raises(ParseError):
        parse_monomial(loop_graph, text)
