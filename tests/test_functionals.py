import ast
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cktrace.functionals import (
    CheckResult,
    TraceFunctional,
    SUITE_NAMES,
    check_edge_invariance,
    check_gauge,
    check_traciality,
    ck_additivity_check,
    cylinder_measure_check,
    gram_psd_check,
    haar_tagged_functional,
    run_suites,
    tagged_functional,
)
from cktrace.cli import MAX_MONOMIALS
from cktrace.fuzz import graph_battery
from cktrace.graph import Edge, Graph, GraphError
from cktrace.monomials import (
    Monomial,
    ZERO,
    coding,
    cyclic_form,
    expect_core,
    monomial_class,
    monomials,
    multiply,
    parse_monomial,
)
from cktrace.tagging import CIRCLE_ZERO, CircleMeasure, Tag, haar_tag
from cktrace.traces import extreme_traces

from conftest import trace_of
from reference import (
    adjoint,
    circle_value,
    degree,
    from_cyclic_form,
    is_diagonal,
    projection,
    rotated,
    untagged_value,
)


def delta_tag(angle, *vertices):
    m = CircleMeasure.point_mass(Fraction(*angle) if isinstance(angle, tuple) else angle)
    return Tag.from_dict({v: m for v in vertices})


def zeta(num, den, weight=1):
    return circle_value([(Fraction(num, den), Fraction(weight))])


# -- point evaluations ---------------------------------------------------------


def test_haar_values(loop_graph, line3):
    fn = haar_tagged_functional(loop_graph, trace_of({"v": 1}))
    assert fn.value(parse_monomial(loop_graph, "e|e")) == zeta(0, 1)
    assert fn.value(parse_monomial(loop_graph, "@v|e")) == CIRCLE_ZERO
    third = Fraction(1, 3)
    fn3 = haar_tagged_functional(line3, trace_of({"v1": third, "v2": third, "v3": third}))
    assert fn3.value(projection(line3.trivial_path("v1"))) == zeta(0, 1, third)


def test_tagged_values(loop_graph):
    g = loop_graph
    fn = tagged_functional(g, trace_of({"v": 1}), delta_tag((1, 3), "v"))
    b = parse_monomial(g, "e|@v")
    assert fn.value(b) == zeta(1, 3)
    assert fn.value(adjoint(b)) == zeta(2, 3)
    assert fn.value(multiply(b, b)) == zeta(2, 3)
    assert fn.value(projection(g.parse_path("e.e"))) == zeta(0, 1)

    haar = haar_tagged_functional(g, trace_of({"v": 1}))
    assert haar.value(b) == CIRCLE_ZERO
    assert haar.value(multiply(b, b)) == CIRCLE_ZERO


def test_tagged_requires_consistent_tag(two_cycle):
    half = Fraction(1, 2)
    uniform = trace_of({"v": half, "w": half})
    skew = Tag.from_dict(
        {
            "v": CircleMeasure.point_mass(Fraction(1, 4)),
            "w": CircleMeasure.point_mass(Fraction(1, 2)),
        }
    )
    with pytest.raises(GraphError, match="tag"):
        tagged_functional(two_cycle, uniform, skew)
    # explicit bypass for failure-mode demonstrations
    TraceFunctional(two_cycle, uniform, skew)


def test_invalid_trace_rejected(two_loops):
    with pytest.raises(GraphError, match="trace"):
        haar_tagged_functional(two_loops, trace_of({"v": 1}))


def test_trace_missing_a_cyclic_vertex_is_a_graph_error():
    """The Haar evaluator checks the trace before reading it, so a trace
    that misses the loop's vertex is the input error, not a KeyError."""
    g = Graph(["u", "v"], [Edge("e", "v", "v")])
    with pytest.raises(GraphError, match="trace missing vertex 'v'"):
        haar_tagged_functional(g, trace_of({"u": 1}))


def test_one_haar_constructor():
    """The Haar state is built by ``haar_tagged_functional`` alone."""
    import cktrace
    import cktrace.functionals as functionals_module

    assert not hasattr(functionals_module, "haar_functional")
    assert "haar_functional" not in cktrace.__all__
    assert "haar_tagged_functional" in cktrace.__all__


def test_haar_tag_is_not_checked_again(two_cycle, monkeypatch):
    """The Haar tag on a valid trace's cyclic support is consistent by
    construction; ``haar_tagged_functional`` builds its functional without
    ``validate_tag``."""
    import cktrace.functionals as functionals_module

    def refuse(*args):
        raise AssertionError("validate_tag called")

    monkeypatch.setattr(functionals_module, "validate_tag", refuse)
    half = Fraction(1, 2)
    fn = haar_tagged_functional(two_cycle, trace_of({"v": half, "w": half}))
    assert fn.tag == Tag.from_dict({v: CircleMeasure.haar_measure() for v in ("v", "w")})


def test_haar_equals_haar_tagged(loop_graph, two_cycle, line3, disjoint_loops):
    for g, values in (
        (loop_graph, {"v": 1}),
        (two_cycle, {"v": Fraction(1, 2), "w": Fraction(1, 2)}),
        (line3, {"v1": Fraction(1, 3), "v2": Fraction(1, 3), "v3": Fraction(1, 3)}),
        (disjoint_loops, {"v": 1, "w": 0}),
    ):
        t = trace_of(values)
        chi = TraceFunctional(g, t, haar_tag(g, t))  # unchecked, as built by hand
        tau = haar_tagged_functional(g, t)
        for x in monomials(g, 6):
            assert chi.value(x) == tau.value(x) == untagged_value(tau, x), x


def test_canonical_form_round_trip_values(loop_graph, two_cycle):
    """Every normal off-diagonal pair up to length 5 evaluates exactly as the
    pair rebuilt from its canonical form, under haar and point-tagged
    functionals alike."""
    cases = [
        (loop_graph, trace_of({"v": 1}), delta_tag((1, 7), "v")),
        (
            two_cycle,
            trace_of({"v": Fraction(1, 2), "w": Fraction(1, 2)}),
            delta_tag((1, 7), "v", "w"),
        ),
    ]
    for g, t, tag in cases:
        for fn in (haar_tagged_functional(g, t), tagged_functional(g, t, tag)):
            for x in monomials(g, 5):
                if is_diagonal(x) or expect_core(g, x) == ZERO:
                    continue
                rebuilt = from_cyclic_form(cyclic_form(g, x))
                assert fn.value(x) == fn.value(rebuilt), x


def test_value_rejects_foreign_paths(loop_graph, line3):
    fn = haar_tagged_functional(loop_graph, trace_of({"v": 1}))
    stray = Monomial(line3.edge_path("a"), line3.trivial_path("v2"))
    with pytest.raises(GraphError, match="does not belong"):
        fn.value(stray)


def test_coinciding_presentations_agree(loop_graph):
    # p_e equals p_v in the loop algebra; the pairs (e|e.e) and (@v|e)
    # present the same cycle power and must evaluate identically
    g = loop_graph
    for fn in (
        haar_tagged_functional(g, trace_of({"v": 1})),
        tagged_functional(g, trace_of({"v": 1}), delta_tag((1, 3), "v")),
    ):
        assert fn.value(parse_monomial(g, "e|e.e")) == fn.value(
            adjoint(parse_monomial(g, "@v|e.e"))
        )
        assert fn.value(parse_monomial(g, "e|e.e")) == fn.value(
            parse_monomial(g, "@v|e")
        )
        assert fn.value(parse_monomial(g, "e|e")) == fn.value(
            parse_monomial(g, "@v|@v")
        )


# -- traciality ---------------------------------------------------------------------


def test_traciality_loop_haar(loop_graph):
    fn = haar_tagged_functional(loop_graph, trace_of({"v": 1}))
    assert check_traciality(fn, 4).passed


def test_traciality_tagged_two_cycle(two_cycle):
    half = Fraction(1, 2)
    fn = tagged_functional(
        two_cycle, trace_of({"v": half, "w": half}), delta_tag((1, 4), "v", "w")
    )
    assert check_traciality(fn, 4).passed


def test_traciality_detects_inconsistent_tag(two_cycle):
    half = Fraction(1, 2)
    skew = Tag.from_dict(
        {
            "v": CircleMeasure.point_mass(Fraction(1, 4)),
            "w": CircleMeasure.point_mass(Fraction(1, 2)),
        }
    )
    fn = TraceFunctional(two_cycle, trace_of({"v": half, "w": half}), skew)
    result = check_traciality(fn, 4)
    assert not result.passed
    assert "a" in result.witness or "b" in result.witness


# -- invariance -----------------------------------------------------------------------


def test_invariance_passes(loop_graph, two_cycle, line3):
    fn = tagged_functional(loop_graph, trace_of({"v": 1}), delta_tag((1, 3), "v"))
    assert check_edge_invariance(fn, 4).passed
    half = Fraction(1, 2)
    fn2 = tagged_functional(
        two_cycle, trace_of({"v": half, "w": half}), delta_tag((1, 4), "v", "w")
    )
    assert check_edge_invariance(fn2, 4).passed
    third = Fraction(1, 3)
    fn3 = haar_tagged_functional(line3, trace_of({"v1": third, "v2": third, "v3": third}))
    assert check_edge_invariance(fn3, 4).passed


def test_invariance_fails_for_inconsistent_tag(two_cycle):
    half = Fraction(1, 2)
    skew = Tag.from_dict(
        {
            "v": CircleMeasure.point_mass(Fraction(1, 4)),
            "w": CircleMeasure.point_mass(Fraction(1, 2)),
        }
    )
    fn = TraceFunctional(two_cycle, trace_of({"v": half, "w": half}), skew)
    result = check_edge_invariance(fn, 3)
    assert not result.passed
    assert result.witness.startswith("n=a|@v") or result.witness.startswith("n=b|@w")


def test_invariance_runs_over_the_edge_normalizers(line3, two_cycle):
    """The normalizers are the single-edge isometries e|@(source of e), in
    edge order, each against every normal monomial."""
    third = Fraction(1, 3)
    fn = haar_tagged_functional(line3, trace_of({"v1": third, "v2": third, "v3": third}))
    code = coding(line3, 2)
    core = [ab for ab in code.codes if code.class_of(*ab)]
    assert len(core) == 6  # the diagonals: a line has no normal off-diagonal monomial
    assert check_edge_invariance(fn, 2).checked == 2 * 6
    half = Fraction(1, 2)
    skew = Tag.from_dict(
        {"v": CircleMeasure.point_mass(Fraction(1, 4)), "w": CircleMeasure.point_mass(half)}
    )
    fn = TraceFunctional(two_cycle, trace_of({"v": half, "w": half}), skew)
    assert check_edge_invariance(fn, 2).witness == "n=a|@v b=b.a|@v"


def test_edge_invariance_extends_to_composites():
    """Edge-level invariance really does propagate to all composite monomial
    normalizers: F(n b n*) = F(n*n b) for every monomial n, checked directly
    on Monomial objects, not assumed from the closure argument."""
    checked = 0
    for g in graph_battery(seed=83, count=10, max_vertices=4, max_edges=5):
        items = monomials(g, 3)
        core = [b for b in items if monomial_class(g, b)]
        for t in extreme_traces(g):
            fn = haar_tagged_functional(g, t)
            if not check_edge_invariance(fn, 3).passed:
                continue
            for n in items:
                n_star = adjoint(n)
                n_star_n = multiply(n_star, n)
                for b in core:
                    left = monomial_class(g, multiply(multiply(n, b), n_star))
                    right = monomial_class(g, multiply(n_star_n, b))
                    assert fn.classes_agree(left, right), (g, n, b)
                    checked += 1
    assert checked > 0


def test_suites_multiply_only_through_the_coding():
    """The suites read none of the coding's tables or memos, and the coding
    has no general coded product: invariance conjugates by the edge, and
    traciality reads the coding's product pairs."""
    with open(check_traciality.__code__.co_filename, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    tables = {"KEY_SHIFT", "prefixes", "remainders", "_joined", "_classes", "index", "multiply"}
    assert named & tables == set()
    code = coding(Graph(["v"], [Edge("e", "v", "v")]), 2)
    for name in ("multiply", "tables", "_intern", "edge_map"):
        assert not hasattr(code, name), name


def test_heterogeneous_tags_across_classes(disjoint_loops):
    # consistency binds within a cyclic class only; the two loop classes may
    # carry different measures and the exact suites still pass
    from cktrace.tagging import validate_tag

    g = disjoint_loops
    half = Fraction(1, 2)
    t = trace_of({"v": half, "w": half})
    tag = Tag.from_dict(
        {
            "v": CircleMeasure.point_mass(Fraction(1, 3)),
            "w": CircleMeasure.point_mass(Fraction(1, 4)),
        }
    )
    assert validate_tag(g, t, tag) is None
    fn = tagged_functional(g, t, tag)
    assert fn.value(parse_monomial(g, "lv|@v")) == zeta(1, 3, half)
    assert fn.value(parse_monomial(g, "lw|@w")) == zeta(1, 4, half)
    assert check_traciality(fn, 4).passed
    assert check_edge_invariance(fn, 4).passed
    assert ck_additivity_check(fn, 4).passed
    assert not check_gauge(fn, 4).passed


def test_full_pipeline_on_composite_graph():
    """Feeder chain into a 2-cycle plus an entry-spoiled side loop: tighten,
    enumerate, lift, tag, verify, end to end at the library level."""
    from cktrace.graph import Edge, Graph
    from cktrace.structure import is_tight, tighten_min
    from cktrace.tagging import cyclic_support, validate_tag
    from cktrace.traces import extreme_traces, lift_trace, validate_trace

    g = Graph(
        ["a", "b", "c", "d"],
        [
            Edge("cyc1", "b", "c"),   # b -> c
            Edge("cyc2", "c", "b"),   # c -> b, entry-less 2-cycle {b, c}
            Edge("feed", "a", "b"),   # a feeds the cycle: entry to it
            Edge("self", "d", "d"),   # side loop at d
            Edge("spoil", "a", "d"),  # a also spoils d's loop
        ],
    )
    assert not is_tight(g)
    tight, removed = tighten_min(g)
    assert removed == frozenset({"a"})
    assert is_tight(tight)

    points = extreme_traces(tight)
    assert len(points) == 2
    for sub in points:
        lifted = lift_trace(g, removed, sub)
        assert validate_trace(g, lifted) is None
        assert lifted["a"] == 0
        support = cyclic_support(tight, sub)
        tag = Tag.from_dict(
            {v: CircleMeasure.point_mass(Fraction(1, 6)) for v in support}
        )
        assert validate_tag(tight, sub, tag) is None
        fn = tagged_functional(tight, sub, tag)
        assert check_traciality(fn, 3).passed
        assert check_edge_invariance(fn, 3).passed
        assert ck_additivity_check(fn, 3).passed


def test_consistent_point_tags_on_tight_battery():
    """On tight graphs, any class-constant point-mass tag yields a functional
    passing the exact suites; only gauge invariance is allowed to fail."""
    from cktrace.structure import is_tight, tighten_min
    from cktrace.tagging import cyclic_support, validate_tag

    exercised = 0
    for g in graph_battery(seed=101, count=40, max_vertices=4, max_edges=5):
        tight, _ = tighten_min(g)
        assert is_tight(tight)
        for t in extreme_traces(tight):
            support = cyclic_support(tight, t)
            if not support:
                continue
            tag = Tag.from_dict(
                {v: CircleMeasure.point_mass(Fraction(1, 5)) for v in support}
            )
            assert validate_tag(tight, t, tag) is None
            fn = tagged_functional(tight, t, tag)
            assert check_traciality(fn, 3).passed
            assert check_edge_invariance(fn, 3).passed
            assert ck_additivity_check(fn, 3).passed
            exercised += 1
    assert exercised > 3


# -- gauge ------------------------------------------------------------------------------


def test_gauge_examples(loop_graph):
    g = loop_graph
    chi = haar_tagged_functional(g, trace_of({"v": 1}))
    assert check_gauge(chi, 4).passed

    tagged = tagged_functional(g, trace_of({"v": 1}), delta_tag((1, 3), "v"))
    result = check_gauge(tagged, 4)
    assert not result.passed
    assert result.witness == "e|@v"
    assert "1/3" in result.detail

    haar = haar_tagged_functional(g, trace_of({"v": 1}))
    assert check_gauge(haar, 4).passed


def test_gauge_fails_first_at_even_degree(loop_graph):
    # the two-point measure at angles 0 and 1/2 kills all odd moments, so the
    # witness search must walk past every degree-1 monomial and stop at a
    # square of the cycle isometry
    g = loop_graph
    two_point = CircleMeasure(
        Fraction(0),
        [(Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))],
    )
    fn = tagged_functional(g, trace_of({"v": 1}), Tag.from_dict({"v": two_point}))
    result = check_gauge(fn, 4)
    assert not result.passed
    assert result.witness == "e.e|@v"
    assert fn.value(parse_monomial(g, "e|@v")) == CIRCLE_ZERO
    assert fn.value(parse_monomial(g, "e.e|@v")) == zeta(0, 1)
    # tagged functionals are gauge invariant exactly when all nonzero moments
    # of every tag measure vanish, which for this measure fails at order 2
    assert check_traciality(fn, 4).passed
    assert check_edge_invariance(fn, 4).passed


def test_gauge_says_when_no_monomial_reaches_a_class_cycle_power(loop_graph):
    """On a 12-cycle no monomial shorter than 12 has a class-cycle power, so
    gauge passes a point-mass tag at length 11 and says why; at length 12 it
    fails.  Where a power is reached, a pass carries no detail."""
    n = 12
    vertices = [f"v{i:02d}" for i in range(n)]
    g = Graph(vertices, [Edge(f"e{i:02d}", vertices[i], vertices[(i + 1) % n])
                         for i in range(n)])
    fn = tagged_functional(g, trace_of({v: Fraction(1, n) for v in vertices}),
                           delta_tag((1, 3), *vertices))
    vacuous = check_gauge(fn, 11)
    assert (vacuous.passed, vacuous.checked) == (True, 1584)
    assert vacuous.detail == (
        "no monomial up to length 11 has a class-cycle power (shortest class cycle: 12)"
    )
    assert not check_gauge(fn, 12).passed
    haar = haar_tagged_functional(loop_graph, trace_of({"v": 1}))
    assert check_gauge(haar, 3) == CheckResult("gauge", True, checked=12)


def test_gauge_tests_a_failing_value_for_zero_once(monkeypatch):
    """The failure's detail formats the value gauge has just found nonzero
    without testing it for zero again: a spy on ``_vanishes`` sees one
    top-level call for that value, on a 3-cycle with two atoms per vertex."""
    from cktrace import tagging

    real, depth, calls = tagging._vanishes, [0], []

    def spy(terms):
        terms = list(terms)
        if not depth[0]:
            calls.append(tuple(terms))
        depth[0] += 1
        try:
            return real(terms)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(tagging, "_vanishes", spy)
    vertices = ["a", "b", "c"]
    g = Graph(vertices, [Edge("x", "a", "b"), Edge("y", "b", "c"), Edge("z", "c", "a")])
    half = Fraction(1, 2)
    measure = CircleMeasure(Fraction(0), [(Fraction(1, 5), half), (Fraction(2, 7), half)])
    fn = tagged_functional(g, trace_of({v: Fraction(1, 3) for v in vertices}),
                           Tag.from_dict({v: measure for v in vertices}))
    result = check_gauge(fn, 3)
    value = fn.value(parse_monomial(g, result.witness))
    assert calls.count(value.terms) == 1
    assert not result.passed
    assert result.detail == f"degree 3 value {value}" == "degree 3 value 1/6*z(1/5) + 1/6*z(2/7)"


def test_gauge_covariance_rotation(loop_graph):
    # twisting a degree-d monomial by angle t multiplies its value by z(d*t);
    # invariance is exactly insensitivity of every nonzero value to that twist
    g = loop_graph
    fn = tagged_functional(g, trace_of({"v": 1}), delta_tag((1, 3), "v"))
    theta = Fraction(1, 5)
    for x in monomials(g, 3):
        val = fn.value(x)
        twisted = rotated(val, degree(x) * theta)
        if degree(x) != 0 and not val.is_zero:
            assert twisted != val
        if degree(x) == 0:
            assert twisted == val


# -- relation additivity ------------------------------------------------------------------


def test_ck_additivity_examples(loop_graph, disjoint_loops, line3):
    fn = tagged_functional(loop_graph, trace_of({"v": 1}), delta_tag((1, 3), "v"))
    assert fn.value(parse_monomial(loop_graph, "@v|e")) == fn.value(
        parse_monomial(loop_graph, "e|e.e")
    )
    assert ck_additivity_check(fn, 4).passed

    chi = haar_tagged_functional(disjoint_loops, trace_of({"v": 1, "w": 0}))
    assert chi.value(projection(disjoint_loops.trivial_path("v"))) == zeta(0, 1)
    assert chi.value(projection(disjoint_loops.edge_path("lv"))) == zeta(0, 1)
    assert ck_additivity_check(chi, 4).passed

    third = Fraction(1, 3)
    chi3 = haar_tagged_functional(line3, trace_of({"v1": third, "v2": third, "v3": third}))
    assert chi3.value(projection(line3.trivial_path("v1"))) == chi3.value(
        projection(line3.edge_path("a"))
    )
    assert ck_additivity_check(chi3, 4).passed


# -- gram matrices ---------------------------------------------------------------------------


def test_gram_identity(loop_graph):
    """At length 1 the family is @v|@v, e|@v, @v|e and e|e."""
    fn = haar_tagged_functional(loop_graph, trace_of({"v": 1}))
    result = gram_psd_check(fn, 1)
    assert result.passed
    assert result.checked == 4


def test_gram_moment_matrix(loop_graph):
    """At length 2 the family is the first six monomials, the powers of the
    loop's isometry and their adjoints among them: a moment matrix."""
    fn = tagged_functional(loop_graph, trace_of({"v": 1}), delta_tag((1, 3), "v"))
    result = gram_psd_check(fn, 2)
    assert result.passed
    assert result.checked == 6


def test_gram_fails_for_a_heavier_child():
    """f|f is a subprojection of @v|@v, so a functional giving it more mass
    (an unchecked one, heavier at u than at v) is not positive."""
    g = Graph(["u", "v"], [Edge("f", "u", "v")])
    trace = trace_of({"u": Fraction(2, 3), "v": Fraction(1, 3)})
    fn = TraceFunctional(g, trace, haar_tag(g, trace))
    result = gram_psd_check(fn, 1)
    assert not result.passed
    assert result.checked == 5


def test_gram_empty_graph():
    """No vertex, no monomial: the family is empty and nothing is counted."""
    fn = haar_tagged_functional(Graph([], []), trace_of({}))
    assert gram_psd_check(fn, 3) == CheckResult(
        "gram", True, detail="min eigenvalue 0.000e+00", checked=0
    )


# -- cylinder measure --------------------------------------------------------------------------


def test_cylinder_measure_examples(line3, loop_graph, disjoint_loops):
    third = Fraction(1, 3)
    uniform = trace_of({"v1": third, "v2": third, "v3": third})
    assert cylinder_measure_check(line3, uniform, 6).passed
    assert cylinder_measure_check(loop_graph, trace_of({"v": 1}), 6).passed
    assert cylinder_measure_check(disjoint_loops, trace_of({"v": 1, "w": 0}), 6).passed


def test_cylinder_measure_detects_non_trace(two_loops):
    bad = trace_of({"v": 1})
    assert not cylinder_measure_check(two_loops, bad, 3).passed


# -- suite runner -------------------------------------------------------------------------------


def test_run_suites_all(loop_graph):
    fn = tagged_functional(loop_graph, trace_of({"v": 1}), delta_tag((1, 3), "v"))
    results = run_suites(fn, 4)
    by_name = {r.name: r for r in results}
    assert by_name["traciality"].passed
    assert by_name["invariance"].passed
    assert not by_name["gauge"].passed
    assert by_name["gram"].passed
    assert by_name["ck"].passed
    assert by_name["cylinder"].passed


def test_run_suites_unknown_name(loop_graph):
    fn = haar_tagged_functional(loop_graph, trace_of({"v": 1}))
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(fn, 2, ["nonsense"])


def test_every_suite_reports_checked_cases(two_cycle):
    half = Fraction(1, 2)
    fn = tagged_functional(
        two_cycle, trace_of({"v": half, "w": half}), delta_tag((1, 4), "v", "w")
    )
    results = run_suites(fn, 3)
    assert [r.name for r in results] == list(SUITE_NAMES)
    assert all(r.checked > 0 for r in results)
    assert all(r.passed for r in results if r.name != "gauge")
    checked = {r.name: r.checked for r in results}
    assert checked["gram"] == 6
    items = monomials(two_cycle, 3)
    nonzero = sum(
        1
        for i, x in enumerate(items)
        for y in items[i + 1:]
        if not (multiply(x, y).is_zero and multiply(y, x).is_zero)
    )
    assert checked["traciality"] == nonzero < len(items) * (len(items) - 1) // 2


def test_checked_stops_at_the_failing_case(loop_graph):
    fn = tagged_functional(loop_graph, trace_of({"v": 1}), delta_tag((1, 3), "v"))
    result = check_gauge(fn, 4)
    assert not result.passed and result.witness == "e|@v"
    assert result.checked == 1  # the first monomial of nonzero degree


def test_suites_scale():
    """Desk scale: all six suites at length 5 on a tight graph with 338
    monomials (a loop feeding a three-edge tail) answer in under 1 s."""
    g = Graph(
        ["v", "w", "x", "y"],
        [Edge("e", "v", "v"), Edge("c", "v", "w"), Edge("d", "w", "x"), Edge("f", "x", "y")],
    )
    (trace,) = extreme_traces(g)
    fn = haar_tagged_functional(g, trace)
    start = time.perf_counter()
    results = run_suites(fn, 5)
    assert time.perf_counter() - start < 1.0
    assert len(monomials(g, 5)) == 338
    assert all(r.passed and r.checked > 0 for r in results)


def test_suites_at_the_monomial_cap():
    """Every verify the CLI accepts in under 1 s: all six suites at length 7
    on a loop feeding an 11-edge path (1,692 monomials, under the CLI's
    MAX_MONOMIALS), tagged half Haar and half an atom at 1/720."""
    vertices = ["v"] + [f"t{i}" for i in range(1, 12)]
    edges = [Edge("e", "v", "v")] + [
        Edge(f"c{i}", vertices[i - 1], vertices[i]) for i in range(1, 12)
    ]
    g = Graph(vertices, edges)
    (trace,) = extreme_traces(g)
    half = Fraction(1, 2)
    tag = Tag.from_dict({"v": CircleMeasure(half, [(Fraction(1, 720), half)])})
    fn = tagged_functional(g, trace, tag)
    assert len(monomials(g, 7)) == 1692 <= MAX_MONOMIALS
    start = time.perf_counter()
    results = run_suites(fn, 7)
    assert time.perf_counter() - start < 1.0
    assert all(r.passed and r.checked > 0 for r in results if r.name != "gauge")
    by_name = {r.name: r for r in results}
    assert not by_name["gauge"].passed  # the atom is not gauge invariant
    assert by_name["traciality"].checked == 304626


def test_each_coded_monomial_is_classified_once(monkeypatch):
    """A coding classifies each monomial once, non-normal ones included (their
    class, zero, is cached like any other), so suites that visit every coded
    monomial again classify nothing."""
    layer = sys.modules["cktrace.monomials"]  # `cktrace.monomials` is the function
    g = Graph(
        ["v", "w", "x", "y"],
        [Edge("e", "v", "v"), Edge("c", "v", "w"), Edge("d", "w", "x"), Edge("f", "x", "y")],
    )
    (trace,) = extreme_traces(g)
    fn = haar_tagged_functional(g, trace)
    first = [check_gauge(fn, 4), ck_additivity_check(fn, 4)]
    calls = []
    original = layer.classify
    monkeypatch.setattr(layer, "classify", lambda *args: calls.append(args) or original(*args))
    assert [check_gauge(fn, 4), ck_additivity_check(fn, 4)] == first
    assert calls == []
    check_gauge(fn, 5)
    assert calls  # a new coding classifies, through the patched classifier
    assert 0 in layer.coding(g, 4)._classes.values()  # some are not normal


def test_object_level_classes_build_no_coding(loop_graph):
    """value, expect_core and cyclic_form read a monomial's class off the
    cyclic structure: none of them builds the bound-0 coding."""
    g = loop_graph
    fn = tagged_functional(g, trace_of({"v": 1}), delta_tag((1, 3), "v"))
    x = parse_monomial(g, "e.e|e")
    assert fn.value(x) == fn.value(parse_monomial(g, "e|@v")) != CIRCLE_ZERO
    assert expect_core(g, x) == x
    assert cyclic_form(g, x).power == 1
    assert ("coding", 0) not in g._memo


def _run_without_numpy(code: str) -> str:
    import cktrace

    root = os.path.dirname(os.path.dirname(os.path.abspath(cktrace.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_numpy_unloaded():
    """Nothing in the package needs numpy, so importing it must not load it."""
    assert _run_without_numpy("import sys, cktrace; print('numpy' in sys.modules)") == "False"


def test_verify_leaves_numpy_unloaded(tmp_path):
    """numpy is not a runtime dependency: verify with every suite, the Gram
    probe included, must not load it."""
    graph = tmp_path / "graph.json"
    graph.write_text(
        '{"vertices": ["v", "w"], "edges": ['
        '{"id": "a", "src": "v", "dst": "w"}, {"id": "b", "src": "w", "dst": "v"}]}'
    )
    functional = tmp_path / "functional.json"
    functional.write_text(
        '{"kind": "tagged", "trace": {"values": {"v": "1/2", "w": "1/2"}}, "tag": {'
        '"v": {"haar": "1/2", "atoms": [{"angle": "1/3", "weight": "1/2"}]}, '
        '"w": {"haar": "1/2", "atoms": [{"angle": "1/3", "weight": "1/2"}]}}}'
    )
    code = (
        "import sys, cktrace.cli\n"
        f"status = cktrace.cli.main(['verify', {str(graph)!r}, {str(functional)!r}, "
        f"'--max-len', '3', '--suite', {','.join(SUITE_NAMES)!r}])\n"
        "print(status, 'numpy' in sys.modules)"
    )
    assert _run_without_numpy(code) == "0 False"
