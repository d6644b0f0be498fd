"""The fast suite paths against reference definitions.

The references below are the bodies the suites used before multiply
decided comparability with one prefix test and traciality visited only
pairs with a nonzero product; they are the definitions, written out, and
stay quadratic on purpose.  The reference traciality scan also counts the
pairs with a nonzero product up to its verdict, which is what the fast
scan's ``checked`` must equal.
"""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cktrace.functionals import (
    CheckResult,
    TraceFunctional,
    check_traciality,
    haar_tagged_functional,
)
from cktrace.fuzz import graph_battery
from cktrace.graph import Edge, Graph, compose, is_prefix, remainder
from cktrace.monomials import (
    ZERO,
    Monomial,
    format_monomial,
    monomials,
    multiply,
    normal_monomials,
)
from cktrace.structure import tighten_min
from cktrace.tagging import CircleMeasure, Tag, cyclic_support
from cktrace.traces import extreme_traces

BATTERY_SEEDS = (20260810, 1, 2, 3)

# -- reference definitions -----------------------------------------------------


def multiply_ref(x, y):
    if x.is_zero or y.is_zero:
        return ZERO
    a, b = x.left, x.right
    lam, nu = y.left, y.right
    if is_prefix(lam, b):
        return Monomial(a, compose(nu, remainder(b, lam)))
    if is_prefix(b, lam):
        return Monomial(compose(a, remainder(lam, b)), nu)
    return ZERO


def full_scan(graph, max_len):
    """Every pair x = items[i], y = items[j], i < j, with xy and yx, in order;
    computed once per graph and shared by the functionals on it."""
    items = monomials(graph, max_len)
    return [
        (x, y, multiply_ref(x, y), multiply_ref(y, x))
        for i, x in enumerate(items)
        for y in items[i + 1:]
    ]


def check_traciality_ref(fn, scan):
    checked = 0
    for x, y, xy, yx in scan:
        checked += not (xy.is_zero and yx.is_zero)
        left = fn.value(xy)
        right = fn.value(yx)
        if left != right:
            return CheckResult(
                "traciality",
                False,
                witness=f"x={format_monomial(x)} y={format_monomial(y)}",
                detail=f"F(xy)={left} F(yx)={right}",
                checked=checked,
            )
    return CheckResult("traciality", True, checked=checked)


def assert_multiply_matches_reference(graph, max_len):
    pool = (ZERO,) + monomials(graph, max_len)
    for x in pool:
        assert [multiply(x, y) for y in pool] == [multiply_ref(x, y) for y in pool], (
            graph, format_monomial(x))


def skewed_tag(graph, trace):
    """A point mass at a different angle on each cyclic vertex: inconsistent
    on every cyclic class with more than one vertex."""
    support = sorted(cyclic_support(graph, trace))
    return Tag.from_dict(
        {v: CircleMeasure.point_mass(Fraction(i + 1, 7)) for i, v in enumerate(support)}
    )


def functionals_on(tight):
    """Haar-tagged and skew-tagged functionals on every extreme trace."""
    for trace in extreme_traces(tight):
        yield haar_tagged_functional(tight, trace)
        yield TraceFunctional(tight, trace, skewed_tag(tight, trace))


# -- comparisons -----------------------------------------------------------------


def test_fixture_graphs(loop_graph, two_loops, line3, loop_with_entry, two_cycle,
                        disjoint_loops, figure_eight):
    for g in (loop_graph, two_loops, line3, loop_with_entry, two_cycle,
              disjoint_loops, figure_eight):
        assert_multiply_matches_reference(g, 3)


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_multiply_battery_matches_reference(seed):
    for g in graph_battery(seed, 100):
        assert_multiply_matches_reference(g, 3)


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_traciality_battery_matches_reference(seed):
    verdicts = set()
    for g in graph_battery(seed, 100):
        tight, _ = tighten_min(g)
        scan = full_scan(tight, 3)
        for fn in functionals_on(tight):
            got = check_traciality(fn, 3)
            assert got == check_traciality_ref(fn, scan), (tight, fn.trace, fn.tag)
            verdicts.add(got.passed)
    assert verdicts == {True, False}


def test_traciality_failure_matches_reference(two_cycle):
    half = Fraction(1, 2)
    trace = extreme_traces(two_cycle)[0]
    assert dict(trace.entries) == {"v": half, "w": half}
    fn = TraceFunctional(two_cycle, trace, skewed_tag(two_cycle, trace))
    got = check_traciality(fn, 4)
    assert not got.passed
    assert got == check_traciality_ref(fn, full_scan(two_cycle, 4))


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
@settings(max_examples=60, deadline=None)
def test_random_graphs_match_reference(graph):
    assume(len(monomials(graph, 2)) <= 400)
    assert_multiply_matches_reference(graph, 2)
    tight, _ = tighten_min(graph)
    scan = full_scan(tight, 2)
    for fn in functionals_on(tight):
        assert check_traciality(fn, 2) == check_traciality_ref(fn, scan)


# -- the per-graph memo ----------------------------------------------------------


def test_enumeration_is_memoized_per_graph(figure_eight):
    first = monomials(figure_eight, 3)
    assert isinstance(first, tuple)  # shared, so callers cannot mutate it
    assert monomials(figure_eight, 3) is first
    assert normal_monomials(figure_eight, 3) is normal_monomials(figure_eight, 3)
    assert isinstance(normal_monomials(figure_eight, 3), tuple)
    assert len(monomials(figure_eight, 2)) < len(first)
    twin = Graph(figure_eight.vertices, figure_eight.edges)
    assert twin == figure_eight
    assert monomials(twin, 3) == first
    assert monomials(twin, 3) is not first


def test_memo_dies_with_its_graph():
    g = Graph(["v", "w"], [Edge("p", "v", "v"), Edge("c", "v", "w")])
    normal_monomials(g, 4)
    alive = weakref.ref(g)
    kept = weakref.ref(monomials(g, 4)[0])
    del g
    gc.collect()
    assert alive() is None
    assert kept() is None
