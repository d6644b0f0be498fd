"""The fast suite paths against reference definitions.

The references below are the bodies the suites used before traciality
visited only pairs with a nonzero product, the suites ran on integer codes
with values cached per monomial class (the Gram probe last), and the coding
enumerated the monomials itself.  They are the definitions, written out,
and stay quadratic on purpose.  ``multiply``, the product on Monomial
objects, is the reference for the coded product.  The reference traciality
scan also counts the pairs with a nonzero product up to its verdict, which
is what the fast scan's ``checked`` must equal.  Normality and cyclic forms
come from ``reference``, so ``value_ref`` and ``edge_invariance_ref`` read
nothing of the coding they check.  numpy's ``eigvalsh`` is the reference
for the Gram probe's pure-Python eigenvalue.  The cylinder reference checks
its identity at every path up to the bound, where the suite decides it once
per vertex.
"""

import gc
import random
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cktrace.functionals import (
    CheckResult,
    TraceFunctional,
    check_edge_invariance,
    check_traciality,
    cylinder_measure_check,
    gram_psd_check,
    haar_tagged_functional,
    lowest_eigenvalue,
    run_suites,
)
from cktrace.fuzz import graph_battery
from cktrace.graph import (
    Edge,
    Graph,
    GraphError,
    Path,
    compose,
    paths_up_to,
)
from cktrace.monomials import (
    ZERO,
    Monomial,
    coding,
    format_monomial,
    monomial_class,
    monomials,
    multiply,
)
from cktrace.structure import tighten_min
from cktrace.tagging import (
    CIRCLE_ZERO,
    CircleMeasure,
    CircleValue,
    Tag,
    cyclic_support,
    haar_tag,
    moment,
    validate_tag,
)
from cktrace.traces import GraphTrace, extreme_traces, lift_trace
from reference import (adjoint, cycle_vertex_set_ref, cyclic_form_ref, degree, is_diagonal,
                       is_normal_ref, untagged_value)

BATTERY_SEEDS = (20260810, 1, 2, 3)

# -- reference definitions -----------------------------------------------------


def monomials_ref(graph, max_len):
    """Every pair (a, b) of paths with a common source, sorted by total
    length, then the length of b, then a and b in path order."""
    by_source = {v: [] for v in graph.vertices}
    for p in paths_up_to(graph, max_len):
        by_source[p.source].append(p)
    out = [Monomial(a, b) for group in by_source.values() for a in group for b in group]
    return tuple(sorted(out, key=lambda x: (len(x.left) + len(x.right), len(x.right),
                                            x.left.sort_key(), x.right.sort_key())))


def value_ref(fn, x):
    """TraceFunctional.value as it was, without its per-monomial cache."""
    if x.is_zero:
        return CIRCLE_ZERO
    fn.graph.check_path(x.left)
    fn.graph.check_path(x.right)
    if is_diagonal(x):
        return CircleValue.rational(fn.trace[x.left.source])
    if not is_normal_ref(fn.graph, x):
        return CIRCLE_ZERO
    form = cyclic_form_ref(fn.graph, x)
    base = form.ray.source
    mass = fn.trace[base]
    if mass == 0:
        return CIRCLE_ZERO
    measure = fn.tag._map.get(base)
    if measure is None:
        raise GraphError(f"tag has no measure for cyclic vertex {base!r} with mass")
    return moment(measure, form.power).scaled(mass)


def outcome(evaluate, *args):
    """The exact terms of a value, or the error it raised."""
    try:
        return evaluate(*args).terms
    except GraphError as exc:
        return ("error", str(exc))


def edge_normalizers_ref(graph):
    """The single-edge isometries, the generating normalizers."""
    return [Monomial(graph.edge_path(e.id), graph.trivial_path(e.src)) for e in graph.edges]


def edge_invariance_ref(fn, max_len):
    normalizers = edge_normalizers_ref(fn.graph)
    core = [x for x in monomials_ref(fn.graph, max_len) if is_normal_ref(fn.graph, x)]
    checked = 0
    for n in normalizers:
        n_star = adjoint(n)
        for b in core:
            checked += 1
            left = value_ref(fn, multiply(multiply(n, b), n_star))
            right = value_ref(fn, multiply(multiply(n_star, n), b))
            if left != right:
                return CheckResult(
                    "invariance",
                    False,
                    witness=f"n={format_monomial(n)} b={format_monomial(b)}",
                    detail=f"F(nbn*)={left} F(n*nb)={right}",
                    checked=checked,
                )
    return CheckResult("invariance", True, checked=checked)


def gauge_ref(fn, max_len):
    checked = 0
    for x in monomials_ref(fn.graph, max_len):
        if degree(x) == 0:
            continue
        checked += 1
        val = value_ref(fn, x)
        if not val.is_zero:
            return CheckResult(
                "gauge",
                False,
                witness=format_monomial(x),
                detail=f"degree {degree(x)} value {val}",
                checked=checked,
            )
    return CheckResult("gauge", True, checked=checked)


def ck_ref(fn, max_len):
    graph = fn.graph
    checked = 0
    for x in monomials_ref(graph, max_len):
        v = x.left.source
        if not graph.is_regular(v):
            continue
        checked += 1
        total = CIRCLE_ZERO
        for e in graph.receivers(v):
            step = graph.edge_path(e.id)
            total = total + value_ref(
                fn, Monomial(compose(x.left, step), compose(x.right, step))
            )
        if value_ref(fn, x) != total:
            return CheckResult(
                "ck",
                False,
                witness=format_monomial(x),
                detail=f"F(x)={value_ref(fn, x)} sum={total}",
                checked=checked,
            )
    return CheckResult("ck", True, checked=checked)


def cylinder_measure_ref(graph, trace, max_len):
    checked = 0
    for lam in paths_up_to(graph, max_len):
        v = lam.source
        if not graph.is_regular(v):
            continue
        checked += 1
        mass = trace[v]
        extended = sum(
            (trace[e.src] for e in graph.receivers(v)), Fraction(0)
        )
        if mass != extended:
            return CheckResult(
                "cylinder",
                False,
                witness=f"Z({format_monomial(Monomial(lam, lam))})",
                detail=f"m={mass} extensions={extended}",
                checked=checked,
            )
    return CheckResult("cylinder", True, checked=checked)


def gram_matrix_ref(fn, family):
    """The Hermitian part of F(x_i* x_j), as numpy built it."""
    size = len(family)
    gram = np.zeros((size, size), dtype=complex)
    for i, x in enumerate(family):
        for j, y in enumerate(family):
            gram[i, j] = value_ref(fn, multiply(adjoint(x), y)).as_complex()
    return (gram + gram.conj().T) / 2


def gram_ref(fn, family):
    """The Gram probe as it was, on Monomial objects: F(x_i* x_j) by multiply,
    adjoint and value."""
    if not family:
        raise ValueError("gram check needs a non-empty monomial family")
    gram = [
        [fn.value(multiply(adjoint(x), y)).as_complex() for y in family]
        for x in family
    ]
    size = len(family)
    herm = [
        [(gram[i][j] + gram[j][i].conjugate()) / 2 for j in range(size)]
        for i in range(size)
    ]
    lowest = lowest_eigenvalue(herm)
    return CheckResult(
        "gram",
        lowest >= -1e-9,
        detail=f"min eigenvalue {lowest:.3e}",
        checked=size,
    )


def full_scan(graph, max_len):
    """Every pair x = items[i], y = items[j], i < j, with xy and yx, in order;
    computed once per graph and shared by the functionals on it."""
    items = monomials_ref(graph, max_len)
    return [
        (x, y, multiply(x, y), multiply(y, x))
        for i, x in enumerate(items)
        for y in items[i + 1:]
    ]


def cached_value_ref(fn):
    """value_ref with the old per-monomial cache."""
    cache = {}

    def value(x):
        if x not in cache:
            cache[x] = value_ref(fn, x)
        return cache[x]

    return value


def check_traciality_ref(fn, scan):
    value = cached_value_ref(fn)
    checked = 0
    for x, y, xy, yx in scan:
        checked += not (xy.is_zero and yx.is_zero)
        left = value(xy)
        right = value(yx)
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
    """On every ordered pair of the coding's monomials, the coded product's
    class is the class of multiply's product (class 0 when that is ZERO),
    and the coding's join is compose on every pair of paths that meet."""
    code = coding(graph, max_len)
    pool = monomials(graph, max_len)
    for x, cx in zip(pool, code.codes):
        assert [code.product_class(*cx, *cy) for cy in code.codes] == [
            monomial_class(graph, multiply(x, y)) for y in pool
        ], (graph, format_monomial(x))
    paths = paths_up_to(graph, max_len)
    for p, lam in enumerate(paths):
        for r, nu in enumerate(paths):
            if nu.range == lam.source:
                assert code.paths[code.join(p, r)] == compose(lam, nu), (graph, lam, nu)


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
        for max_len in (2, 3):
            scan = full_scan(tight, max_len)
            for fn in functionals_on(tight):
                got = check_traciality(fn, max_len)
                assert got == check_traciality_ref(fn, scan), (tight, fn.trace, fn.tag)
                verdicts.add((max_len, got.passed))
    assert verdicts == {(2, True), (2, False), (3, True), (3, False)}


def every_functional(g):
    """Haar-tagged functionals, built unchecked and by
    ``haar_tagged_functional``, and skew-tagged ones on the extreme traces
    of g's minimal tightening, one with an empty tag (no measure anywhere),
    and unchecked Haar-tagged functionals of the lifted traces on g itself."""
    tight, removed = tighten_min(g)
    for trace in extreme_traces(tight):
        yield TraceFunctional(tight, trace, haar_tag(tight, trace))
        yield from functionals_on_trace(tight, trace)
        yield TraceFunctional(tight, trace, Tag(()))
        lifted = lift_trace(g, removed, trace)
        yield TraceFunctional(g, lifted, haar_tag(g, lifted))


def functionals_on_trace(tight, trace):
    yield haar_tagged_functional(tight, trace)
    yield TraceFunctional(tight, trace, skewed_tag(tight, trace))


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_value_battery_matches_reference(seed):
    """value equals the old body on every monomial and every product of two,
    errors included: a missing measure and paths of another graph."""
    seen = set()
    cases = {}
    for g in graph_battery(seed, 100):
        for fn in every_functional(g):
            graph = fn.graph
            if graph not in cases:
                items = monomials(graph, 3)
                found = dict.fromkeys(items)
                found.update(dict.fromkeys(multiply(x, y) for x in items for y in items))
                found[Monomial(Path(("nowhere",), "v1", "v1"), Path((), "v1", "v1"))] = None
                cases[graph] = list(found)
            for x in cases[graph]:
                want = outcome(value_ref, fn, x)
                assert outcome(fn.value, x) == want, (graph, fn.trace, fn.tag, x)
                seen.add(want[0] if want and want[0] == "error" else "value")
                seen.update(want[1].split()[:3] if want and want[0] == "error" else ())
        cases.clear()
    assert {"value", "error", "tag", "path"} <= seen


def test_haar_tag_gives_the_untagged_values():
    """The Haar-tagged functional is the trace composed with the expectation
    onto the diagonal, the rule a functional followed with no tag: equal
    values on every monomial up to length 3 and every product of two up to
    length 2, on every extreme trace of each tightening of the battery.
    Some of them are cyclic powers, on which only the Haar moments vanish."""
    powers = 0
    for g in graph_battery(BATTERY_SEEDS[0], 100):
        tight, _ = tighten_min(g)
        items = monomials(tight, 2)
        cases = list(dict.fromkeys(monomials(tight, 3) + tuple(
            multiply(x, y) for x in items for y in items)))
        for trace in extreme_traces(tight):
            fn = haar_tagged_functional(tight, trace)
            for x in cases:
                assert fn.value(x) == untagged_value(fn, x), (tight, trace, x)
                key = monomial_class(tight, x)
                powers += key != 0 and key[1] != 0 and trace[key[0]] != 0
    assert powers > 0


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_suites_battery_match_reference(seed):
    """Invariance, gauge and ck equal the old bodies' verdict, witness,
    detail and checked at length 3 (traciality is compared above).  The
    Gram probe reads the reference matrix, and its eigenvalue is numpy's
    to within 1e-12.  Invariance is also compared on every functional of
    ``every_functional``, a raised GraphError included."""
    failures, outcomes = set(), set()
    for g in graph_battery(seed, 100):
        tight, _ = tighten_min(g)
        family = monomials_ref(tight, 3)[:6] or [ZERO]
        for trace in extreme_traces(tight):
            for fn in functionals_on_trace(tight, trace):
                got = {r.name: r for r in run_suites(fn, 3)}
                for ref in (edge_invariance_ref(fn, 3), gauge_ref(fn, 3), ck_ref(fn, 3)):
                    assert got[ref.name] == ref, (tight, fn.tag)
                    failures.update([ref.name] if not ref.passed else [])
                matrix = gram_matrix_ref(fn, family)
                lowest = lowest_eigenvalue(matrix.tolist())
                assert abs(lowest - float(np.linalg.eigvalsh(matrix)[0])) < 1e-12
                assert got["gram"] == CheckResult(
                    "gram", lowest >= -1e-9, detail=f"min eigenvalue {lowest:.3e}",
                    checked=len(family),
                )
        for fn in every_functional(g):
            got, want = verdict(check_edge_invariance, fn, 3), verdict(edge_invariance_ref, fn, 3)
            assert got == want, (g, fn.graph, fn.trace, fn.tag)
            outcomes.add(want[0] if isinstance(want, tuple) else want.passed)
    assert failures == {"invariance", "gauge"}
    assert outcomes == {True, False, "error"}


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_trace_data_lives_on_the_tightening(seed):
    """On each extreme trace of the given graph, a Haar tag and a point mass
    at 1/3 on the kept cycle vertices with mass pass ``validate_tag``.  Each
    tagged functional's value on every monomial up to length 3 is, term for
    term, the value of the same functional built on the minimal tightening,
    or 0 where the monomial's source is removed; and every suite passes at
    lengths 2 and 3, gauge excepted for point masses."""
    point_mass = CircleMeasure.point_mass(Fraction(1, 3))
    values = gauge_failures = 0
    for g in graph_battery(seed, 200):
        tight, removed = tighten_min(g)
        kept_cyclic = cycle_vertex_set_ref(g) - removed
        for trace in extreme_traces(g):
            support = [v for v in sorted(kept_cyclic) if trace[v] != 0]
            restricted = GraphTrace.from_values({v: trace[v] for v in tight.vertices})
            for measure in (CircleMeasure.haar_measure(), point_mass):
                tag = Tag.from_dict({v: measure for v in support})
                assert validate_tag(g, trace, tag) is None, (g, trace, tag)
                fn = TraceFunctional(g, trace, tag)
                on_tight = TraceFunctional(tight, restricted, tag)
                for x in monomials(g, 3):
                    want = () if x.left.source in removed else on_tight.value(x).terms
                    assert fn.value(x).terms == want, (g, trace, tag, x)
                    values += 1
                for max_len in (2, 3):
                    for result in run_suites(fn, max_len):
                        excused = result.name == "gauge" and measure is point_mass
                        assert result.passed or excused, (g, trace, tag, result)
                        gauge_failures += not result.passed
    assert values > 0 and gauge_failures > 0


def verdict(check, fn, max_len):
    """A suite's result, or the error it raised."""
    try:
        return check(fn, max_len)
    except GraphError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_gram_battery_matches_reference(seed):
    """The probe on codes equals the object-level body on the first six
    monomials, at lengths 2 and 3, for Haar- and skew-tagged functionals."""
    verdicts = set()
    for g in graph_battery(seed, 100):
        tight, _ = tighten_min(g)
        for max_len in (2, 3):
            family = monomials_ref(tight, max_len)[:6]
            for trace in extreme_traces(tight):
                for fn in functionals_on_trace(tight, trace):
                    got = gram_psd_check(fn, max_len)
                    assert got == gram_ref(fn, family), (tight, fn.tag, max_len)
                    verdicts.add(got.passed)
    child = Graph(["u", "v"], [Edge("f", "u", "v")])
    mass = {"u": Fraction(2, 3), "v": Fraction(1, 3)}  # heavier than the parent: not positive
    trace = GraphTrace.from_values(mass)
    heavy = TraceFunctional(child, trace, haar_tag(child, trace))
    for max_len in (1, 2, 3):
        got = gram_psd_check(heavy, max_len)
        assert got == gram_ref(heavy, monomials_ref(child, max_len)[:6])
        verdicts.add(got.passed)
    assert verdicts == {True, False}


def test_missing_measure_errors_match_reference(loop_graph, two_cycle, disjoint_loops):
    """With no measure where a class has mass, every suite raises the
    reference's error, naming the same vertex."""
    for g in (loop_graph, two_cycle, disjoint_loops):
        for trace in extreme_traces(g):
            fn = TraceFunctional(g, trace, Tag(()))
            refs = (
                lambda: check_traciality_ref(fn, full_scan(g, 3)),
                lambda: edge_invariance_ref(fn, 3),
                lambda: gauge_ref(fn, 3),
                lambda: ck_ref(fn, 3),
            )
            for name, ref in zip(("traciality", "invariance", "gauge", "ck"), refs):
                with pytest.raises(GraphError) as want:
                    ref()
                with pytest.raises(GraphError) as got:
                    run_suites(TraceFunctional(g, trace, Tag(())), 3, [name])
                assert str(got.value) == str(want.value)
                assert "tag has no measure" in str(got.value)


def cylinder_outcome(check, graph, trace, max_len):
    """The suite's result, or the error a trace without some vertex raised."""
    try:
        return check(graph, trace, max_len)
    except KeyError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_cylinder_battery_matches_reference(seed):
    """The cylinder suite equals the per-path reference at L = -1..4 on the
    extreme traces, on each of them raised by 1 at one vertex in turn, and
    on each of them without one vertex in turn."""
    seen = set()
    for g in graph_battery(seed, 60):
        traces = []
        for trace in extreme_traces(g):
            values = dict(trace.entries)
            traces.append(trace)
            for v in g.vertices:
                traces.append(GraphTrace.from_values({**values, v: values[v] + 1}))
                traces.append(GraphTrace.from_values({w: x for w, x in values.items() if w != v}))
        for trace in traces:
            for max_len in range(-1, 5):
                want = cylinder_outcome(cylinder_measure_ref, g, trace, max_len)
                assert cylinder_outcome(cylinder_measure_check, g, trace, max_len) == want, (
                    g, trace, max_len,
                )
                seen.add(want[0] if isinstance(want, tuple) else want.passed)
    assert seen == {True, False, "error"}


def test_cylinder_suite_counts_paths_it_does_not_list(two_loops):
    """On a pass the suite counts the paths up to the bound without listing
    them: 2**41 - 1 paths on two loops at L = 40, in well under a second."""
    zero = GraphTrace.from_values({"v": 0})
    assert cylinder_measure_check(two_loops, zero, 3) == cylinder_measure_ref(two_loops, zero, 3)
    assert cylinder_measure_check(two_loops, zero, 3).checked == 15
    start = time.perf_counter()
    got = cylinder_measure_check(two_loops, zero, 40)
    assert time.perf_counter() - start < 1.0
    assert got == CheckResult("cylinder", True, checked=2**41 - 1)


def _gram_matrices():
    for seed in BATTERY_SEEDS:
        for g in graph_battery(seed, 100):
            tight, _ = tighten_min(g)
            family = monomials_ref(tight, 3)[:6] or [ZERO]
            for trace in extreme_traces(tight):
                for fn in functionals_on_trace(tight, trace):
                    yield gram_matrix_ref(fn, family)


def _random_hermitian(rng, size, rank, shift):
    """B B* for a random size x rank complex B, minus shift times the identity."""
    b = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(rank)] for _ in range(size)]
    return np.array(
        [
            [sum(b[i][k] * b[j][k].conjugate() for k in range(rank)) - (shift if i == j else 0)
             for j in range(size)]
            for i in range(size)
        ]
    )


def test_jacobi_matches_eigvalsh():
    """The pure-Python Jacobi eigenvalue against numpy, within 1e-12, on the
    battery's Gram matrices and on seeded random Hermitian matrices: PSD,
    singular PSD (rank below size) and indefinite, of size 1 to 6."""
    matrices = list(_gram_matrices())
    rng = random.Random(20261018)
    for size in range(1, 7):
        for _ in range(20):
            matrices.append(_random_hermitian(rng, size, size, 0))
            matrices.append(_random_hermitian(rng, size, rng.randint(1, size), 0))
            matrices.append(_random_hermitian(rng, size, size, rng.uniform(0.5, 3)))
    for h in matrices:
        got = lowest_eigenvalue(h.tolist())
        assert abs(got - float(np.linalg.eigvalsh(h)[0])) < 1e-12, h
    assert len(matrices) > 800


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


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_enumeration_battery_matches_reference(seed):
    """The coding's own pairs, decoded, are the reference enumeration."""
    for g in graph_battery(seed, 200):
        for max_len in range(4):
            assert monomials(g, max_len) == monomials_ref(g, max_len), (g, max_len)


@given(small_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_random_enumerations_match_reference(graph, max_len):
    assert monomials(graph, max_len) == monomials_ref(graph, max_len)


def test_suites_build_no_monomial_tuple():
    """run_suites reads the coding's pairs and never asks for monomials."""
    for g in graph_battery(20260810, 40):
        tight, _ = tighten_min(g)
        for trace in extreme_traces(tight):
            run_suites(haar_tagged_functional(tight, trace), 3)
        assert ("monomials", 3) not in tight._memo, tight


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
    assert coding(figure_eight, 3) is coding(figure_eight, 3)
    assert len(monomials(figure_eight, 2)) < len(first)
    twin = Graph(figure_eight.vertices, figure_eight.edges)
    assert twin == figure_eight
    assert monomials(twin, 3) == first
    assert monomials(twin, 3) is not first


def test_suites_build_no_monomial_object(monkeypatch):
    """A passing battery round of the six suites at length 3 runs on the
    coding alone: not one Monomial is built, the Gram family included."""
    fns = [
        haar_tagged_functional(tight, trace)
        for tight, _ in map(tighten_min, graph_battery(20260810, 100))
        for trace in extreme_traces(tight)
    ]
    built = []
    init = Monomial.__init__

    def counting(self, left, right):
        built.append(1)
        init(self, left, right)

    monkeypatch.setattr(Monomial, "__init__", counting)
    results = [r for fn in fns for r in run_suites(fn, 3)]
    assert len(results) == 6 * len(fns) > 1000
    assert all(r.passed for r in results)
    assert built == []
    Monomial(None, None)
    assert built == [1]  # the count sees a Monomial when one is built


def test_graph_dies_without_the_cycle_collector():
    """A graph, its memo and the codings there hold no reference cycle, so
    dropping the last reference to a graph frees it at once."""
    gc.collect()
    gc.disable()
    try:
        g = Graph(["u", "v", "w"], [Edge("p", "v", "v"), Edge("c", "v", "w"), Edge("q", "w", "u")])
        tight, _ = tighten_min(g)
        fns = [haar_tagged_functional(tight, trace) for trace in extreme_traces(tight)]
        for fn in fns:
            assert all(r.passed for r in run_suites(fn, 3))
        assert ("coding", 3) in tight._memo
        alive = weakref.ref(tight)
        del g, tight, fns, fn
        assert alive() is None
    finally:
        gc.enable()


def test_battery_round_leaves_no_garbage_cycle():
    """With the collector off, a battery round at length 3 leaves nothing
    that only the cycle collector could free."""
    gc.collect()
    gc.disable()
    try:
        for g in graph_battery(20260810, 100):
            tight, _ = tighten_min(g)
            for trace in extreme_traces(tight):
                run_suites(haar_tagged_functional(tight, trace), 3)
        del g, tight, trace
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_memo_dies_with_its_graph():
    g = Graph(["v", "w"], [Edge("p", "v", "v"), Edge("c", "v", "w")])
    code = coding(g, 4)
    assert any(code.class_of(a, b) for a, b in code.codes)  # classified, so cached
    alive = weakref.ref(g)
    kept = weakref.ref(monomials(g, 4)[0])
    del g, code
    gc.collect()
    assert alive() is None
    assert kept() is None
