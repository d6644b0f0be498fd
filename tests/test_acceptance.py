"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact except the Gram eigenvalue probe (tol 1e-9).
"""

import random
import time
from fractions import Fraction

from cktrace.functionals import (
    TraceFunctional,
    check_edge_invariance,
    check_gauge,
    check_traciality,
    ck_additivity_check,
    cylinder_measure_check,
    gram_psd_check,
    haar_tagged_functional,
    tagged_functional,
)
from cktrace.fuzz import graph_battery
from cktrace.graph import Graph, paths_up_to
from cktrace.monomials import parse_monomial
from cktrace.structure import (
    auto_gauge_criterion,
    is_saturated,
    is_tight,
    saturate,
    tighten_min,
)
from cktrace.tagging import (
    CircleMeasure,
    Tag,
    cyclic_support,
    validate_tag,
)
from cktrace.traces import (
    GraphTrace,
    char_implication_check,
    combination_value,
    cylinder_positive,
    extreme_traces,
    lift_trace,
    validate_trace,
    violation_certificate,
    witness_nongauge_trace,
)

from conftest import trace_of
from reference import circle_value, tighten_left_ref

BATTERY_SEED = 20260810
BATTERY = graph_battery(seed=BATTERY_SEED, count=100)


def report(number: int, budget: float, started: float, summary: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS ({elapsed:.2f}s < {budget:.0f}s) - {summary}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_two_loop_graph(two_loops):
    started = time.perf_counter()
    assert extreme_traces(two_loops) == []
    assert not is_tight(two_loops)
    tight, removed = tighten_min(two_loops)
    assert tight == Graph([], [])
    assert removed == frozenset({"v"})
    assert auto_gauge_criterion(two_loops)
    report(1, 1.0, started, "two-loop graph: empty trace space, empty tightening, auto gauge")


def test_criterion_2_loop_with_entry(loop_with_entry, loop_graph):
    started = time.perf_counter()
    points = extreme_traces(loop_with_entry)
    assert points == [trace_of({"v": 1, "u": 0})]

    tight, removed = tighten_min(loop_with_entry)
    assert tight == loop_graph

    witness = witness_nongauge_trace(tight, tight.edge_path("e"))
    assert lift_trace(loop_with_entry, removed, witness) == points[0]

    assert not auto_gauge_criterion(loop_with_entry)

    tag = Tag.from_dict({"v": CircleMeasure.point_mass(Fraction(1, 3))})
    fn = tagged_functional(tight, witness, tag)
    assert check_traciality(fn, 5).passed
    assert check_edge_invariance(fn, 5).passed
    gauge = check_gauge(fn, 5)
    assert not gauge.passed
    assert gauge.witness == "e|@v"
    assert fn.value(parse_monomial(tight, "e|@v")) == circle_value(
        [(Fraction(1, 3), Fraction(1))]
    )
    report(2, 5.0, started, "loop-with-entry: unique trace, witness trace, gauge breaks at e|@v")


def test_criterion_3_line_graph(line3):
    started = time.perf_counter()
    third = Fraction(1, 3)
    uniform = trace_of({"v1": third, "v2": third, "v3": third})
    assert extreme_traces(line3) == [uniform]
    fn = haar_tagged_functional(line3, uniform)
    assert check_traciality(fn, 6).passed
    assert ck_additivity_check(fn, 6).passed
    assert cylinder_measure_check(line3, uniform, 6).passed
    report(3, 5.0, started, "three-vertex line: uniform trace passes the exact suites at depth 6")


def test_criterion_4_randomized_invariance_battery():
    started = time.perf_counter()
    n_traces = 0
    for g in BATTERY:
        for tr in extreme_traces(g):
            n_traces += 1
            fn = haar_tagged_functional(g, tr)
            assert check_traciality(fn, 3).passed
            assert check_edge_invariance(fn, 3).passed
            assert ck_additivity_check(fn, 3).passed
            assert cylinder_measure_check(g, tr, 3).passed
            gram = gram_psd_check(fn, 2)
            assert gram.passed, gram.detail
    assert n_traces > 50  # the battery genuinely exercises the suites
    report(4, 60.0, started, f"100 random graphs, {n_traces} extreme traces, all suites exact")


def _seeded_combinations(graph, rng, want):
    """Admissible rational combinations, |I| <= 3, path length <= 2."""
    pool = paths_up_to(graph, 2)
    out = []
    attempts = 0
    while len(out) < want and attempts < 80 * want:
        attempts += 1
        size = rng.randint(1, 3)
        signed = rng.random() < 0.6 and len(out) >= want // 2
        terms = []
        for _ in range(size):
            num = rng.randint(-3, 3) if signed else rng.randint(0, 3)
            terms.append((Fraction(num, rng.randint(1, 3)), rng.choice(pool)))
        if cylinder_positive(graph, terms):
            out.append(terms)
    return out


def test_criterion_5_characterization_bidirectional():
    started = time.perf_counter()
    rng = random.Random(BATTERY_SEED + 1)
    n_certs = 0
    for g in BATTERY:
        points = extreme_traces(g)
        for terms in _seeded_combinations(g, rng, 100):
            for tr in points:
                assert char_implication_check(g, tr, terms)
        regulars = [v for v in g.vertices if g.is_regular(v)]
        if not regulars:
            continue
        base = points[0] if points else trace_of({v: 1 for v in g.vertices})
        bumped = {v: base[v] for v in g.vertices}
        target = rng.choice(regulars)
        bumped[target] += Fraction(rng.randint(1, 3), rng.randint(1, 3))
        candidate = GraphTrace.from_values(bumped)
        if validate_trace(g, candidate) is None:
            continue
        cert = violation_certificate(g, candidate)
        assert cert is not None
        assert cylinder_positive(g, cert)
        assert combination_value(candidate, cert) < 0
        n_certs += 1
    assert n_certs > 30
    report(5, 30.0, started, f"forward check on 100x100 tuples, {n_certs} negative certificates")


def test_criterion_6_auto_gauge_cross_validation():
    started = time.perf_counter()
    for g in BATTERY:
        tight, _ = tighten_min(g)
        supports_empty = all(
            not cyclic_support(tight, tr) for tr in extreme_traces(tight)
        )
        assert auto_gauge_criterion(g) == supports_empty, g
    report(6, 30.0, started, "gauge criterion matches empty cyclic support on the battery")


def test_criterion_7_inconsistent_tag_failure_mode(two_cycle):
    started = time.perf_counter()
    half = Fraction(1, 2)
    uniform = trace_of({"v": half, "w": half})
    skew = Tag.from_dict(
        {
            "v": CircleMeasure.point_mass(Fraction(1, 4)),
            "w": CircleMeasure.point_mass(Fraction(1, 2)),
        }
    )
    verdict = validate_tag(two_cycle, uniform, skew)
    assert verdict is not None and verdict.kind == "inconsistent"

    bypassed = TraceFunctional(two_cycle, uniform, skew)
    result = check_edge_invariance(bypassed, 4)
    assert not result.passed
    assert result.witness.startswith(("n=a|", "n=b|"))  # a cycle edge normalizer
    report(7, 1.0, started, f"inconsistent tag rejected; bypass fails at {result.witness}")


def test_criterion_8_structural_idempotence():
    started = time.perf_counter()
    rng = random.Random(BATTERY_SEED + 2)
    for g in BATTERY:
        tight, _ = tighten_min(g)
        assert tighten_min(tight) == (tight, frozenset())
        left, _ = tighten_left_ref(g)
        assert tighten_left_ref(left) == (left, frozenset())
        for sub in (tight, left):
            alive = set(sub.vertices)
            assert all(e.src in alive and e.dst in alive for e in sub.edges)
        sample = frozenset(rng.sample(list(g.vertices), rng.randint(0, len(g.vertices))))
        bigger = sample | frozenset(
            rng.sample(list(g.vertices), rng.randint(0, len(g.vertices)))
        )
        sat = saturate(g, sample)
        assert saturate(g, sat) == sat
        assert sat <= saturate(g, bigger)
        assert is_saturated(g, sat)
    report(8, 10.0, started, "tightenings idempotent, saturation monotone, no dangling edges")
