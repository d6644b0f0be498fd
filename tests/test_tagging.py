import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cktrace.graph import GraphError, ParseError
from cktrace.structure import tighten_min
from cktrace.tagging import (
    CIRCLE_ZERO,
    CircleMeasure,
    CircleValue,
    MAX_ANGLE_DENOMINATOR,
    Tag,
    cyclic_support,
    haar_tag,
    moment,
    validate_tag,
)

from conftest import trace_of
from reference import CIRCLE_ONE, circle_value, conjugate, measure_doc, rotated, tag_doc

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)
angles = st.fractions(min_value=0, max_value=2, max_denominator=12)


# -- circle values -----------------------------------------------------------


@given(st.lists(st.tuples(angles, rationals), max_size=6))
@settings(max_examples=100)
def test_circle_value_canonical_idempotent(pairs):
    v = circle_value(pairs)
    assert circle_value(v.terms) == v
    for a, w in v.terms:
        assert 0 <= a < 1
        assert w != 0


@given(st.lists(st.tuples(angles, rationals), max_size=6), st.randoms())
@settings(max_examples=60)
def test_circle_value_order_independent(pairs, rng):
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert circle_value(pairs) == circle_value(shuffled)


def test_circle_value_arithmetic():
    half = circle_value([(Fraction(1, 2), Fraction(1))])
    assert half + half == circle_value([(Fraction(1, 2), Fraction(2))])
    assert half.scaled(0) == CIRCLE_ZERO
    assert rotated(half, Fraction(1, 2)) == CIRCLE_ONE
    assert abs(half.as_complex() - (-1.0)) < 1e-12


@given(st.lists(st.tuples(angles, rationals), max_size=6))
@settings(max_examples=60)
def test_circle_value_conjugate_involution(pairs):
    v = circle_value(pairs)
    assert conjugate(conjugate(v)) == v
    assert abs(conjugate(v).as_complex() - v.as_complex().conjugate()) < 1e-9


def _sympy_is_zero(value: CircleValue) -> bool:
    """Independent oracle: P(x) with P(zeta_N) the value, reduced modulo the
    N-th cyclotomic polynomial by sympy."""
    if not value.terms:
        return True
    n = math.lcm(*(a.denominator for a, _ in value.terms))
    x = sympy.Symbol("x")
    poly = sum(sympy.Rational(w.numerator, w.denominator) * x ** int(a * n) for a, w in value.terms)
    return sympy.rem(poly, sympy.cyclotomic_poly(n, x), x) == 0


def _least_prime_squared_divides(value: CircleValue) -> bool:
    n = math.lcm(*(a.denominator for a, _ in value.terms))
    p = min(q for q in range(2, n + 1) if n % q == 0)
    return n % (p * p) == 0


angles_720 = st.sampled_from([d for d in range(1, 721) if 720 % d == 0]).flatmap(
    lambda d: st.integers(0, d - 1).map(lambda k: Fraction(k, d))
)
weights = st.integers(-3, 3).map(Fraction)


@st.composite
def rotated_root_sums(draw):
    """A rotated full set of p-th roots of unity (a vanishing sum), plus an
    arbitrary sum over angles dividing 720 and a perturbation of one term."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    shift, weight = draw(angles_720), draw(st.integers(1, 3))
    pairs = [(Fraction(j, p) + shift, weight) for j in range(p)]
    pairs += draw(st.lists(st.tuples(angles_720, weights), max_size=3))
    if draw(st.booleans()):
        pairs.append((draw(angles_720), draw(st.sampled_from([-1, 1]))))
    return circle_value(pairs)


arbitrary_sums = st.lists(st.tuples(angles_720, weights), max_size=6).map(circle_value)


@given(st.one_of(arbitrary_sums, rotated_root_sums()))
@settings(max_examples=100, deadline=None)
def test_is_zero_matches_sympy_cyclotomic_remainder(value):
    assert value.is_zero == _sympy_is_zero(value)


def _z(*pairs):
    return circle_value((Fraction(a), Fraction(w)) for a, w in pairs)


@pytest.mark.parametrize(
    "value,squared,zero",
    [
        (_z(*((Fraction(j, 4), 1) for j in range(4))), True, True),
        (_z(("1/9", 1), ("4/9", 1), ("7/9", 1), ("1/4", 2), ("3/4", 2)), True, True),
        (_z(("0", 1), ("1/4", 1)), True, False),
        (_z(*((Fraction(j, 5) + Fraction(1, 25), 1) for j in range(5)), ("1/25", -1)), True, False),
        (_z(("0", 1), ("1/3", 1), ("2/3", 1)), False, True),
        (_z(*((Fraction(j, 7) + Fraction(1, 30), 1) for j in range(7)),
            *((Fraction(j, 5), -1) for j in range(5))), False, True),
        (_z(("0", 1), ("1/3", 1)), False, False),
        (_z(*((Fraction(j, 7) + Fraction(1, 30), 1) for j in range(7)), ("1/2", 1)), False, False),
    ],
)
def test_is_zero_decides_both_tower_branches(value, squared, zero):
    """Least prime p of the angle denominator N: p^2 | N splits by exponent
    class, p || N compares the classes; each decides zero and nonzero sums."""
    assert _least_prime_squared_divides(value) is squared
    assert value.is_zero is zero
    assert _sympy_is_zero(value) is zero


def test_large_denominators_decide_fast():
    """Cost follows the terms and prime factors of N, not N: at N = 5040 the
    cyclotomic-polynomial reduction took minutes."""
    start = time.perf_counter()
    assert (_z(("1/5040", 1)) == _z(("1/2", 1))) is False
    assert sum((_z((Fraction(j, 7) + Fraction(1, 5040), 1)) for j in range(7)), CIRCLE_ZERO).is_zero
    assert _z(("1/720720", 1), ("1/2", 1)).is_zero is False
    assert time.perf_counter() - start < 1.0


# -- measures and moments -------------------------------------------------------


def test_measure_validation():
    with pytest.raises(GraphError, match="total mass"):
        CircleMeasure(Fraction(1, 2))
    with pytest.raises(GraphError, match="nonnegative"):
        CircleMeasure(Fraction(-1), [(Fraction(0), Fraction(2))])
    limit = MAX_ANGLE_DENOMINATOR
    edge = CircleMeasure(Fraction(0), [(Fraction(1, limit), Fraction(1))])
    assert edge.atoms == ((Fraction(1, limit), Fraction(1)),)
    with pytest.raises(GraphError, match="denominators must not exceed"):
        CircleMeasure(Fraction(0), [(Fraction(1, limit + 1), Fraction(1))])
    m = CircleMeasure(Fraction(1, 2), [(Fraction(5, 4), Fraction(1, 2))])
    assert m.atoms == ((Fraction(1, 4), Fraction(1, 2)),)
    # each weight is checked as given, before atoms at equal angles (mod 1)
    # merge; a weight of 0 is dropped
    with pytest.raises(GraphError, match="atom weights must be positive"):
        CircleMeasure(Fraction(0), [(Fraction(1, 3), Fraction(-1, 2)), (Fraction(4, 3), Fraction(3, 2))])
    m = CircleMeasure(Fraction(0), [(Fraction(1, 3), Fraction(0)), (Fraction(1, 2), Fraction(1))])
    assert m.atoms == ((Fraction(1, 2), Fraction(1)),)


def test_measure_doc_round_trip():
    doc = {"haar": "1/3", "atoms": [{"angle": "1/4", "weight": "2/3"}]}
    m = CircleMeasure.from_doc(doc)
    assert CircleMeasure.from_doc(measure_doc(m)) == m
    with pytest.raises(ParseError):
        CircleMeasure.from_doc({"haar": "1", "atoms": [{"angle": "x"}]})


def test_moment_examples():
    assert moment(CircleMeasure.haar_measure(), 3) == CIRCLE_ZERO
    delta = CircleMeasure.point_mass(Fraction(1, 3))
    assert moment(delta, 1) == circle_value([(Fraction(1, 3), Fraction(1))])
    mixed = CircleMeasure(
        Fraction(0), [(Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))]
    )
    assert moment(mixed, 2) == CIRCLE_ONE


@given(st.lists(st.tuples(angles, st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8)), max_size=4))
@settings(max_examples=80)
def test_moment_mass_and_conjugation(raw_atoms):
    total = sum((w for _, w in raw_atoms), Fraction(0))
    if total > 1:
        return
    m = CircleMeasure(1 - total, raw_atoms)
    assert moment(m, 0) == CIRCLE_ONE
    for k in (1, 2, 3):
        assert moment(m, -k) == conjugate(moment(m, k))


# -- cyclic support --------------------------------------------------------------


def test_cyclic_support_examples(loop_graph, line3, loop_with_entry):
    assert cyclic_support(loop_graph, trace_of({"v": 1})) == frozenset({"v"})
    third = Fraction(1, 3)
    assert cyclic_support(line3, trace_of({"v1": third, "v2": third, "v3": third})) == frozenset()
    # read on the minimal tightening: v's loop has an entry upstairs, but
    # only from the removed u, so v is cyclic for the lifted trace too
    lifted = trace_of({"v": 1, "u": 0})
    assert cyclic_support(loop_with_entry, lifted) == frozenset({"v"})
    tight, _ = tighten_min(loop_with_entry)
    assert cyclic_support(tight, trace_of({"v": 1})) == frozenset({"v"})


# -- tags ---------------------------------------------------------------------------


def test_validate_tag_examples(two_cycle, loop_graph):
    half = Fraction(1, 2)
    uniform = trace_of({"v": half, "w": half})
    quarter = CircleMeasure.point_mass(Fraction(1, 4))
    ok = Tag.from_dict({"v": quarter, "w": quarter})
    assert validate_tag(two_cycle, uniform, ok) is None

    skew = Tag.from_dict(
        {"v": quarter, "w": CircleMeasure.point_mass(Fraction(1, 2))}
    )
    bad = validate_tag(two_cycle, uniform, skew)
    assert bad is not None
    assert bad.kind == "inconsistent"
    assert bad.vertices == ("v", "w")

    empty = Tag(())
    missing = validate_tag(loop_graph, trace_of({"v": 1}), empty)
    assert missing is not None and missing.kind == "domain"


def test_validate_tag_rejects_extra_vertices(line3):
    third = Fraction(1, 3)
    uniform = trace_of({"v1": third, "v2": third, "v3": third})
    stray = Tag.from_dict({"v1": CircleMeasure.haar_measure()})
    bad = validate_tag(line3, uniform, stray)
    assert bad is not None and bad.kind == "domain"
    assert "v1" in bad.vertices


def test_haar_tag_examples(loop_graph, line3, two_cycle):
    t = haar_tag(loop_graph, trace_of({"v": 1}))
    assert t.vertices == frozenset({"v"})
    assert t["v"] == CircleMeasure.haar_measure()
    third = Fraction(1, 3)
    assert haar_tag(line3, trace_of({"v1": third, "v2": third, "v3": third})) == Tag(())
    half = Fraction(1, 2)
    t2 = haar_tag(two_cycle, trace_of({"v": half, "w": half}))
    assert t2.vertices == frozenset({"v", "w"})
    assert validate_tag(two_cycle, trace_of({"v": half, "w": half}), t2) is None


def test_tag_doc_round_trip(two_cycle):
    tag = Tag.from_dict(
        {
            "v": CircleMeasure.point_mass(Fraction(1, 4)),
            "w": CircleMeasure.point_mass(Fraction(1, 4)),
        }
    )
    assert Tag.from_doc(tag_doc(tag)) == tag


def test_consistency_is_classwise(two_cycle):
    # swapping equal measures inside a class never changes the verdict
    half = Fraction(1, 2)
    uniform = trace_of({"v": half, "w": half})
    m = CircleMeasure.point_mass(Fraction(1, 6))
    t1 = Tag.from_dict({"v": m, "w": m})
    t2 = Tag.from_dict({"w": m, "v": m})
    assert validate_tag(two_cycle, uniform, t1) is None
    assert validate_tag(two_cycle, uniform, t2) is None
    assert t1 == t2
