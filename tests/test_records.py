"""The package's value types: equality, hash, repr, immutability, defaults.

The expected reprs are the text these types printed when they were frozen
dataclasses; reports and error messages must not notice the difference.
"""

from fractions import Fraction

import pytest

from cktrace.functionals import CheckResult, TraceFunctional
from cktrace.graph import CyclicStructure, Edge, Graph, GraphError, Path, cyclic_structure
from cktrace.monomials import ZERO, Monomial, cyclic_form
from cktrace.tagging import CircleMeasure, CircleValue, Tag, TagViolation, haar_tag
from cktrace.traces import GraphTrace, TraceViolation
from reference import circle_value


def _two_cycle() -> Graph:
    return Graph(["v", "w"], [Edge("a", "v", "w"), Edge("b", "w", "v")])


def _half() -> GraphTrace:
    return GraphTrace.from_values({"v": Fraction(1, 2), "w": Fraction(1, 2)})


def _measure() -> CircleMeasure:
    return CircleMeasure(Fraction(1, 2), [(Fraction(1, 3), Fraction(1, 2))])


def _monomial() -> Monomial:
    g = _two_cycle()
    return Monomial(g.path(["a", "b"]), g.trivial_path("w"))


def _functional() -> TraceFunctional:
    return TraceFunctional(_two_cycle(), _half(), haar_tag(_two_cycle(), _half()))


# One builder per hashable record type; each call builds a fresh, equal object.
BUILDERS = {
    "Edge": lambda: Edge("e", "v", "w"),
    "Graph": _two_cycle,
    "Path": lambda: Path(("a", "b"), "w", "w"),
    "GraphTrace": _half,
    "TraceViolation": lambda: TraceViolation("v", Fraction(1), Fraction(1, 2), True),
    "CircleMeasure": _measure,
    "Tag": lambda: Tag.from_dict({"v": _measure()}),
    "TagViolation": lambda: TagViolation("domain", ("v",), "missing measures for ['v']"),
    "Monomial": _monomial,
    "CyclicForm": lambda: cyclic_form(_two_cycle(), _monomial()),
    "CheckResult": lambda: CheckResult("gram", True, detail="min eigenvalue 0.000e+00", checked=6),
    "TraceFunctional": _functional,
}

# Every record kind: the hashable ones of BUILDERS and two that are not.
RECORDS = dict(
    BUILDERS,
    CyclicStructure=lambda: cyclic_structure(_two_cycle()),
    CircleValue=lambda: circle_value([(Fraction(1, 3), 1)]),
)

REPRS = {
    "Edge": "Edge(id='e', src='v', dst='w')",
    "Graph": "Graph(vertices=('v', 'w'), edges=(Edge(id='a', src='v', dst='w'), "
    "Edge(id='b', src='w', dst='v')))",
    "Path": "Path(edges=('a', 'b'), range='w', source='w')",
    "GraphTrace": "GraphTrace(entries=(('v', Fraction(1, 2)), ('w', Fraction(1, 2))))",
    "TraceViolation": "TraceViolation(vertex='v', lhs=Fraction(1, 1), rhs=Fraction(1, 2), "
    "equality_required=True)",
    "CircleMeasure": "CircleMeasure(haar=Fraction(1, 2), atoms=((Fraction(1, 3), Fraction(1, 2)),))",
    "Tag": "Tag(measures=(('v', CircleMeasure(haar=Fraction(1, 2), "
    "atoms=((Fraction(1, 3), Fraction(1, 2)),))),))",
    "TagViolation": "TagViolation(kind='domain', vertices=('v',), message=\"missing measures for ['v']\")",
    "Monomial": "Monomial(left=Path(edges=('a', 'b'), range='w', source='w'), "
    "right=Path(edges=(), range='w', source='w'))",
    "CyclicForm": "CyclicForm(ray=Path(edges=(), range='w', source='w'), "
    "seed=Path(edges=('a', 'b'), range='w', source='w'), power=1)",
    "CheckResult": "CheckResult(name='gram', passed=True, witness=None, "
    "detail='min eigenvalue 0.000e+00', checked=6)",
}
REPRS["TraceFunctional"] = (
    "TraceFunctional(graph=" + REPRS["Graph"] + ", trace=" + REPRS["GraphTrace"] + ", "
    "tag=Tag(measures=(('v', CircleMeasure(haar=Fraction(1, 1), atoms=())), "
    "('w', CircleMeasure(haar=Fraction(1, 1), atoms=())))))"
)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_equal_fields_give_equal_objects_and_hashes(kind):
    a, b = BUILDERS[kind](), BUILDERS[kind]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_records_are_immutable(kind):
    record = RECORDS[kind]()
    field = next(iter(vars(record)))  # the first field
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)
    with pytest.raises(AttributeError):
        delattr(record, field)


@pytest.mark.parametrize("kind", sorted(REPRS))
def test_repr_is_the_field_listing(kind):
    assert repr(BUILDERS[kind]()) == REPRS[kind]


def test_unequal_fields_or_types_compare_unequal():
    assert Edge("e", "v", "w") != Edge("e", "w", "v")
    assert Path(("a",), "w", "v") != Path(("b",), "w", "v")
    assert ZERO != Monomial(Path((), "v", "v"), Path((), "v", "v"))
    # equality needs the same type, as it did for the dataclasses
    assert Edge("e", "v", "w") != ("e", "v", "w")
    assert CheckResult("gram", True) != CheckResult("gram", False)


def test_cyclic_structure_keys_its_cycles_by_the_cyclic_vertices():
    """The cyclic vertices are the keys of ``cycle_at``, kept in no other field."""
    assert CyclicStructure._fields == ("classes", "cycle_at", "entries")
    assert cyclic_structure(_two_cycle()).cycle_at.keys() == {"v", "w"}


def test_cyclic_structure_repr_and_unhashable_map():
    struct = cyclic_structure(Graph(["v"], [Edge("e", "v", "v")]))
    assert repr(struct) == (
        "CyclicStructure(classes=(('v',),), "
        "cycle_at={'v': Path(edges=('e',), range='v', source='v')}, "
        "entries=frozenset())"
    )
    assert struct == CyclicStructure(struct.classes, dict(struct.cycle_at), struct.entries)
    with pytest.raises(TypeError):  # cycle_at is a dict
        hash(struct)


def test_monomial_rejects_paths_with_different_sources():
    g = _two_cycle()
    with pytest.raises(GraphError, match="different sources"):
        Monomial(g.path(["a", "b"]), g.trivial_path("v"))
    with pytest.raises(GraphError, match="must both be present or both absent"):
        Monomial(g.trivial_path("v"), None)
    assert Monomial(None, None) == ZERO


def test_check_result_keyword_defaults():
    result = CheckResult("ck", True)
    assert (result.witness, result.detail, result.checked) == (None, None, 0)
    result = CheckResult(name="ck", passed=False, checked=3, witness="x")
    assert (result.name, result.passed, result.witness, result.detail, result.checked) == (
        "ck", False, "x", None, 3
    )
    assert repr(CheckResult("gram", True)) == (
        "CheckResult(name='gram', passed=True, witness=None, detail=None, checked=0)"
    )


def test_trace_functionals_never_share_value_caches():
    first, second = _functional(), _functional()
    assert first == second
    assert first._values is not second._values
    first.value(_monomial())
    assert len(first._values) == 2 and second._values == {0: CircleValue(())}


def test_a_refused_assignment_leaves_a_functionals_values():
    """On the loop with trace 1 and a point mass at 1/3, e|@v has value
    1*z(1/3).  A Haar tag assigned over the filled cache would have kept
    that value where a fresh Haar functional gives 0; the assignment is
    refused, and the functional keeps its tag and its values."""
    g = Graph(["v"], [Edge("e", "v", "v")])
    trace = GraphTrace.from_values({"v": 1})
    point_mass = Tag.from_dict({"v": CircleMeasure.point_mass(Fraction(1, 3))})
    haar = Tag.from_dict({"v": CircleMeasure.haar_measure()})
    x = Monomial(g.path(["e"]), g.trivial_path("v"))
    fn = TraceFunctional(g, trace, point_mass)
    assert fn.value(x) == circle_value([(Fraction(1, 3), 1)])
    with pytest.raises(AttributeError):
        fn.tag = haar
    with pytest.raises(AttributeError):
        fn._values = {}
    assert fn.tag == point_mass
    assert fn.value(x) == circle_value([(Fraction(1, 3), 1)])
    assert TraceFunctional(g, trace, haar).value(x) == CircleValue(())


def test_circle_values_stay_unhashable():
    value = circle_value([(Fraction(1, 2), 1), (Fraction(0), 1)])
    assert value == CircleValue(())  # z(1/2) + 1 is the number zero
    assert repr(value) == "CircleValue(terms=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 2), Fraction(1, 1))))"
    with pytest.raises(TypeError):
        hash(value)
    with pytest.raises(AttributeError):
        value.terms = ()


def test_cached_maps_survive_immutability():
    g = _two_cycle()
    assert g.edge("a") == Edge("a", "v", "w")  # built in __init__, past __setattr__
    assert _half()["v"] == Fraction(1, 2)
    assert Tag.from_dict({"v": _measure()})["v"] == _measure()


def _class_and_fields(kind):
    record = RECORDS[kind]()
    return type(record), tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_fields_by_position_or_by_name_build_equal_records(kind):
    cls, args = _class_and_fields(kind)
    named = dict(zip(cls._fields, args))
    assert cls(*args) == cls(**named) == cls(*args[:1], **dict(list(named.items())[1:]))


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_each_field_must_be_given_exactly_once(kind):
    cls, args = _class_and_fields(kind)
    first, rest = cls._fields[0], dict(zip(cls._fields[1:], args[1:]))
    with pytest.raises(TypeError):  # too many positional arguments
        cls(*args, None)
    with pytest.raises(TypeError):  # the first field missing
        cls(**rest)
    if cls not in (CheckResult, CircleMeasure):  # the ones with defaults
        with pytest.raises(TypeError):  # the last field missing
            cls(*args[:-1])
    with pytest.raises(TypeError):  # an unknown keyword
        cls(*args, unknown=None)
    with pytest.raises(TypeError):  # the first field both by position and by name
        cls(*args, **{first: args[0]})


def test_record_hashes_are_those_of_the_field_tuples():
    """Sets and dicts of paths and monomials keep the order they had when
    both classes hashed these tuples themselves."""
    path = Path(("a", "b"), "w", "w")
    assert hash(path) == hash((("a", "b"), "w", "w"))
    x = _monomial()
    assert hash(x) == hash((x.left, x.right))
    assert hash(ZERO) == hash((None, None))
    assert hash(GraphTrace(_half().entries)) == hash(_half().entries)  # one field: itself
