import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

import cktrace
from cktrace.fuzz import graph_battery, random_graph
from cktrace.graph import (Edge, Graph, GraphError, ParseError, cyclic_structure, paths_up_to,
                           simple_cycles)
from cktrace.structure import auto_gauge_criterion, tighten_min, trace_null_set, trace_structure
from cktrace.traces import (
    GraphTrace,
    char_implication_check,
    combination_value,
    cylinder_positive,
    extreme_traces,
    lift_trace,
    parse_rational,
    trace_vanishing_check,
    validate_trace,
    violation_certificate,
    witness_nongauge_trace,
)

from conftest import trace_of
from reference import (
    auto_gauge_on_cycle_ref,
    cylinder_positive_ref,
    extreme_traces_on_cycle_ref,
    extreme_traces_ref,
    in_star,
    trace_structure_ref,
    witness_nongauge_trace_ref,
)

# -- oracles -----------------------------------------------------------------


def extreme_traces_oracle(graph):
    """Independent vertex enumeration via sympy: solve each zero-pattern's
    linear system by Gauss-Jordan elimination and keep unique nonnegative
    solutions (a free parameter means the pattern is underdetermined)."""
    verts = list(graph.vertices)
    n = len(verts)
    if n == 0:
        return []
    rows, rhs = [[1] * n], [1]
    for i, v in enumerate(verts):
        incoming = graph.receivers(v)
        if incoming:
            row = [0] * n
            row[i] += 1
            for e in incoming:
                row[verts.index(e.src)] -= 1
            rows.append(row)
            rhs.append(0)
    points = set()
    for k in range(n + 1):
        for zeros in combinations(range(n), k):
            system = sympy.Matrix(rows + [[int(c == j) for c in range(n)] for j in zeros])
            try:
                sol, params = system.gauss_jordan_solve(sympy.Matrix(rhs + [0] * k))
            except ValueError:  # inconsistent
                continue
            if params.shape[0]:  # underdetermined
                continue
            vals = tuple(sympy.Rational(x) for x in sol)
            if all(x >= 0 for x in vals):
                points.add(vals)
    return sorted(points)


def random_combination(graph, rng, max_terms=3, max_len=2):
    pool = paths_up_to(graph, max_len)
    size = rng.randint(1, max_terms)
    allow_negative = rng.random() < 0.6
    terms = []
    for _ in range(size):
        num = rng.randint(-3, 3) if allow_negative else rng.randint(0, 3)
        den = rng.randint(1, 3)
        terms.append((Fraction(num, den), rng.choice(pool)))
    return terms


# -- validation -----------------------------------------------------------------


def test_validate_examples(loop_graph, two_loops, loop_with_entry):
    assert validate_trace(loop_graph, trace_of({"v": 1})) is None
    bad = validate_trace(two_loops, trace_of({"v": 1}))
    assert bad is not None and bad.vertex == "v"
    assert bad.lhs == 1 and bad.rhs == 2
    assert validate_trace(loop_with_entry, trace_of({"v": 1, "u": 0})) is None


def test_validate_input_errors(loop_graph):
    with pytest.raises(GraphError, match="missing"):
        validate_trace(loop_graph, trace_of({}))
    with pytest.raises(GraphError, match="negative"):
        validate_trace(loop_graph, trace_of({"v": -1}))
    with pytest.raises(GraphError, match="unknown"):
        validate_trace(loop_graph, trace_of({"v": 1, "ghost": 0}))


def test_parse_rational_literals():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("2.5e-3") == Fraction(1, 400)
    assert parse_rational("1E+3") == 1000
    assert parse_rational("1e-1000") == Fraction(1, 10**1000)


@pytest.mark.parametrize(
    "text", ["1e10000000", "1e-1001", "2.5E+1_001", "1" * 1001, "x"],
    ids=["huge", "tiny", "underscores", "long", "word"],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ParseError):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1_0", "1/1_0", "0.2_5", "1e1_0"])
def test_parse_rational_rejects_underscores_on_every_version(text):
    """Fraction reads digit-group underscores from Python 3.11 on; a literal
    with one is invalid whatever the interpreter."""
    with pytest.raises(ParseError) as info:
        parse_rational(text)
    assert type(info.value) is ParseError
    assert str(info.value) == f"invalid rational literal {text!r}"


def test_inequality_at_sources():
    # a source may strictly dominate: no received edges means any value is fine
    g = Graph(["s", "t"], [Edge("e", "s", "t")])
    assert validate_trace(g, trace_of({"s": Fraction(1, 2), "t": Fraction(1, 2)})) is None
    bad = validate_trace(g, trace_of({"s": 1, "t": 0}))
    assert bad is not None and bad.vertex == "t" and bad.equality_required


# -- extreme points ----------------------------------------------------------------


def test_extreme_traces_examples(two_loops, line3, disjoint_loops):
    assert extreme_traces(two_loops) == []
    got = extreme_traces(line3)
    assert len(got) == 1
    third = Fraction(1, 3)
    assert got[0] == trace_of({"v1": third, "v2": third, "v3": third})
    got2 = extreme_traces(disjoint_loops)
    assert got2 == [trace_of({"v": 0, "w": 1}), trace_of({"v": 1, "w": 0})]


def test_extreme_traces_empty_graph():
    assert extreme_traces(Graph([], [])) == []


def test_extreme_traces_match_sympy_oracle(line3, disjoint_loops, figure_eight, loop_with_entry):
    small_battery = graph_battery(seed=23, count=10, max_vertices=4, max_edges=5)
    # the acceptance battery: up to 6 vertices, tight or not
    acceptance_battery = graph_battery(seed=20260810, count=100, max_vertices=6)
    fixtures = [line3, disjoint_loops, figure_eight, loop_with_entry]
    for g in fixtures + small_battery + acceptance_battery:
        expected = extreme_traces_oracle(g)
        got = [tuple(t[v] for v in g.vertices) for t in extreme_traces(g)]
        assert sorted(got) == expected, g


def test_extreme_traces_need_no_lift_or_validation(monkeypatch):
    """The censuses are taken on the input graph: nothing is lifted from
    the tightening, and nothing needs validating."""
    import cktrace.traces as traces_module

    def refuse(*args):
        raise AssertionError("extreme_traces lifted or validated a trace")

    expected = [extreme_traces(g) for g in graph_battery(seed=29, count=25)]
    monkeypatch.setattr(traces_module, "lift_trace", refuse)
    monkeypatch.setattr(traces_module, "validate_trace", refuse)
    assert [extreme_traces(g) for g in graph_battery(seed=29, count=25)] == expected
    assert any(tighten_min(g)[1] and points for g, points in
               zip(graph_battery(seed=29, count=25), expected))


def test_censuses_convert_each_nonzero_count_once(monkeypatch):
    """A census makes one Fraction per nonzero count and shares one zero;
    nothing converts a value again on its way into the trace."""
    import cktrace.traces as traces_module

    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    g = in_star(1000)
    monkeypatch.setattr(traces_module, "Fraction", counting)
    points = extreme_traces(g)
    nonzero = sum(1 for point in points for _, x in point.entries if x)
    assert (len(points), nonzero) == (999, 2 * 999)
    assert len(made) <= nonzero + len(points)


@pytest.mark.parametrize("seed", [20260810, 1, 2, 3])
def test_extreme_traces_match_the_tightened_reference(seed):
    """Seeds read off the input graph give the points that the seeds of the
    minimal tightening, built as a graph of its own, give."""
    for g in graph_battery(seed, 200):
        assert extreme_traces(g) == extreme_traces_ref(g)


def _outcome(build, *args):
    try:
        return build(*args)
    except GraphError as exc:
        return str(exc)


def test_trace_data_matches_the_tightened_references():
    """On the four batteries and 300 larger random graphs, the trace data
    read off the input graph's one component pass equals the bodies that
    built the minimal tightening as a graph, seeded from the input graph's
    cycles, validated the witness afterwards and compared the vertices on a
    cycle with the entry emitters; each simple cycle's witness, or its
    error, is the same."""
    rng = random.Random(1)
    corpus = [g for seed in (20260810, 1, 2, 3) for g in graph_battery(seed, 200)]
    corpus += [random_graph(rng, 12, 24) for _ in range(300)]
    witnesses = errors = non_tight = class_removed = 0
    for g in corpus:
        assert trace_structure(g) == trace_structure_ref(g)
        assert auto_gauge_criterion(g) == auto_gauge_on_cycle_ref(g)
        assert extreme_traces(g) == extreme_traces_on_cycle_ref(g)
        for cycle in simple_cycles(g):
            got = _outcome(witness_nongauge_trace, g, cycle)
            assert got == _outcome(witness_nongauge_trace_ref, g, cycle)
            witnesses += isinstance(got, GraphTrace)
            errors += isinstance(got, str)
        removed = trace_null_set(g)
        non_tight += bool(removed)
        class_removed += any(c[0] in removed for c in cyclic_structure(g).classes)
    assert (len(corpus), non_tight, class_removed) == (1100, 413, 59)
    assert (witnesses, errors) == (546, 2988)


def test_extreme_traces_are_valid_normalized_vanishing():
    for g in graph_battery(seed=29, count=25):
        for t in extreme_traces(g):
            assert validate_trace(g, t) is None
            assert t.total() == 1
            assert trace_vanishing_check(g, t)


def test_extreme_traces_affinely_independent():
    for g in graph_battery(seed=31, count=25):
        points = extreme_traces(g)
        if not (2 <= len(points) <= 6):
            continue
        vectors = [tuple(t[v] for v in g.vertices) for t in points]
        for i, target in enumerate(vectors):
            others = [vec for j, vec in enumerate(vectors) if j != i]
            # target must not be a convex combination of the others: solve exactly
            syms = sympy.symbols(f"c0:{len(others)}", nonnegative=True)
            eqs = [sympy.Eq(sum(syms), 1)]
            for k in range(len(target)):
                eqs.append(sympy.Eq(sum(c * o[k] for c, o in zip(syms, others)), target[k]))
            sol = sympy.solve(eqs, syms, dict=True)
            feasible = [
                s
                for s in sol
                if all(val.is_number and val >= 0 for val in s.values())
                and len(s) == len(others)
            ]
            assert not feasible, (g, target)


# -- cylinder positivity -------------------------------------------------------------


def test_cylinder_positive_examples(two_loops, line3):
    v = two_loops.trivial_path("v")
    e1, e2 = two_loops.edge_path("e1"), two_loops.edge_path("e2")
    assert cylinder_positive(two_loops, [(Fraction(1), v), (Fraction(-1), e1), (Fraction(-1), e2)])
    assert not cylinder_positive(two_loops, [(Fraction(1), e1), (Fraction(-1), v)])
    v1 = line3.trivial_path("v1")
    a = line3.edge_path("a")
    assert cylinder_positive(line3, [(Fraction(1), v1), (Fraction(-1), a)])


def test_cylinder_positive_rejects_foreign_paths(line3, loop_graph):
    with pytest.raises(GraphError):
        cylinder_positive(line3, [(Fraction(1), loop_graph.edge_path("e"))])


def test_cylinder_positive_matches_bruteforce():
    rng = random.Random(41)
    for g in graph_battery(seed=37, count=12, max_vertices=4, max_edges=6):
        for _ in range(40):
            terms = random_combination(g, rng)
            assert cylinder_positive(g, terms) == cylinder_positive_ref(g, terms, slack=2)


def test_cylinder_positive_matches_enumeration():
    """The prefix-tree verdict equals the boundary enumeration's on 0-6 terms
    with paths of length up to 3, repeated and trivial paths, zero weights
    and the empty list included."""
    rng = random.Random(71)
    verdicts = []
    for seed in (37, 1, 2, 3):
        for g in graph_battery(seed, 60, max_vertices=5, max_edges=8):
            pool = paths_up_to(g, 3)
            trivial = [p for p in pool if p.is_trivial]
            for _ in range(42):
                terms = [
                    (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                     rng.choice(trivial if rng.random() < 0.2 else pool))
                    for _ in range(rng.randint(0, 6))
                ]
                if terms and rng.random() < 0.2:
                    terms.append((Fraction(rng.randint(-3, 3)), rng.choice(terms)[1]))
                verdict = cylinder_positive(g, terms)
                assert verdict == cylinder_positive_ref(g, terms), (g, terms)
                verdicts.append(verdict)
    assert len(verdicts) >= 10_000
    assert min(verdicts.count(True), verdicts.count(False)) > 2_000


# Each certificate answers in under 1 s, with no boundary path enumerated:
# on one vertex with two loops at depth 40 and 2,000 (2^depth boundary
# classes) and for a partition into 1,001 cylinders of half a million edges
# in all, and on a 2,000-vertex line fed by a loop.  The address-space cap
# keeps a search that explodes from holding the machine.
SCALE_GUARD = """
import json, resource, time
from cktrace import Edge, Graph, GraphTrace, char_implication_check, cylinder_positive
from cktrace import essentially_left_infinite, extreme_traces, trace_vanishing_check
from cktrace import violation_certificate, witness_nongauge_trace
from cktrace.traces import combination_value

resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
seconds, verdicts = {}, {}

def timed(name, call, *args):
    start = time.perf_counter()
    answer = call(*args)
    seconds[name] = time.perf_counter() - start
    return answer

g = Graph(["v"], [Edge("e1", "v", "v"), Edge("e2", "v", "v")])
for depth in (40, 2000):
    a = g.path(["e1"] * (depth - 1))  # below it: 1 - 2 = -1, unless both extensions add 1
    exposed = [(1, g.trivial_path("v")), (-2, a), (1, g.path(a.edges + ("e2",)))]
    covered = exposed + [(1, g.path(a.edges + ("e1",)))]
    verdicts[f"exposed {depth}"] = timed(f"exposed {depth}", cylinder_positive, g, exposed)
    verdicts[f"covered {depth}"] = timed(f"covered {depth}", cylinder_positive, g, covered)
    verdicts[f"implication {depth}"] = timed(
        f"implication {depth}", char_implication_check,
        g, GraphTrace.from_values({"v": 0}), covered)

# @v minus its partition into the cylinders e1^k.e2 (k < 1,000) and e1^1000;
# without the last cylinder the prefix e1^999 is exposed below e1
cylinders = [g.path(["e1"] * k + ["e2"]) for k in range(1000)] + [g.path(["e1"] * 1000)]
partition = [(-1, g.trivial_path("v"))] + [(1, c) for c in cylinders]
verdicts["partition 1000"] = timed("partition 1000", cylinder_positive, g, partition)
verdicts["gap 1000"] = timed("gap 1000", cylinder_positive, g, partition[:-1])

n = 2000
names = [f"v{i:04d}" for i in range(n)]
line = Graph(names, [Edge("e", names[0], names[0])]
             + [Edge(f"c{i:04d}", names[i - 1], names[i]) for i in range(1, n)])
(trace,) = extreme_traces(line)
longest = line.path([f"c{i:04d}" for i in range(n - 1, 0, -1)] + ["e"])
terms = [(1, line.trivial_path(names[-1])), (-1, longest)]
verdicts["positive"] = timed("positive", cylinder_positive, line, terms)
verdicts["implication"] = timed("implication", char_implication_check, line, trace, terms)
candidate = GraphTrace.from_values({**dict(trace.entries), names[-1]: 1})
cert = timed("certificate", violation_certificate, line, candidate)
verdicts["certificate"] = (combination_value(candidate, cert) < 0
                           and timed("certificate positive", cylinder_positive, line, cert))
verdicts["vanishing"] = timed("vanishing", trace_vanishing_check, line, trace)
verdicts["left infinite"] = timed("left infinite", essentially_left_infinite, line, names[-1])
verdicts["witness"] = timed("witness", witness_nongauge_trace, line, line.edge_path("e")) == trace
print(json.dumps([seconds, verdicts]))
"""


def test_certificates_answer_at_depth_and_scale():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cktrace.__file__)))
    proc = subprocess.run([sys.executable, "-c", SCALE_GUARD], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    seconds, verdicts = json.loads(proc.stdout)
    assert len(seconds) == 15 and max(seconds.values()) < 1.0, seconds
    assert verdicts == {
        "exposed 40": False, "covered 40": True, "implication 40": True,
        "exposed 2000": False, "covered 2000": True, "implication 2000": True,
        "partition 1000": True, "gap 1000": False,
        "positive": True, "implication": True, "certificate": True,
        "vanishing": True, "left infinite": False, "witness": True,
    }


def test_cylinder_positive_union_monotone():
    rng = random.Random(43)
    for g in graph_battery(seed=47, count=8, max_vertices=4, max_edges=6):
        admissible = []
        for _ in range(60):
            t = random_combination(g, rng)
            if cylinder_positive(g, t):
                admissible.append(t)
        for t1, t2 in zip(admissible, admissible[1:]):
            assert cylinder_positive(g, list(t1) + list(t2))


# -- the characterization, both directions ---------------------------------------------


def test_char_implication_examples(line3, two_loops, loop_with_entry):
    third = Fraction(1, 3)
    uniform = trace_of({"v1": third, "v2": third, "v3": third})
    terms = [(Fraction(1), line3.trivial_path("v1")), (Fraction(-1), line3.edge_path("a"))]
    assert char_implication_check(line3, uniform, terms)
    assert combination_value(uniform, terms) == 0

    candidate = trace_of({"v": 1})  # not a trace on the two-loop graph
    cert = [
        (Fraction(1), two_loops.trivial_path("v")),
        (Fraction(-1), two_loops.edge_path("e1")),
        (Fraction(-1), two_loops.edge_path("e2")),
    ]
    assert not char_implication_check(two_loops, candidate, cert)
    assert combination_value(candidate, cert) == -1

    ok = trace_of({"v": 1, "u": 0})
    terms = [
        (Fraction(1), loop_with_entry.trivial_path("v")),
        (Fraction(-1), loop_with_entry.edge_path("e")),
    ]
    assert char_implication_check(loop_with_entry, ok, terms)


def test_char_rejects_inadmissible(two_loops):
    candidate = trace_of({"v": 1})
    with pytest.raises(ValueError, match="admissible"):
        char_implication_check(
            two_loops, candidate, [(Fraction(1), two_loops.edge_path("e1")),
                                   (Fraction(-1), two_loops.trivial_path("v"))]
        )


def test_char_forward_on_random_admissible():
    rng = random.Random(53)
    for g in graph_battery(seed=59, count=10, max_vertices=5, max_edges=7):
        points = extreme_traces(g)
        if not points:
            continue
        found = 0
        for _ in range(200):
            terms = random_combination(g, rng)
            if not cylinder_positive(g, terms):
                continue
            found += 1
            for t in points:
                assert char_implication_check(g, t, terms)
        assert found > 0


def test_certificate_reverse_direction():
    rng = random.Random(61)
    for g in graph_battery(seed=67, count=15, max_vertices=5, max_edges=7):
        regulars = [v for v in g.vertices if g.is_regular(v)]
        if not regulars:
            continue
        base = extreme_traces(g)
        start = base[0] if base else trace_of({v: 1 for v in g.vertices})
        # perturb at a regular vertex to break the equality there
        v = rng.choice(regulars)
        bumped = {w: start[w] if base else Fraction(1) for w in g.vertices}
        bumped[v] = bumped[v] + Fraction(rng.randint(1, 3), rng.randint(1, 4))
        candidate = GraphTrace.from_values(bumped)
        if validate_trace(g, candidate) is None:  # bump can be absorbed at sources only
            continue
        cert = violation_certificate(g, candidate)
        assert cert is not None
        assert cylinder_positive(g, cert)
        assert combination_value(candidate, cert) < 0
        assert not char_implication_check(g, candidate, cert)


def test_certificate_none_for_valid(line3):
    third = Fraction(1, 3)
    assert violation_certificate(line3, trace_of({"v1": third, "v2": third, "v3": third})) is None


# -- lifting and vanishing ----------------------------------------------------------------


def test_lift_examples(loop_with_entry, two_loops):
    lifted = lift_trace(loop_with_entry, frozenset({"u"}), trace_of({"v": 1}))
    assert lifted == trace_of({"v": 1, "u": 0})
    assert lift_trace(loop_with_entry, frozenset(), trace_of({"v": 1, "u": 0})) == trace_of(
        {"v": 1, "u": 0}
    )
    zero = lift_trace(two_loops, frozenset({"v"}), GraphTrace(()))
    assert zero == trace_of({"v": 0})
    assert zero.total() == 0


def test_lift_rejects_invalid_subtrace(loop_with_entry):
    with pytest.raises(GraphError, match="invalid"):
        lift_trace(loop_with_entry, frozenset(), trace_of({"v": 1, "u": 1}))
    with pytest.raises(GraphError, match="negative"):
        lift_trace(loop_with_entry, frozenset({"u"}), trace_of({"v": -1}))


def test_lift_rejects_bad_sets_through_the_quotient(loop_with_entry):
    with pytest.raises(GraphError, match="cannot form subgraph: vertex set is not hereditary"):
        lift_trace(loop_with_entry, frozenset({"v"}), trace_of({"u": 1}))
    g = Graph(["x", "y"], [Edge("e", "y", "x")])  # x receives only from y
    with pytest.raises(GraphError, match="cannot form subgraph: vertex set is not saturated"):
        lift_trace(g, frozenset({"y"}), trace_of({"x": 1}))


def test_lift_checks_its_set_and_validates_once(monkeypatch, loop_with_entry):
    """The quotient checks the set, and the subgraph trace is the one trace
    validated: the zero-extension needs no second check."""
    import cktrace.structure as structure_module
    import cktrace.traces as traces_module

    calls = []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(structure_module, "is_hereditary")
    count(structure_module, "is_saturated")
    count(traces_module, "validate_trace")
    lifted = lift_trace(loop_with_entry, frozenset({"u"}), trace_of({"v": 1}))
    assert lifted == trace_of({"v": 1, "u": 0})
    assert sorted(calls) == ["is_hereditary", "is_saturated", "validate_trace"]


def test_lift_from_tightening_always_valid():
    for g in graph_battery(seed=71, count=25):
        sub, removed = tighten_min(g)
        for t in extreme_traces(sub):
            lifted = lift_trace(g, removed, t)
            assert validate_trace(g, lifted) is None
            assert lifted.total() == 1


def test_lift_over_random_saturated_hereditary_sets():
    """Zero-extension works over any saturated hereditary set, not just the
    tightening sets: hereditary closure keeps removed in-edges massless and
    saturation forbids surviving vertices fed only from the removed part."""
    from cktrace.structure import is_hereditary, is_saturated, quotient_graph, saturate

    rng = random.Random(97)
    for g in graph_battery(seed=89, count=20):
        seedset = set(rng.sample(list(g.vertices), rng.randint(0, len(g.vertices))))
        changed = True
        while changed:  # hereditary closure
            changed = False
            for e in g.edges:
                if e.dst in seedset and e.src not in seedset:
                    seedset.add(e.src)
                    changed = True
        H = saturate(g, frozenset(seedset))
        assert is_hereditary(g, H) and is_saturated(g, H)
        sub = quotient_graph(g, H)
        for t in extreme_traces(sub):
            lifted = lift_trace(g, H, t)
            assert validate_trace(g, lifted) is None


def test_vanishing_examples(two_loops, loop_with_entry, line3):
    assert trace_vanishing_check(loop_with_entry, trace_of({"v": 1, "u": 0}))
    third = Fraction(1, 3)
    assert trace_vanishing_check(line3, trace_of({"v1": third, "v2": third, "v3": third}))
    # all valid traces on the two-loop graph are zero, so the check is vacuous
    assert extreme_traces(two_loops) == []


# -- gauge witness trace --------------------------------------------------------------------


def test_witness_trace_examples(loop_graph, two_cycle, loop_with_entry):
    e = loop_graph.edge_path("e")
    assert witness_nongauge_trace(loop_graph, e) == trace_of({"v": 1})

    cyc = two_cycle.parse_path("b.a")  # cycle based at v
    half = Fraction(1, 2)
    assert witness_nongauge_trace(two_cycle, cyc) == trace_of({"v": half, "w": half})

    tight, removed = tighten_min(loop_with_entry)
    w = witness_nongauge_trace(tight, tight.edge_path("e"))
    assert w == trace_of({"v": 1})
    assert lift_trace(loop_with_entry, removed, w) == trace_of({"v": 1, "u": 0})


def test_witness_trace_rejects_left_infinite(two_loops):
    with pytest.raises(GraphError, match="left infinite"):
        witness_nongauge_trace(two_loops, two_loops.edge_path("e1"))


def test_witness_trace_requires_cycle(line3):
    with pytest.raises(GraphError, match="cycle"):
        witness_nongauge_trace(line3, line3.edge_path("a"))


def test_witness_positive_on_battery():
    for g in graph_battery(seed=73, count=30):
        sub, _ = tighten_min(g)
        from cktrace.graph import simple_cycles

        for cyc in simple_cycles(sub):
            t = witness_nongauge_trace(sub, cyc)
            assert validate_trace(sub, t) is None
            assert t[cyc.source] > 0
            assert t.total() == 1
