import ast
import glob
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktrace.cli import main
from cktrace.graph import (
    Edge,
    Graph,
    GraphError,
    ParseError,
    compose,
    count_paths_from,
    cyclic_structure,
    format_path,
    graph_from_doc,
    is_prefix,
    parse_graph,
    paths_up_to,
    per_graph,
    remainder,
    simple_cycles,
)
from reference import (
    entries_of,
    incomparable,
    is_diagonal,
    reaches,
    rotate_cycle,
    tightening_ref,
)


# -- oracle helpers --------------------------------------------------------


def brute_paths(graph, max_len):
    """Independent path enumeration: grow edge sequences left of the source."""
    out = [((), v, v) for v in graph.vertices]
    level = list(out)
    for _ in range(max_len):
        nxt = []
        for ids, rng, src in level:
            for e in graph.edges:
                if e.src == rng:
                    nxt.append(((e.id,) + ids, e.dst, src))
        out.extend(nxt)
        level = nxt
    return out


def is_ray_oracle(graph, path):
    """Definition check: source on a simple entry-less cycle of the minimal
    tightening, sharing no edge with it."""
    tight, removed = tightening_ref(graph)
    if path.source in removed:
        return False
    for cyc in simple_cycles(tight):
        if entries_of(tight, cyc):
            continue
        if path.source not in {tight.edge(i).dst for i in cyc.edges}:
            continue
        if not set(path.edges) & set(cyc.edges):
            return True
    return False


# -- parsing ---------------------------------------------------------------


def test_parse_loop_graph():
    g = parse_graph('{"vertices": ["v"], "edges": [{"id":"e","src":"v","dst":"v"}]}')
    assert len(g.vertices) == 1
    assert len(g.edges) == 1


def test_parse_two_loops():
    doc = {
        "vertices": ["v"],
        "edges": [
            {"id": "e1", "src": "v", "dst": "v"},
            {"id": "e2", "src": "v", "dst": "v"},
        ],
    }
    g = parse_graph(json.dumps(doc))
    assert len(g.edges) == 2


def test_parse_rejects_dangling_vertex():
    doc = {"vertices": ["v"], "edges": [{"id": "f", "src": "x", "dst": "v"}]}
    with pytest.raises(ParseError, match="'x'"):
        parse_graph(json.dumps(doc))


def test_parse_rejects_duplicates():
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph('{"vertices": ["v", "v"], "edges": []}')
    doc = {
        "vertices": ["v"],
        "edges": [
            {"id": "e", "src": "v", "dst": "v"},
            {"id": "e", "src": "v", "dst": "v"},
        ],
    }
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph(json.dumps(doc))


def test_graph_checks_ids_before_sorting_them():
    """A non-string id among string ones is a GraphError naming it, not the
    TypeError sorting the ids would raise."""
    with pytest.raises(GraphError, match=r"^invalid vertex id 1$"):
        Graph([1, "a"], [])
    with pytest.raises(GraphError, match=r"^invalid edge id 1$"):
        Graph(["v"], [Edge("a", "v", "v"), Edge(1, "v", "v")])
    with pytest.raises(GraphError, match=r"^invalid vertex id ''$"):
        Graph(["b", "", "a"], [])


def test_graph_reports_the_first_problem_in_id_order():
    with pytest.raises(GraphError, match=r"^duplicate vertex id 'a'$"):
        Graph(["b", "a", "b", "a"], [Edge("", "a", "a")])
    # edge a's undeclared vertex comes before the duplicate edge id b
    edges = [Edge("b", "v", "v"), Edge("b", "v", "v"), Edge("a", "v", "x")]
    with pytest.raises(GraphError, match="undeclared vertex 'x'"):
        Graph(["v"], edges)
    with pytest.raises(GraphError, match=r"^duplicate edge id 'b'$"):
        Graph(["v"], edges[:2])


def test_parse_rejects_garbage():
    with pytest.raises(ParseError, match="malformed"):
        parse_graph("{not json")


@pytest.mark.parametrize("bad", ["a.b", "a|b", "@a", "@", ".", "|"])
def test_parse_rejects_unaddressable_ids(bad):
    loop = {"id": "e", "src": "v", "dst": "v"}
    with pytest.raises(ParseError, match="path literal"):
        parse_graph(json.dumps({"vertices": [bad], "edges": []}))
    with pytest.raises(ParseError, match="path literal"):
        parse_graph(json.dumps({"vertices": ["v"], "edges": [dict(loop, id=bad)]}))


@pytest.mark.parametrize("field", ["id", "src", "dst"])
@pytest.mark.parametrize("value", [1, 2.5, None, True, ["v"], {"v": 1}])
def test_parse_rejects_non_string_edge_fields(field, value):
    edge = {"id": "e", "src": "v", "dst": "v", field: value}
    with pytest.raises(ParseError, match="string"):
        parse_graph(json.dumps({"vertices": ["v"], "edges": [edge]}))


def test_parse_accepts_ids_with_other_punctuation():
    doc = {"vertices": ["v-1", "w@2"], "edges": [{"id": "e_1", "src": "v-1", "dst": "w@2"}]}
    g = parse_graph(json.dumps(doc))
    assert g.parse_path("e_1").source == "v-1"
    assert g.parse_path("@w@2").range == "w@2"


def test_serialize_round_trip(line3, loop_with_entry):
    for g in (line3, loop_with_entry):
        again = graph_from_doc(g.to_doc())
        assert again == g
        assert again.to_doc() == g.to_doc()


# -- vertex classification ---------------------------------------------------


def _vertex_kinds(graph, tmp_path, capsys):
    """The ``vertex_kinds`` of the ``analyze`` report on the graph."""
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph.to_doc()))
    assert main(["analyze", str(path)]) == 0
    return json.loads(capsys.readouterr().out)["vertex_kinds"]


def test_classify_vertices(loop_graph, line3, tmp_path, capsys):
    assert _vertex_kinds(loop_graph, tmp_path, capsys)["v"] == "regular"
    kinds = _vertex_kinds(line3, tmp_path, capsys)
    assert kinds["v3"] == "source-singular"
    assert kinds["v1"] == "regular"
    with pytest.raises(GraphError):
        line3.is_regular("nope")


# -- path algebra -------------------------------------------------------------


def test_compose_loop(loop_graph):
    e = loop_graph.edge_path("e")
    ee = compose(e, e)
    assert ee.edges == ("e", "e")
    assert format_path(ee) == "e.e"


def test_prefix_and_remainder(line3):
    a = line3.edge_path("a")
    ab = line3.parse_path("a.b")
    assert is_prefix(a, ab)
    assert remainder(ab, a) == line3.edge_path("b")


def test_prefix_fails_on_different_lead(two_loops):
    e1 = two_loops.edge_path("e1")
    e2e1 = two_loops.parse_path("e2.e1")
    assert not is_prefix(e1, e2e1)
    with pytest.raises(GraphError):
        remainder(e2e1, e1)


def test_compose_requires_matching_endpoint(line3):
    a = line3.edge_path("a")
    with pytest.raises(GraphError):
        compose(a, a)


def test_trivial_path_prefixes(line3):
    t = line3.trivial_path("v1")
    a = line3.edge_path("a")
    assert is_prefix(t, a)
    assert remainder(a, t) == a
    assert remainder(a, a) == line3.trivial_path("v2")


def test_incomparable(two_loops, loop_graph):
    assert incomparable(two_loops.edge_path("e1"), two_loops.edge_path("e2"))
    e = loop_graph.edge_path("e")
    assert not incomparable(e, compose(e, e))
    assert not incomparable(e, e)


@given(st.data())
@settings(max_examples=60)
def test_compose_associative(data):
    g = Graph(
        ["v", "w"],
        [Edge("a", "v", "w"), Edge("b", "w", "v"), Edge("c", "v", "v")],
    )
    pool = paths_up_to(g, 3)
    lam = data.draw(st.sampled_from(pool))
    mus = [p for p in pool if p.range == lam.source]
    if not mus:
        return
    mu = data.draw(st.sampled_from(mus))
    nus = [p for p in pool if p.range == mu.source]
    if not nus:
        return
    nu = data.draw(st.sampled_from(nus))
    assert compose(compose(lam, mu), nu) == compose(lam, compose(mu, nu))
    assert compose(lam, mu).range == lam.range
    assert compose(lam, mu).source == mu.source


def test_prefix_antisymmetry(loop_graph):
    pool = paths_up_to(loop_graph, 4)
    for lam in pool:
        for sig in pool:
            if is_prefix(lam, sig) and is_prefix(sig, lam):
                assert lam == sig
            if is_prefix(lam, sig):
                assert len(lam) <= len(sig)


# -- enumeration vs oracle -----------------------------------------------------


def test_paths_up_to_matches_brute(line3, two_loops, figure_eight):
    for g in (line3, two_loops, figure_eight):
        got = {(p.edges, p.range, p.source) for p in paths_up_to(g, 3)}
        assert got == set(brute_paths(g, 3))


def test_count_paths_matches_enumeration(figure_eight):
    for n in range(-1, 5):
        for v in figure_eight.vertices:
            listed = [p for p in paths_up_to(figure_eight, n) if p.source == v]
            assert count_paths_from(figure_eight, v, n) == len(listed)


def test_boundary_extension(line3, loop_with_entry, figure_eight):
    # iterated source-side extension never dead-ends: it either stops at a
    # non-receiving vertex or runs into a cycle within |vertices| steps
    for g in (line3, loop_with_entry, figure_eight):
        for p in paths_up_to(g, 3):
            current = p
            seen = {current.source}
            for _ in range(len(g.vertices) + 1):
                incoming = g.receivers(current.source)
                if not incoming:
                    break
                current = compose(current, g.edge_path(incoming[0].id))
                if current.source in seen:
                    break  # entered a cycle
                seen.add(current.source)
            else:
                raise AssertionError(f"extension search did not settle for {p}")


# -- cycles ---------------------------------------------------------------------


def test_simple_cycles_basic(line3, loop_graph, two_loops, two_cycle):
    assert simple_cycles(line3) == []
    assert [c.edges for c in simple_cycles(loop_graph)] == [("e",)]
    assert [c.edges for c in simple_cycles(two_loops)] == [("e1",), ("e2",)]
    assert [c.edges for c in simple_cycles(two_cycle)] in ([("a", "b")], [("b", "a")])


def test_simple_cycles_excludes_composites(two_loops):
    # e1.e2 revisits v, so only the two loops count as simple
    assert len(simple_cycles(two_loops)) == 2


def test_entries(loop_graph, two_loops, loop_with_entry):
    assert entries_of(loop_graph, loop_graph.edge_path("e")) == frozenset()
    assert entries_of(two_loops, two_loops.edge_path("e1")) == frozenset({"e2"})
    assert entries_of(loop_with_entry, loop_with_entry.edge_path("e")) == frozenset({"f"})


def test_entries_rotation_invariant(two_cycle, figure_eight):
    for g in (two_cycle, figure_eight):
        for cyc in simple_cycles(g):
            base_entries = entries_of(g, cyc)
            for v in {g.edge(i).dst for i in cyc.edges}:
                assert entries_of(g, rotate_cycle(g, cyc, v)) == base_entries


def test_rotate_cycle(two_cycle):
    cyc = simple_cycles(two_cycle)[0]
    rot_v = rotate_cycle(two_cycle, cyc, "v")
    rot_w = rotate_cycle(two_cycle, cyc, "w")
    assert rot_v.source == rot_v.range == "v"
    assert rot_w.source == rot_w.range == "w"
    assert len(rot_v) == len(rot_w) == 2
    assert set(rot_v.edges) == set(rot_w.edges)


# -- cyclic structure and rays ---------------------------------------------------


def test_cyclic_structure(two_loops, loop_graph, two_cycle):
    assert cyclic_structure(two_loops).cycle_at == {}
    s = cyclic_structure(loop_graph)
    assert s.cycle_at.keys() == {"v"}
    assert s.classes == (("v",),)
    s2 = cyclic_structure(two_cycle)
    assert s2.cycle_at.keys() == {"v", "w"}
    assert s2.classes == (("v", "w"),)


def test_cyclic_classes_share_cycle_length(two_cycle):
    s = cyclic_structure(two_cycle)
    lengths = {len(c) for c in s.cycle_at.values()}
    assert lengths == {2}


def rays(graph, max_len):
    """(ray, seed) of the cyclic forms of the normal off-diagonal monomials
    with paths up to max_len, one per ray, sorted by ray: a ray r appears
    once r followed by its seed fits the bound."""
    from cktrace.monomials import ZERO, cyclic_form, expect_core, monomials

    found = {}
    for x in monomials(graph, max_len):
        if not is_diagonal(x) and expect_core(graph, x) != ZERO:
            form = cyclic_form(graph, x)
            found[form.ray] = form.seed
    return sorted(found.items(), key=lambda item: item[0].sort_key())


def test_rays_loop(loop_graph):
    got = rays(loop_graph, 3)
    assert len(got) == 1
    assert got[0][0] == loop_graph.trivial_path("v")
    assert got[0][1].edges == ("e",)


def test_rays_two_cycle(two_cycle):
    got = rays(two_cycle, 2)
    assert [ray for ray, _ in got] == [
        two_cycle.trivial_path("v"),
        two_cycle.trivial_path("w"),
    ]


def test_rays_acyclic(line3):
    assert rays(line3, 5) == []


def test_rays_match_definition_and_incomparable(figure_eight, loop_with_entry, two_cycle):
    for g in (figure_eight, loop_with_entry, two_cycle):
        got = [ray for ray, _ in rays(g, 3)]
        for ray in got:
            assert is_ray_oracle(g, ray)
        cycle_at = cyclic_structure(tightening_ref(g)[0]).cycle_at
        listed = [
            p for p in paths_up_to(g, 3)
            if is_ray_oracle(g, p) and len(p) + len(cycle_at[p.source]) <= 3
        ]
        assert sorted(r.sort_key() for r in got) == sorted(p.sort_key() for p in listed)
        for i, r1 in enumerate(got):
            for r2 in got[i + 1:]:
                assert incomparable(r1, r2)


def test_rays_figure_eight(figure_eight):
    # the connector c enters w's loop, so the minimal tightening removes v
    # and keeps w's loop as its one class; rays start at w and avoid edge q,
    # and w emits nothing else
    got = [ray for ray, _ in rays(figure_eight, 3)]
    assert {ray.source for ray in got} == {"w"}
    for ray in got:
        assert "q" not in ray.edges
    assert {format_path(ray) for ray in got} == {"@w"}


# -- reachability ------------------------------------------------------------------


def test_reaches(line3, loop_with_entry):
    assert reaches(line3, "v3", "v1")
    assert reaches(line3, "v1", "v1")
    assert not reaches(line3, "v1", "v3")
    assert not reaches(loop_with_entry, "v", "u")
    assert reaches(loop_with_entry, "u", "v")


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_document_round_trip_on_random_graphs(seed):
    from cktrace.fuzz import random_graph
    import random as _random

    g = random_graph(_random.Random(seed))
    again = graph_from_doc(g.to_doc())
    assert again == g
    assert again.to_doc() == g.to_doc()


# -- the per-graph memo --------------------------------------------------------------


def test_per_graph_builds_once_per_graph_and_arguments(loop_graph):
    built = []

    @per_graph("probe")
    def probe(graph, *args):
        """Counts its builds."""
        built.append(args)
        return len(built)

    assert probe.__name__ == "probe" and probe.__doc__ == "Counts its builds."
    assert probe(loop_graph) == probe(loop_graph) == 1
    assert probe(loop_graph, 2) == probe(loop_graph, 2) == 2
    assert loop_graph._memo["probe"] == 1 and loop_graph._memo[("probe", 2)] == 2
    twin = Graph(loop_graph.vertices, loop_graph.edges)
    assert probe(twin) == 3
    assert built == [(), (2,), ()]


def test_only_graph_module_names_the_memo():
    """Every per-graph fact is kept by ``per_graph``; no other module of the
    package reads or writes a graph's memo."""
    import cktrace

    naming = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(cktrace.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        if any(isinstance(node, ast.Attribute) and node.attr == "_memo"
               or isinstance(node, ast.Name) and node.id == "_memo"
               for node in ast.walk(tree)):
            naming.append(os.path.basename(path))
    assert naming == ["graph.py"]


# -- one name and one keeper per fact ------------------------------------------------


def test_graph_keeps_no_cached_property():
    """A graph builds its adjacency when it is made; ``per_graph`` is the one
    lazy keeper of its facts."""
    from functools import cached_property

    lazy = [name for klass in Graph.__mro__ for name, value in vars(klass).items()
            if isinstance(value, cached_property)]
    assert lazy == []


def test_new_graph_has_its_adjacency_and_memo():
    g = Graph(["v", "w"], [Edge("b", "w", "v"), Edge("a", "v", "w"), Edge("c", "v", "v")])
    built = vars(g)
    assert built["_edge_map"] == {"a": Edge("a", "v", "w"), "b": Edge("b", "w", "v"),
                                  "c": Edge("c", "v", "v")}
    assert built["_receivers"] == {"v": (Edge("b", "w", "v"), Edge("c", "v", "v")),
                                   "w": (Edge("a", "v", "w"),)}
    assert built["_emitters"] == {"v": (Edge("a", "v", "w"), Edge("c", "v", "v")),
                                  "w": (Edge("b", "w", "v"),)}
    assert built["_memo"] == {}
    assert Graph([], [])._receivers == {}


def test_each_structural_fact_has_one_name():
    """The component list is ``strong_components`` alone, and the entry
    edges and the vertices on a cycle are read as fields of the cyclic
    structure, with no function of their own."""
    from cktrace import graph, structure

    for module in (graph, structure):
        for name in ("components", "entry_edges", "cycle_vertex_set"):
            assert not hasattr(module, name), (module.__name__, name)
