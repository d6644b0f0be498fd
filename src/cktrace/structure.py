"""Hereditary/saturated vertex sets, canonical subgraphs and tightenings.

A graph is tight when every cycle is entry-less.  Removing the saturation
of the entry-emitting vertices produces the minimal tightening, the
canonical subgraph on which trace data for the original graph lives.

Nothing here enumerates cycles or searches the graph: the entry edges and
the entry-less cycles are fields of the cyclic structure, and the entry
emitters are one sweep over the strongly connected components, downstream
first.  Saturation is a worklist over the received edges, so tightening
takes O(V + E).  The emitters and their saturation are kept with the graph.
"""

from __future__ import annotations

from .graph import (CyclicStructure, Graph, GraphError, cyclic_structure, per_graph,
                    strong_components)


def is_hereditary(graph: Graph, H: frozenset[str]) -> bool:
    """Closed under passing from an edge's endpoint to its start."""
    return all(e.src in H for e in graph.edges if e.dst in H)


def is_saturated(graph: Graph, H: frozenset[str]) -> bool:
    """Contains every regular vertex all of whose received edges start in H."""
    for v in graph.vertices:
        if v in H:
            continue
        incoming = graph.receivers(v)
        if incoming and all(e.src in H for e in incoming):
            return False
    return True


def saturate(graph: Graph, H: frozenset[str]) -> frozenset[str]:
    """Smallest saturated superset: a regular vertex joins once all its
    received edges start inside.  A worklist keeps, per vertex, the count of
    received edges starting outside, so each edge is looked at twice at most.
    Preserves hereditarity."""
    for v in H:
        graph.check_vertex(v)
    closed = set(H)
    outside = {
        v: sum(1 for e in graph.receivers(v) if e.src not in closed)
        for v in graph.vertices
        if v not in closed
    }
    ready = [v for v, n in outside.items() if not n and graph.receivers(v)]
    while ready:
        u = ready.pop()
        closed.add(u)
        for e in graph.emitters(u):
            if e.dst not in closed:
                outside[e.dst] -= 1
                if not outside[e.dst]:
                    ready.append(e.dst)
    return frozenset(closed)


def quotient_graph(graph: Graph, H: frozenset[str]) -> Graph:
    """Subgraph on the complement of H, keeping edges whose start survives."""
    for v in H:
        graph.check_vertex(v)
    if not is_hereditary(graph, H):
        raise GraphError("cannot form subgraph: vertex set is not hereditary")
    if not is_saturated(graph, H):
        raise GraphError("cannot form subgraph: vertex set is not saturated")
    vertices = [v for v in graph.vertices if v not in H]
    edges = [e for e in graph.edges if e.src not in H]
    return Graph(vertices, edges)


@per_graph("emit_entry_set")
def emit_entry_set(graph: Graph) -> frozenset[str]:
    """Vertices that emit a path whose leading edge enters a cycle: the
    starts of the entry edges and everything that reaches one of them.

    One sweep over the components, downstream first: a component is marked
    when one of its vertices starts an entry edge or emits an edge into a
    component already marked.  Kept with the graph."""
    starts = {graph.edge(i).src for i in cyclic_structure(graph).entries}
    marked: set[str] = set()
    for verts in strong_components(graph):
        if any(v in starts or any(e.dst in marked for e in graph._emitters[v])
               for v in verts):
            marked.update(verts)
    return frozenset(marked)


def is_tight(graph: Graph) -> bool:
    """Every cycle is entry-less."""
    return not cyclic_structure(graph).entries


@per_graph("trace_null_set")
def trace_null_set(graph: Graph) -> frozenset[str]:
    """The saturation of the entry emitters: the set the minimal tightening
    removes, on which every trace vanishes.  Kept with the graph."""
    return saturate(graph, emit_entry_set(graph))


def tighten_min(graph: Graph) -> tuple[Graph, frozenset[str]]:
    """Minimal tightening: quotient by the saturated entry-emitting set."""
    H = trace_null_set(graph)
    return quotient_graph(graph, H), H


def trace_structure(graph: Graph) -> CyclicStructure:
    """The cyclic structure of the minimal tightening, whose classes carry a
    tag and seed the extreme traces, read off the graph's own components:
    a path between kept vertices never enters the removed set (it is
    hereditary), on which every trace vanishes.  ``cyclic_structure`` keeps
    it with the graph."""
    removed = trace_null_set(graph)
    # nothing removed: the graph's own structure, kept once for every reader
    return cyclic_structure(graph, removed) if removed else cyclic_structure(graph)


def cyclic_support(graph: Graph, trace: GraphTrace) -> frozenset[str]:
    """Cyclic vertices of ``trace_structure`` with trace mass: a tag's domain."""
    return frozenset(v for v in trace_structure(graph).cycle_at if trace[v] != 0)


def essentially_left_infinite(graph: Graph, v: str) -> bool:
    # On a finite graph the essentially left infinite vertices (infinitely
    # many mutually incomparable outgoing paths) are exactly the entry
    # emitters; the antichain census in the test suite guards the converse.
    graph.check_vertex(v)
    return v in emit_entry_set(graph)


def auto_gauge_criterion(graph: Graph) -> bool:
    """True when every vertex on a cycle is essentially left infinite.

    Exactly then is every trace functional on the graph algebra forced to be
    gauge invariant, because no surviving cyclic vertex can carry trace mass:
    a cycle off the entry emitters is kept, a class of the minimal tightening.
    """
    return not trace_structure(graph).classes
