"""Hereditary/saturated vertex sets, canonical subgraphs and tightenings.

A graph is tight when every cycle is entry-less.  Removing the saturation
of the entry-emitting vertices produces the minimal tightening, the
canonical subgraph on which trace data for the original graph lives.

Nothing here enumerates cycles: the entry edges, the cyclic vertices and
the entry emitters all follow from one strongly-connected-component pass,
the in-degrees and one reverse breadth-first search, and saturation is a
worklist over the received edges, so tightening takes O(V + E).
"""

from __future__ import annotations

from .graph import Edge, Graph, GraphError, components


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
    sub = Graph(vertices, edges)
    known = graph._memo.get("strong_components")
    if known is not None:
        # H is hereditary, so a path ending in H starts in H: each component
        # lies inside H or outside it, and those outside are the subgraph's
        sub._memo["strong_components"] = tuple(c for c in known if c[0] not in H)
    return sub


def _internal_receivers(graph: Graph) -> dict[str, tuple[Edge, ...]]:
    """For each vertex, the received edges that start in its own strongly
    connected component.  A vertex lies on a cycle exactly when it has one.
    Kept in ``graph._memo``."""
    found = graph._memo.get("internal_receivers")
    if found is None:
        comp = {v: i for i, members in enumerate(components(graph)) for v in members}
        found = graph._memo["internal_receivers"] = {
            v: tuple(e for e in graph.receivers(v) if comp[e.src] == comp[v])
            for v in graph.vertices
        }
    return found


def entry_edges(graph: Graph) -> frozenset[str]:
    """Ids of all edges that enter some cycle without being the cycle's own edge.

    An edge f ending at v is such an entry exactly when v receives an edge
    other than f from inside its strongly connected component: that edge and
    a shortest path back to its start close a simple cycle through v.
    """
    hits: set[str] = set()
    for v, inside in _internal_receivers(graph).items():
        hits.update(
            f.id for f in graph.receivers(v) if any(g is not f for g in inside)
        )
    return frozenset(hits)


def emit_entry_set(graph: Graph) -> frozenset[str]:
    """Vertices that emit a path whose leading edge enters a cycle: the
    starts of the entry edges and everything that reaches one of them."""
    found = {graph.edge(i).src for i in entry_edges(graph)}
    frontier = list(found)
    while frontier:
        for e in graph.receivers(frontier.pop()):
            if e.src not in found:
                found.add(e.src)
                frontier.append(e.src)
    return frozenset(found)


def is_tight(graph: Graph) -> bool:
    """Every cycle is entry-less."""
    return not entry_edges(graph)


def trace_null_set(graph: Graph) -> frozenset[str]:
    """The saturation of the entry emitters: the set the minimal tightening
    removes, on which every trace vanishes."""
    return saturate(graph, emit_entry_set(graph))


def tighten_min(graph: Graph) -> tuple[Graph, frozenset[str]]:
    """Minimal tightening: quotient by the saturated entry-emitting set."""
    H = trace_null_set(graph)
    return quotient_graph(graph, H), H


def essentially_left_infinite(graph: Graph, v: str) -> bool:
    # On a finite graph the essentially left infinite vertices (infinitely
    # many mutually incomparable outgoing paths) are exactly the entry
    # emitters; the antichain census in the test suite guards the converse.
    graph.check_vertex(v)
    return v in emit_entry_set(graph)


def cycle_vertex_set(graph: Graph) -> frozenset[str]:
    """Vertices lying on some cycle."""
    return frozenset(v for v, inside in _internal_receivers(graph).items() if inside)


def auto_gauge_criterion(graph: Graph) -> bool:
    """True when every vertex on a cycle is essentially left infinite.

    Exactly then is every trace functional on the graph algebra forced to be
    gauge invariant, because no surviving cyclic vertex can carry trace mass.
    """
    return cycle_vertex_set(graph) <= emit_entry_set(graph)
