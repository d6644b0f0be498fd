"""Finite directed graphs and their path algebra.

Paths are written range-to-source: in the literal "e1.e2", edge e2 is
traversed first and e1 last, so the range (endpoint) of the path is the
range of e1 and the source (start) is the source of e2.  Concatenation
``compose(lam, nu)`` therefore requires ``lam.source == nu.range`` and
glues nu onto the source side of lam.

Enumeration is one level walk from the trivial paths, sorted once.  A
graph builds its adjacency when it is made.  Every cycle fact (the entry
edges, the entry-less cycles) is read off one strongly connected component
pass, listed downstream first, and ``per_graph`` keeps each such fact with
the graph, so every reader shares one computation per graph.

The package's value types (edges, paths and graphs here, traces, tags,
monomials and suite results elsewhere) are plain classes on ``Record``,
which gives them one constructor (each field once, by position or by
name), equality, hashing, repr and immutability by their fields.  A type
that checks its fields does so around ``Record.__init__``.  The standard
library's class generator would do the same, but its imports (``inspect``,
``ast``, ``dis``, ``tokenize``) would add to the start-up of every command.
"""

from __future__ import annotations

import json
import operator
import sys
from collections.abc import Iterable, Mapping
from functools import wraps
from math import isqrt


class GraphError(ValueError):
    """Structural problem in a graph, path or vertex reference.  ``kind`` is
    the class of input error the CLI reports."""

    kind = "graph"


class ParseError(GraphError):
    """Malformed graph / path / trace document."""

    kind = "parse"


class LimitError(ParseError):
    """Input beyond a size limit that keeps the work bounded."""

    kind = "limit"


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in ``_fields``.  The constructor takes each
    field exactly once, positionally in that order or by name, and raises
    TypeError for a missing, unknown or repeated one; a subclass that checks
    or converts its arguments does so around ``super().__init__``.  Assigning
    or deleting an attribute afterwards raises AttributeError.  Two records
    are equal when they are of the same class and their fields are equal;
    hash (that of the tuple of fields, or of the one field) and repr follow
    the fields as well."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            kind = type(self).__qualname__
            if len(args) > len(names):
                raise TypeError(f"{kind}() takes {len(names)} fields but {len(args)} were given")
            given = dict(zip(names, args))
            for name, value in kwargs.items():
                if name not in names:
                    raise TypeError(f"{kind}() got an unknown field {name!r}")
                if name in given:
                    raise TypeError(f"{kind}() got field {name!r} twice")
                given[name] = value
            missing = [name for name in names if name not in given]
            if missing:
                raise TypeError(f"{kind}() is missing fields {missing}")
            args = [given[name] for name in names]
        # not through self.__dict__: making the instance dict slows every later read
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Edge(Record):
    """An edge from its source vertex src to its range vertex dst."""

    _fields = ("id", "src", "dst")


class Graph(Record):
    """Immutable finite directed multigraph with canonically sorted parts."""

    _fields = ("vertices", "edges")
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        # ids are checked before sorting, which would fail on a non-string one
        vs = tuple(vertices)
        for v in vs:
            if not isinstance(v, str) or not v:
                raise GraphError(f"invalid vertex id {v!r}")
        vs = tuple(sorted(vs))
        for v, w in zip(vs, vs[1:]):
            if v == w:
                raise GraphError(f"duplicate vertex id {v!r}")
        es = tuple(edges)
        for e in es:
            if not isinstance(e.id, str) or not e.id:
                raise GraphError(f"invalid edge id {e.id!r}")
        es = tuple(sorted(es, key=lambda e: e.id))
        edge_map: dict[str, Edge] = {}
        receivers: dict[str, list[Edge]] = {v: [] for v in vs}
        emitters: dict[str, list[Edge]] = {v: [] for v in vs}
        for e in es:
            if e.id in edge_map:
                raise GraphError(f"duplicate edge id {e.id!r}")
            if e.src not in receivers:
                raise GraphError(f"edge {e.id!r} references undeclared vertex {e.src!r}")
            if e.dst not in receivers:
                raise GraphError(f"edge {e.id!r} references undeclared vertex {e.dst!r}")
            edge_map[e.id] = e
            receivers[e.dst].append(e)
            emitters[e.src].append(e)
        super().__init__(vs, es)
        # not fields: the adjacency, and the results computed from this graph
        # alone, kept as long as the graph lives; only ``per_graph`` reads or
        # writes ``_memo``, and none of its entries refers back to the graph
        object.__setattr__(self, "_edge_map", edge_map)
        object.__setattr__(self, "_receivers", {v: tuple(x) for v, x in receivers.items()})
        object.__setattr__(self, "_emitters", {v: tuple(x) for v, x in emitters.items()})
        object.__setattr__(self, "_memo", {})

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_map[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge {edge_id!r}") from None

    def check_vertex(self, v: str) -> str:
        if v not in self._receivers:
            raise GraphError(f"unknown vertex {v!r}")
        return v

    def receivers(self, v: str) -> tuple[Edge, ...]:
        """Edges ending at v (the edges the projection at v decomposes over)."""
        self.check_vertex(v)
        return self._receivers[v]

    def emitters(self, v: str) -> tuple[Edge, ...]:
        """Edges starting at v."""
        self.check_vertex(v)
        return self._emitters[v]

    def is_regular(self, v: str) -> bool:
        return bool(self.receivers(v))

    # -- path construction ------------------------------------------------

    def trivial_path(self, v: str) -> "Path":
        self.check_vertex(v)
        return Path((), v, v)

    def edge_path(self, edge_id: str) -> "Path":
        e = self.edge(edge_id)
        return Path((e.id,), e.dst, e.src)

    def path(self, edge_ids: Iterable[str]) -> "Path":
        """Path from a range-to-source sequence of edge ids."""
        ids = tuple(edge_ids)
        if not ids:
            raise GraphError("a non-trivial path needs at least one edge")
        es = [self.edge(i) for i in ids]
        for left, right in zip(es, es[1:]):
            if left.src != right.dst:
                raise GraphError(
                    f"edges {left.id!r} and {right.id!r} do not compose: "
                    f"{left.id!r} starts at {left.src!r} but {right.id!r} ends at {right.dst!r}"
                )
        return Path(ids, es[0].dst, es[-1].src)

    def parse_path(self, text: str) -> "Path":
        """Parse "e1.e2" (range-to-source) or "@v" (trivial path)."""
        if text.startswith("@"):
            v = text[1:]
            if not v:
                raise ParseError("empty vertex name in trivial path literal")
            try:
                return self.trivial_path(v)
            except GraphError as exc:
                raise ParseError(str(exc)) from None
        if not text:
            raise ParseError("empty path literal")
        try:
            return self.path(text.split("."))
        except GraphError as exc:
            raise ParseError(str(exc)) from None

    def check_path(self, p: "Path") -> "Path":
        if p.edges:
            try:
                found = self.path(p.edges) == p
            except GraphError:
                found = False
        else:
            found = p.range in self._receivers and p.range == p.source
        if not found:
            raise GraphError(f"path {format_path(p)!r} does not belong to this graph")
        return p

    def to_doc(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in self.edges],
        }


class Path(Record):
    """Finite path; edge ids listed range-to-source.  Empty edges = trivial path."""

    _fields = ("edges", "range", "source")

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_trivial(self) -> bool:
        return not self.edges

    def sort_key(self):
        return (len(self.edges), self.edges, self.range, self.source)


def format_path(p: Path) -> str:
    return "@" + p.range if p.is_trivial else ".".join(p.edges)


def compose(lam: Path, nu: Path) -> Path:
    """Concatenate: lam on the range side, nu on the source side."""
    if lam.source != nu.range:
        raise GraphError(
            f"cannot compose {format_path(lam)!r} with {format_path(nu)!r}: "
            f"source {lam.source!r} != range {nu.range!r}"
        )
    if lam.is_trivial:
        return nu
    if nu.is_trivial:
        return lam
    return Path(lam.edges + nu.edges, lam.range, nu.source)


def is_prefix(lam: Path, sigma: Path) -> bool:
    """True when sigma factors as lam followed by a remainder on the source side."""
    if lam.is_trivial:
        return sigma.range == lam.range
    return sigma.edges[: len(lam.edges)] == lam.edges


def remainder(sigma: Path, lam: Path) -> Path:
    """The source-side factor of sigma after removing the prefix lam."""
    if not is_prefix(lam, sigma):
        raise GraphError(
            f"{format_path(lam)!r} is not a prefix of {format_path(sigma)!r}"
        )
    rest = sigma.edges[len(lam.edges):]
    if not rest:
        return Path((), lam.source, lam.source)
    return Path(rest, lam.source, sigma.source)


# -- enumeration --------------------------------------------------------


def paths_up_to(graph: Graph, max_len: int) -> list[Path]:
    """All paths of length 0..max_len, ordered by length then edge sequence:
    the trivial paths and their extensions at the range side, one level at
    a time, sorted once; the walk stops early once a level dies out."""
    if max_len < 0:
        return []
    level = [graph.trivial_path(v) for v in graph.vertices]
    out = list(level)
    for _ in range(max_len):
        level = [
            Path((e.id,) + p.edges, e.dst, p.source)
            for p in level
            for e in graph._emitters[p.range]
        ]
        if not level:
            break
        out.extend(level)
    return sorted(out, key=Path.sort_key)


def count_paths_from(graph: Graph, v: str, max_len: int, cap: int | None = None) -> int:
    """Number of paths of length 0..max_len with source v, counted one length
    at a time without listing them.  The count stops when a level dies out
    and, with a cap, as soon as it passes the cap."""
    graph.check_vertex(v)
    level, total = {v: 1}, 1 if max_len >= 0 else 0
    for _ in range(max_len):
        nxt: dict[str, int] = {}
        for u, k in level.items():
            for e in graph._emitters[u]:
                nxt[e.dst] = nxt.get(e.dst, 0) + k
        total += sum(nxt.values())
        if not nxt or (cap is not None and total > cap):
            break
        level = nxt
    return total


def monomial_count(graph: Graph, max_len: int, cap: int | None = None) -> int:
    """Number of common-source path pairs up to the bound, the monomials'
    count, from the path count of each source.  With a cap, counting stops
    as soon as the total passes it, returning a partial total above it."""
    total = 0
    for v in graph.vertices:
        paths = count_paths_from(graph, v, max_len, None if cap is None else isqrt(cap - total))
        total += paths * paths
        if cap is not None and total > cap:
            break
    return total


# -- cycles --------------------------------------------------------------


def is_cycle(p: Path) -> bool:
    return bool(p.edges) and p.range == p.source


def simple_cycles(graph: Graph) -> list[Path]:
    """All simple cycles (distinct vertices), one canonical rotation each.

    The canonical rotation is the lexicographically smallest edge-id tuple;
    the result is sorted by the sorted edge-id multiset of each cycle.
    """
    found: dict[tuple[str, ...], Path] = {}

    def canonical(ids: tuple[str, ...]) -> tuple[str, ...]:
        rots = [ids[i:] + ids[:i] for i in range(len(ids))]
        return min(rots)

    def walk(base: str, current: str, visited: set[str], trail: list[Edge]) -> None:
        for e in graph.emitters(current):
            if e.dst == base:
                ids = tuple(x.id for x in reversed(trail + [e]))
                key = canonical(ids)
                if key not in found:
                    first = graph.edge(key[0])
                    last = graph.edge(key[-1])
                    found[key] = Path(key, first.dst, last.src)
            elif e.dst not in visited:
                visited.add(e.dst)
                trail.append(e)
                walk(base, e.dst, visited, trail)
                trail.pop()
                visited.remove(e.dst)

    for v in graph.vertices:
        walk(v, v, {v}, [])
    return sorted(found.values(), key=lambda p: (tuple(sorted(p.edges)), p.edges))


def per_graph(key: str):
    """Keep a function's result with its graph.  The decorated function
    takes a graph and further positional arguments; its result is built
    once per graph and arguments and kept in ``graph._memo`` under ``key``,
    or ``(key, *args)`` when there are further arguments."""
    def decorate(build):
        @wraps(build)
        def kept(graph: Graph, *args):
            memo = graph._memo
            at = (key, *args) if args else key
            try:
                return memo[at]
            except KeyError:
                found = memo[at] = build(graph, *args)
                return found
        return kept
    return decorate


@per_graph("strong_components")
def strong_components(graph: Graph) -> tuple[tuple[str, ...], ...]:
    """The strongly connected components, each a sorted tuple of vertices,
    downstream first: for every edge between two components, the component
    of its end comes before the component of its start, so the reversed list
    is a topological order of the condensation.

    One iterative pass of Tarjan's algorithm (1972), linear in V + E apart
    from sorting each component, with no recursion.  A component is listed
    when its root's search ends, after every component that root reaches.
    Kept with the graph: every structural reader orders its pass by this
    one list.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    done: set[str] = set()
    found: list[tuple[str, ...]] = []
    work: list = []

    def visit(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        work.append((v, iter(graph.emitters(v))))

    for root in graph.vertices:
        if root not in index:
            visit(root)
        while work:
            v, out = work[-1]
            for e in out:
                if e.dst not in index:
                    visit(e.dst)
                    break
                if e.dst not in done:  # still on the stack
                    low[v] = min(low[v], index[e.dst])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    found.append(tuple(sorted(members)))
                    done.update(members)
    return tuple(found)


class CyclicStructure(Record):
    """Classes of cyclic vertices, the class cycle at each (``cycle_at``, keyed
    by the cyclic vertices) and the entry edges.

    A vertex is cyclic when it sits on a simple entry-less cycle; two cyclic
    vertices are equivalent when the same such cycle visits both.  An entry
    is an edge that enters some cycle without being the cycle's own edge.
    """

    _fields = ("classes", "cycle_at", "entries")

    def __init__(self, classes: tuple[tuple[str, ...], ...], cycle_at: Mapping[str, Path],
                 entries: frozenset[str]):
        super().__init__(classes, cycle_at, entries)
        # not a field: each class-cycle edge, the first edge of some cycle_at[w], to w
        object.__setattr__(self, "cycle_edges", {c.edges[0]: w for w, c in cycle_at.items()})


@per_graph("cyclic_structure")
def cyclic_structure(graph: Graph, removed: frozenset[str] = frozenset()) -> CyclicStructure:
    """One loop over the components.  A vertex is on a cycle exactly when
    it receives an edge from its own component, and an edge f into v is an
    entry exactly when v receives another edge g from its own component:
    g and a shortest path back to its start close a simple cycle through v.
    The entry-less cycles are the components on a cycle whose vertices each
    receive one edge; ``cycle_at[w]`` walks those edges back from w.

    With a hereditary ``removed`` set, the structure of the subgraph on the
    rest, with no subgraph built: every edge that starts in the set is
    skipped, so a removed vertex receives nothing.  Kept with the graph."""
    into = graph._receivers if not removed else {
        v: tuple(e for e in es if e.src not in removed) for v, es in graph._receivers.items()}
    classes: list[tuple[str, ...]] = []
    cycle_at: dict[str, Path] = {}
    entries: set[str] = set()
    for verts in strong_components(graph):
        members = set(verts)
        on_cycle = False  # either every vertex of a component is on a cycle or none is
        for v in verts:
            received = into[v]
            inside = [e for e in received if e.src in members]
            if inside:
                on_cycle = True
                entries.update(f.id for f in received if len(inside) > 1 or f is not inside[0])
        if not on_cycle or any(len(into[v]) != 1 for v in verts):
            continue
        classes.append(verts)
        for w in verts:
            ids: list[str] = []
            v = w
            while not ids or v != w:
                (e,) = into[v]
                ids.append(e.id)
                v = e.src
            cycle_at[w] = Path(tuple(ids), w, w)
    return CyclicStructure(tuple(sorted(classes)), cycle_at, frozenset(entries))


# -- documents -----------------------------------------------------------


def graph_from_doc(doc: object) -> Graph:
    if not isinstance(doc, dict):
        raise ParseError("graph document must be an object")
    vertices = doc.get("vertices")
    edges = doc.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError("graph document needs a 'vertices' list of strings")
    if not isinstance(edges, list):
        raise ParseError("graph document needs an 'edges' list")
    parsed = []
    for item in edges:
        if not isinstance(item, dict) or not {"id", "src", "dst"} <= set(item):
            raise ParseError(f"malformed edge record {item!r}")
        fields = (item["id"], item["src"], item["dst"])
        if not all(isinstance(x, str) for x in fields):
            raise ParseError(f"edge record {item!r} needs string 'id', 'src' and 'dst'")
        parsed.append(Edge(*fields))
    for name in vertices + [e.id for e in parsed]:
        if "." in name or "|" in name or name.startswith("@"):
            raise ParseError(
                f"id {name!r} cannot be written in a path literal: "
                "ids may not contain '.' or '|' or start with '@'"
            )
    try:
        return Graph(vertices, parsed)
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def load_json(text: str, what: str) -> object:
    """The JSON document in text; ``what`` names it in the error raised for
    a malformed document, one nested deeper than the decoder recurses, or
    one with an integer longer than the interpreter converts."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {what} document: {exc}") from None
    except RecursionError:
        raise LimitError(f"{what} document is nested too deeply") from None
    except ValueError:  # the one other error: an integer beyond the digit limit
        limit = sys.get_int_max_str_digits()
        raise LimitError(f"{what} document has an integer longer than {limit} digits") from None


def parse_graph(text: str) -> Graph:
    return graph_from_doc(load_json(text, "graph"))
