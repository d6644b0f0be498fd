"""The spanning-monomial *-semigroup of a graph algebra.

A non-zero monomial is a formal pair of paths with common source,
standing for the partial isometry "left path forward, right path
backward".  The product rule is pure path combinatorics: the right path
of one factor and the left path of the other must be comparable, and the
overhang transfers to the surviving side; incomparable paths annihilate.

A monomial's class is a fact of the minimal tightening's cyclic structure
(``trace_structure``), decided by ``classify`` from the two paths alone:
an off-diagonal pair is normal when one path extends the other and the
common source is a cyclic vertex; the overhang is then a power of the
source's class cycle.  Deciding it takes one prefix test
(``graph.is_prefix``, the rule ``multiply`` uses for comparability) and
keeps nothing of the paths, so the object-level readers (``expect_core``,
``cyclic_form`` and a functional's ``value``) take time linear in the
monomial's length and build no enumeration.

A graph keeps, per length bound, an integer coding of its paths and
monomials (``coding``).  It is the one enumeration of the monomials:
``monomials`` decodes its pairs, and the verification suites read them as
they are and build no Monomial object.  Products become table lookups on
path ids, and the coding is the only code that takes them; each coded
monomial is classified once per coding, that is per graph and bound.  A
coding keeps that cyclic structure, not the graph, so a graph and
the codings in its memo hold no reference cycle and are freed as soon as
the graph is dropped.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .graph import (
    CyclicStructure,
    Graph,
    GraphError,
    ParseError,
    Path,
    Record,
    compose,
    format_path,
    is_prefix,
    paths_up_to,
    per_graph,
    remainder,
)
from .structure import trace_structure


class Monomial(Record):
    _fields = ("left", "right")

    def __init__(self, left: Path | None, right: Path | None):
        if (left is None) != (right is None):
            raise GraphError("monomial paths must both be present or both absent")
        if left is not None and left.source != right.source:
            raise GraphError(
                f"paths {format_path(left)!r} and {format_path(right)!r} "
                "have different sources"
            )
        super().__init__(left, right)

    @property
    def is_zero(self) -> bool:
        return self.left is None


ZERO = Monomial(None, None)


def multiply(x: Monomial, y: Monomial) -> Monomial:
    """(a, b)(lam, nu): when b = lam.rest the product is (a, nu.rest), when
    lam = b.rest it is (a.rest, nu), and otherwise it is zero."""
    if x.is_zero or y.is_zero:
        return ZERO
    (a, b), (lam, nu) = (x.left, x.right), (y.left, y.right)
    if is_prefix(lam, b):
        return Monomial(a, compose(nu, remainder(b, lam)))
    if is_prefix(b, lam):
        return Monomial(compose(a, remainder(lam, b)), nu)
    return ZERO


def expect_core(graph: Graph, x: Monomial) -> Monomial:
    """Conditional expectation onto the abelian core: keeps normal monomials,
    those of nonzero class."""
    return x if monomial_class(graph, x) else ZERO


class CyclicForm(Record):
    """Canonical presentation of a normal off-diagonal monomial as a power of
    the cycle isometry conjugated along a ray."""

    _fields = ("ray", "seed", "power")


def cyclic_form(graph: Graph, x: Monomial) -> CyclicForm:
    """Canonical (ray, seed, power) of a normal off-diagonal monomial.

    The longer path extends the shorter by a power of the class cycle at the
    common source.  The class gives the power, the ray is the shorter path
    without its source-side run of class-cycle edges (``ray``), and the seed
    is the class cycle based at the ray's source.
    """
    key = monomial_class(graph, x)
    if not key or not key[1]:
        raise GraphError("cyclic form requires a normal off-diagonal monomial")
    power = key[1]
    struct = trace_structure(graph)
    base = ray(struct, x.right if power > 0 else x.left)
    return CyclicForm(base, struct.cycle_at[base.source], power)


# -- enumeration ----------------------------------------------------------


@per_graph("monomials")
def monomials(graph: Graph, max_len: int) -> tuple[Monomial, ...]:
    """All non-zero monomials with both path lengths <= max_len, sorted.

    The decoded pairs of ``coding(graph, max_len)``, kept alike."""
    code = coding(graph, max_len)
    return tuple(code.monomial(a, b) for a, b in code.codes)


# -- classes and integer codes ------------------------------------------------


def classify(struct: CyclicStructure, a: Path, b: Path) -> tuple[str, int] | int:
    """Class key of the monomial (a, b): (v, 0) for a diagonal at v, (ray
    source, power) with power != 0 for a normal off-diagonal monomial, and
    0, the class of zero, for one that is not normal, on which every
    functional vanishes.  Off the diagonal the pair is normal when the
    shorter path is a prefix of the longer one and their common source is
    cyclic; the overhang is then a power of the class cycle."""
    if a == b:
        return (a.source, 0)
    shorter, longer = (b, a) if len(a.edges) > len(b.edges) else (a, b)
    root = struct.cycle_at.get(a.source)
    if root is None or not is_prefix(shorter, longer):
        return 0
    power = (len(a.edges) - len(b.edges)) // len(root.edges)
    return (ray(struct, shorter).source, power)


def ray(struct: CyclicStructure, path: Path) -> Path:
    """A path from a cyclic vertex without its source-side run of
    class-cycle edges.  In the tightening, where the path lies, a cyclic
    vertex receives one edge, its class cycle's, so the path runs along
    that cycle exactly as long as its edges end at cyclic vertices."""
    edges, cycle_edges = path.edges, struct.cycle_edges
    k = len(edges)
    while k and edges[k - 1] in cycle_edges:
        k -= 1
    if k == len(edges):
        return path
    return Path(edges[:k], path.range, cycle_edges[edges[k]])


def monomial_class(graph: Graph, x: Monomial) -> tuple[str, int] | int:
    """Class key of a monomial, once both its paths are checked to belong to
    the graph.  Nothing of the monomial is numbered or kept, so a caller
    that evaluates many long monomials holds no memory for them."""
    if x.is_zero:
        return 0
    graph.check_path(x.left)
    graph.check_path(x.right)
    return classify(trace_structure(graph), x.left, x.right)


KEY_SHIFT = 32  # a pair of ids as one dict key: first << KEY_SHIFT | second


class Coding:
    """Integer codes for the paths and monomials of a graph up to a bound.

    The paths of ``paths_up_to`` are numbered in order; longer ones, which
    products reach (up to twice the bound), are numbered when first built.
    For a path p up to the bound, ``prefixes[p][t]`` is the id of its first
    t edges (range side) and ``remainders[p][t]`` the id of the rest: both
    are paths up to the bound, so the tables are built once, from the ids.
    A monomial is a pair of ids and a product is a few table lookups.
    ``codes`` lists every pair (a, b) of ids with a common source, sorted by
    the key (len a + len b, len b, a, b); ids follow ``Path.sort_key``.

    Each coded monomial is classified once (``classify``), and its class key
    is the key a functional's value depends on."""

    def __init__(self, graph: Graph, max_len: int):
        self.struct = trace_structure(graph)
        self.paths = paths = paths_up_to(graph, max_len)
        self._ids = ids = {(p.edges, p.range): i for i, p in enumerate(paths)}
        self.length = length = [len(p.edges) for p in paths]
        by_source: dict[str, list[int]] = {}
        for i, p in enumerate(paths):
            by_source.setdefault(p.source, []).append(i)
        self.codes = tuple(sorted(
            ((a, b) for group in by_source.values() for a in group for b in group),
            key=lambda ab: (length[ab[0]] + length[ab[1]], length[ab[1]], ab),
        ))
        self.prefixes = [
            tuple(ids[p.edges[:t], p.range] for t in range(len(p.edges) + 1)) for p in paths
        ]
        # the rest after t edges starts where the prefix of t edges ends
        self.remainders = [
            tuple(ids[p.edges[t:], paths[q].source] for t, q in enumerate(pre))
            for p, pre in zip(paths, self.prefixes)
        ]
        self._joined: dict[int, int] = {}
        self._classes: dict[int, tuple[str, int] | int] = {}

    def monomial(self, p: int, q: int) -> Monomial:
        """The monomial coded (p, q)."""
        return Monomial(self.paths[p], self.paths[q])

    def intern(self, path: Path) -> int:
        """The id of a path of the graph, numbering it if it is new."""
        key = path.edges, path.range
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = len(self.paths)
            self.paths.append(path)
            self.length.append(len(path.edges))
        return found

    def join(self, p: int, r: int) -> int:
        """The id of path p followed by path r (r starting where p ends)."""
        key = p << KEY_SHIFT | r
        found = self._joined.get(key)
        if found is None:
            found = self._joined[key] = self.intern(compose(self.paths[p], self.paths[r]))
        return found

    def class_of(self, p: int, q: int) -> tuple[str, int] | int:
        """Class key of the coded monomial (p, q)."""
        key = p << KEY_SHIFT | q
        found = self._classes.get(key)
        if found is None:
            paths = self.paths
            found = self._classes[key] = classify(self.struct, paths[p], paths[q])
        return found

    def product_class(self, a: int, b: int, c: int, d: int) -> tuple[str, int] | int:
        """Class key of the product (a, b)(c, d) of two monomials whose
        paths are up to the bound, by the rule of ``multiply``: c a prefix
        of b gives (a, d.rest), b a prefix of c gives (a.rest, d), and
        incomparable paths give zero."""
        lb, lc = self.length[b], self.length[c]
        if lc <= lb:
            if self.prefixes[b][lc] == c:
                return self.class_of(a, self.join(d, self.remainders[b][lc]))
        elif self.prefixes[c][lb] == b:
            return self.class_of(self.join(a, self.remainders[c][lb]), d)
        return 0

    @cached_property
    def index(self) -> tuple[list[list[int]], ...]:
        """Positions of the coded monomials by left path id and by each
        proper prefix of it, and likewise for right paths."""
        n = len(self.prefixes)
        exact_left, below_left = [[] for _ in range(n)], [[] for _ in range(n)]
        exact_right, below_right = [[] for _ in range(n)], [[] for _ in range(n)]
        for j, (c, d) in enumerate(self.codes):
            exact_left[c].append(j)
            for t in self.prefixes[c][:-1]:
                below_left[t].append(j)
            exact_right[d].append(j)
            for t in self.prefixes[d][:-1]:
                below_right[t].append(j)
        return exact_left, below_left, exact_right, below_right

    def product_pairs(self) -> Iterator[tuple]:
        """(i, j, class of xy, class of yx) for x = codes[i] and y = codes[j]
        with i < j and xy or yx nonzero, in the order of the full scan.

        xy is nonzero only when y's left path is comparable with x's right
        path, and yx only when y's right path is comparable with x's left
        path, so the index of the codes by path prefix finds every such y.
        Both products are classified by lookups in the join and class memos;
        a KeyError means a product not met before, which ``product_class``
        codes and classifies."""
        pairs = self.codes
        exact_left, below_left, exact_right, below_right = self.index
        length, prefixes, remainders = self.length, self.prefixes, self.remainders
        joined, classes, product_class = self._joined, self._classes, self.product_class
        s = KEY_SHIFT
        for i, (a, b) in enumerate(pairs):
            la, pre_a, rest_a = length[a], prefixes[a], remainders[a]
            lb, pre_b, rest_b = length[b], prefixes[b], remainders[b]
            near = set(below_left[b])
            for t in pre_b:
                near.update(exact_left[t])
            near.update(below_right[a])
            for t in pre_a:
                near.update(exact_right[t])
            for j in sorted(j for j in near if j > i):
                c, d = pairs[j]
                xy = yx = 0
                lc, ld = length[c], length[d]
                try:
                    if lc <= lb:
                        if pre_b[lc] == c:
                            xy = classes[a << s | joined[d << s | rest_b[lc]]]
                    elif prefixes[c][lb] == b:
                        xy = classes[joined[a << s | remainders[c][lb]] << s | d]
                    if la <= ld:
                        if prefixes[d][la] == a:
                            yx = classes[c << s | joined[b << s | remainders[d][la]]]
                    elif pre_a[ld] == d:
                        yx = classes[joined[c << s | rest_a[ld]] << s | b]
                except KeyError:
                    xy, yx = product_class(a, b, c, d), product_class(c, d, a, b)
                yield i, j, xy, yx


@per_graph("coding")
def coding(graph: Graph, max_len: int) -> Coding:
    """The graph's coding up to the bound, built once and kept with the graph."""
    return Coding(graph, max_len)


def format_monomial(x: Monomial) -> str:
    if x.is_zero:
        return "0"
    return f"{format_path(x.left)}|{format_path(x.right)}"


def parse_monomial(graph: Graph, text: str) -> Monomial:
    parts = text.split("|")
    if len(parts) != 2:
        raise ParseError(f"monomial literal must be 'left|right', got {text!r}")
    return Monomial(graph.parse_path(parts[0]), graph.parse_path(parts[1]))
