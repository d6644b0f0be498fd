"""The spanning-monomial *-semigroup of a graph algebra.

A non-zero monomial is a formal pair of paths with common source,
standing for the partial isometry "left path forward, right path
backward".  The product rule is pure path combinatorics: the right path
of one factor and the left path of the other must be comparable, and the
overhang transfers to the surviving side; incomparable paths annihilate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    Path,
    compose,
    entries_of,
    format_path,
    is_prefix,
    paths_up_to,
    remainder,
    rotate_cycle,
)


@dataclass(frozen=True)
class Monomial:
    left: Path | None
    right: Path | None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise GraphError("monomial paths must both be present or both absent")
        if self.left is not None and self.left.source != self.right.source:
            raise GraphError(
                f"paths {format_path(self.left)!r} and {format_path(self.right)!r} "
                "have different sources"
            )

    @property
    def is_zero(self) -> bool:
        return self.left is None

    @property
    def is_diagonal(self) -> bool:
        return self.left is not None and self.left == self.right

    def adjoint(self) -> "Monomial":
        return self if self.is_zero else Monomial(self.right, self.left)

    @property
    def degree(self) -> int:
        """Gauge degree: length difference of the two paths (0 for zero)."""
        return 0 if self.is_zero else len(self.left) - len(self.right)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return multiply(self, other)

    def sort_key(self):
        a, b = self.left, self.right
        return (len(a) + len(b), len(b), a.edges, a.range, a.source, b.edges, b.range)


ZERO = Monomial(None, None)


def projection(path: Path) -> Monomial:
    """Diagonal monomial: the indicator of the path's cylinder."""
    return Monomial(path, path)


def multiply(x: Monomial, y: Monomial) -> Monomial:
    """(a, b)(lam, nu): when b = lam.rest the product is (a, nu.rest), when
    lam = b.rest it is (a.rest, nu), and otherwise it is zero.

    Comparability is one range comparison plus one edge-prefix comparison:
    a non-trivial path's range is the range of its first edge."""
    b, lam = x.right, y.left
    if b is None or lam is None or b.range != lam.range:
        return ZERO
    b_edges, lam_edges = b.edges, lam.edges
    if len(lam_edges) <= len(b_edges):
        if b_edges[: len(lam_edges)] != lam_edges:
            return ZERO
        rest, nu = b_edges[len(lam_edges):], y.right
        if not rest:
            return Monomial(x.left, nu)
        return Monomial(x.left, Path(nu.edges + rest, nu.range, b.source))
    if lam_edges[: len(b_edges)] != b_edges:
        return ZERO
    a = x.left
    return Monomial(Path(a.edges + lam_edges[len(b_edges):], a.range, lam.source), y.right)


def expect_diagonal(x: Monomial) -> Monomial:
    """Conditional expectation onto the diagonal: kills off-diagonal pairs."""
    return x if x.is_diagonal else ZERO


def is_normal(graph: Graph, x: Monomial) -> bool:
    """Diagonal, or one path extends the other by an entry-less cycle."""
    if x.is_zero:
        return False
    if x.is_diagonal:
        return True
    a, b = x.left, x.right
    if is_prefix(a, b):
        return not entries_of(graph, remainder(b, a))
    if is_prefix(b, a):
        return not entries_of(graph, remainder(a, b))
    return False


def expect_core(graph: Graph, x: Monomial) -> Monomial:
    """Conditional expectation onto the abelian core: keeps normal monomials."""
    if x.is_zero:
        return ZERO
    graph.check_path(x.left)
    graph.check_path(x.right)
    return x if is_normal(graph, x) else ZERO


@dataclass(frozen=True)
class CyclicForm:
    """Canonical presentation of a normal off-diagonal monomial as a power of
    the cycle isometry conjugated along a ray."""

    ray: Path
    seed: Path
    power: int


def _simple_root(graph: Graph, cycle: Path) -> tuple[Path, int]:
    """Unique decomposition of an entry-less cycle as a simple cycle power."""
    n = len(cycle.edges)
    for d in range(1, n + 1):
        if n % d:
            continue
        if cycle.edges == cycle.edges[:d] * (n // d):
            root_source = graph.edge(cycle.edges[d - 1]).src
            root = Path(cycle.edges[:d], cycle.range, root_source)
            ranges = [graph.edge(i).dst for i in root.edges]
            if len(set(ranges)) != d:  # pragma: no cover - entry-less roots are simple
                raise GraphError("periodic root of an entry-less cycle is not simple")
            return root, n // d
    raise GraphError("unreachable: every cycle is its own power")  # pragma: no cover


def cyclic_form(graph: Graph, x: Monomial) -> CyclicForm:
    """Canonical (ray, seed, power) of a normal off-diagonal monomial.

    The longer path extends the shorter by an entry-less cycle; trailing
    edges of the shorter path lying on the cycle's simple root are stripped
    one at a time, rotating the root's base to the stripped edge's endpoint.
    Entry-less-ness forces any further root edge inside the stripped path to
    be followed only by root edges, so the loop's exit condition leaves a
    genuine ray; the strict length decrease guarantees termination.
    """
    if x.is_zero or x.is_diagonal or not is_normal(graph, x):
        raise GraphError("cyclic form requires a normal off-diagonal monomial")
    a, b = x.left, x.right
    if is_prefix(b, a):
        shorter, cycle, sign = b, remainder(a, b), 1
    else:
        shorter, cycle, sign = a, remainder(b, a), -1
    root, power = _simple_root(graph, cycle)
    gamma = shorter
    seed = root
    while gamma.edges and gamma.edges[-1] in set(seed.edges):
        dropped = graph.edge(gamma.edges[-1])
        rest = gamma.edges[:-1]
        gamma = Path(rest, gamma.range if rest else dropped.dst, dropped.dst)
        seed = rotate_cycle(graph, seed, dropped.dst)
    return CyclicForm(gamma, seed, sign * power)


def from_cyclic_form(form: CyclicForm) -> Monomial:
    """Monomial pair realizing a cyclic form (the seed power along the ray)."""
    loop = form.seed
    for _ in range(abs(form.power) - 1):
        loop = compose(loop, form.seed)
    extended = compose(form.ray, loop)
    x = Monomial(extended, form.ray)
    return x if form.power > 0 else x.adjoint()


# -- enumeration ----------------------------------------------------------


def monomials(graph: Graph, max_len: int) -> tuple[Monomial, ...]:
    """All non-zero monomials with both path lengths <= max_len, sorted.

    Enumerated once per graph and bound; the tuple lives with the graph."""
    key = ("monomials", max_len)
    found = graph._memo.get(key)
    if found is None:
        by_source: dict[str, list[Path]] = {v: [] for v in graph.vertices}
        for p in paths_up_to(graph, max_len):
            by_source[p.source].append(p)
        out = []
        for v in graph.vertices:
            group = by_source[v]
            for a in group:
                for b in group:
                    out.append(Monomial(a, b))
        found = graph._memo[key] = tuple(sorted(out, key=Monomial.sort_key))
    return found


def normal_monomials(graph: Graph, max_len: int) -> tuple[Monomial, ...]:
    """The normal monomials among ``monomials(graph, max_len)``, memoized alike."""
    key = ("normal_monomials", max_len)
    found = graph._memo.get(key)
    if found is None:
        found = graph._memo[key] = tuple(
            x for x in monomials(graph, max_len) if is_normal(graph, x)
        )
    return found


def edge_normalizers(graph: Graph) -> list[Monomial]:
    """The single-edge isometries, the generating normalizers."""
    return [
        Monomial(graph.edge_path(e.id), graph.trivial_path(e.src))
        for e in graph.edges
    ]


def format_monomial(x: Monomial) -> str:
    if x.is_zero:
        return "0"
    return f"{format_path(x.left)}|{format_path(x.right)}"


def parse_monomial(graph: Graph, text: str) -> Monomial:
    parts = text.split("|")
    if len(parts) != 2:
        raise GraphError(f"monomial literal must be 'left|right', got {text!r}")
    return Monomial(graph.parse_path(parts[0]), graph.parse_path(parts[1]))
