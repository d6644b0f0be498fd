"""Trace functionals on spanning monomials and the verification suites.

Functionals are defined on formal pairs, not algebra elements; distinct
pairs can present the same element, and instead of assuming
well-definedness the suites check it: traciality and invariance are exact
identities in the circle-value arithmetic, and the relation-additivity
audit confirms that coinciding presentations get coinciding values.
Floating point appears only in the Gram positivity probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import Graph, GraphError, Path, compose, paths_up_to
from .monomials import (
    Monomial,
    ZERO,
    cyclic_form,
    edge_normalizers,
    format_monomial,
    is_normal,
    monomials,
    multiply,
    normal_monomials,
)
from .tagging import (
    CIRCLE_ZERO,
    CircleValue,
    Tag,
    haar_tag,
    moment,
    validate_tag,
)
from .traces import GraphTrace, validate_trace


@dataclass
class TraceFunctional:
    """Evaluator for the Haar trace of a graph trace, or for the tagged
    trace of a trace/tag pair.

    With no tag the functional vanishes off the diagonal; with a tag it
    factors through the abelian core, reading cyclic powers through the
    tag's moments.  Values are cached per monomial.
    """

    graph: Graph
    trace: GraphTrace
    tag: Tag | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def kind(self) -> str:
        return "haar" if self.tag is None else "tagged"

    def value(self, x: Monomial) -> CircleValue:
        if x.is_zero:
            return CIRCLE_ZERO
        hit = self._cache.get(x)
        if hit is not None:
            return hit
        self.graph.check_path(x.left)
        self.graph.check_path(x.right)
        if x.is_diagonal:
            out = CircleValue.rational(self.trace[x.left.source])
        elif self.tag is None or not is_normal(self.graph, x):
            out = CIRCLE_ZERO
        else:
            form = cyclic_form(self.graph, x)
            base = form.ray.source
            mass = self.trace[base]
            if mass == 0:
                out = CIRCLE_ZERO
            else:
                measure = self.tag._map.get(base)
                if measure is None:
                    raise GraphError(
                        f"tag has no measure for cyclic vertex {base!r} with mass"
                    )
                out = moment(measure, form.power).scaled(mass)
        self._cache[x] = out
        return out


def haar_functional(graph: Graph, trace: GraphTrace) -> TraceFunctional:
    problem = validate_trace(graph, trace)
    if problem is not None:
        raise GraphError(f"invalid trace: {problem.message()}")
    return TraceFunctional(graph, trace, None)


def tagged_functional(graph: Graph, trace: GraphTrace, tag: Tag) -> TraceFunctional:
    """Tagged evaluator for a valid trace and tag.  TraceFunctional(graph,
    trace, tag) skips the checks, to show how inconsistent tags break things."""
    problem = validate_trace(graph, trace)
    if problem is not None:
        raise GraphError(f"invalid trace: {problem.message()}")
    tag_problem = validate_tag(graph, trace, tag)
    if tag_problem is not None:
        raise GraphError(f"invalid tag: {tag_problem.message}")
    return TraceFunctional(graph, trace, tag)


def haar_tagged_functional(graph: Graph, trace: GraphTrace) -> TraceFunctional:
    return tagged_functional(graph, trace, haar_tag(graph, trace))


# -- verification suites ---------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one suite; ``checked`` counts the cases it examined, up to
    and including a failing one."""

    name: str
    passed: bool
    witness: str | None = None
    detail: str | None = None
    checked: int = 0

    def message(self) -> str:
        state = "pass" if self.passed else "FAIL"
        extra = f" [{self.witness}]" if self.witness else ""
        extra += f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {state}{extra}"


def _prefix_keys(path: Path) -> list[tuple[str, tuple[str, ...]]]:
    """Keys of every prefix of a path, from the trivial one to the path."""
    return [(path.range, path.edges[:t]) for t in range(len(path.edges) + 1)]


def _prefix_index(paths: Sequence[Path]) -> tuple[dict, dict]:
    """Positions of the paths by their own key and by each proper prefix's."""
    exact: dict = {}
    below: dict = {}
    for j, path in enumerate(paths):
        *proper, own = _prefix_keys(path)
        exact.setdefault(own, []).append(j)
        for key in proper:
            below.setdefault(key, []).append(j)
    return exact, below


def _comparable(path: Path, exact: dict, below: dict) -> set[int]:
    """Positions of the indexed paths that are prefixes or extensions of path."""
    keys = _prefix_keys(path)
    found = set(below.get(keys[-1], ()))
    for key in keys:
        found.update(exact.get(key, ()))
    return found


def check_traciality(fn: TraceFunctional, max_len: int) -> CheckResult:
    """F(xy) = F(yx) exactly, over all monomial pairs up to the length bound.

    xy is nonzero only when y's left path is comparable with x's right path,
    and yx only when y's right path is comparable with x's left path; every
    other pair has F(xy) = F(0) = F(yx).  So only the pairs with a nonzero
    product are visited, in the order of the full scan, which keeps the
    first failing pair."""
    items = monomials(fn.graph, max_len)
    lefts = _prefix_index([y.left for y in items])
    rights = _prefix_index([y.right for y in items])
    checked = 0
    for i, x in enumerate(items):
        near = _comparable(x.right, *lefts) | _comparable(x.left, *rights)
        for j in sorted(near):
            if j <= i:
                continue
            y = items[j]
            checked += 1
            left = fn.value(multiply(x, y))
            right = fn.value(multiply(y, x))
            if left != right:
                return CheckResult(
                    "traciality",
                    False,
                    witness=f"x={format_monomial(x)} y={format_monomial(y)}",
                    detail=f"F(xy)={left} F(yx)={right}",
                    checked=checked,
                )
    return CheckResult("traciality", True, checked=checked)


def check_edge_invariance(
    fn: TraceFunctional, max_len: int, composite: bool = False
) -> CheckResult:
    """F(n b n*) = F(n*n b) for edge normalizers n (all monomial normalizers
    when composite=True) against every normal monomial b up to the bound."""
    if composite:
        normalizers = monomials(fn.graph, max_len)
    else:
        normalizers = edge_normalizers(fn.graph)
    core = normal_monomials(fn.graph, max_len)
    checked = 0
    for n in normalizers:
        n_star = n.adjoint()
        for b in core:
            checked += 1
            left = fn.value(multiply(multiply(n, b), n_star))
            right = fn.value(multiply(multiply(n_star, n), b))
            if left != right:
                return CheckResult(
                    "invariance",
                    False,
                    witness=f"n={format_monomial(n)} b={format_monomial(b)}",
                    detail=f"F(nbn*)={left} F(n*nb)={right}",
                    checked=checked,
                )
    return CheckResult("invariance", True, checked=checked)


def check_gauge(fn: TraceFunctional, max_len: int) -> CheckResult:
    """Gauge invariance: vanishing on every monomial of nonzero degree."""
    checked = 0
    for x in monomials(fn.graph, max_len):
        if x.degree == 0:
            continue
        checked += 1
        val = fn.value(x)
        if not val.is_zero:
            return CheckResult(
                "gauge",
                False,
                witness=format_monomial(x),
                detail=f"degree {x.degree} value {val}",
                checked=checked,
            )
    return CheckResult("gauge", True, checked=checked)


def ck_additivity_check(fn: TraceFunctional, max_len: int) -> CheckResult:
    """F(x) equals the sum of F over all one-edge source extensions whenever
    the common source is regular; this is the relation that makes distinct
    presentations of one element agree."""
    graph = fn.graph
    checked = 0
    for x in monomials(graph, max_len):
        v = x.left.source
        if not graph.is_regular(v):
            continue
        checked += 1
        total = CIRCLE_ZERO
        for e in graph.receivers(v):
            step = graph.edge_path(e.id)
            total = total + fn.value(
                Monomial(compose(x.left, step), compose(x.right, step))
            )
        if fn.value(x) != total:
            return CheckResult(
                "ck",
                False,
                witness=format_monomial(x),
                detail=f"F(x)={fn.value(x)} sum={total}",
                checked=checked,
            )
    return CheckResult("ck", True, checked=checked)


def cylinder_measure_check(graph: Graph, trace: GraphTrace, max_len: int) -> CheckResult:
    """The cylinder measure of a trace: additivity over one-edge extensions at
    regular sources, and equal mass for the two cylinders any monomial
    normalizer transfers into each other."""
    checked = 0
    for lam in paths_up_to(graph, max_len):
        v = lam.source
        if not graph.is_regular(v):
            continue
        checked += 1
        mass = trace[v]
        extended = sum(
            (trace[e.src] for e in graph.receivers(v)), Fraction(0)
        )
        if mass != extended:
            return CheckResult(
                "cylinder",
                False,
                witness=f"Z({format_monomial(Monomial(lam, lam))})",
                detail=f"m={mass} extensions={extended}",
                checked=checked,
            )
    for x in monomials(graph, max_len):
        checked += 1
        if trace[x.left.source] != trace[x.right.source]:
            return CheckResult(
                "cylinder",
                False,
                witness=format_monomial(x),
                detail="transferred cylinders have different mass",
                checked=checked,
            )
    return CheckResult("cylinder", True, checked=checked)


def gram_psd_check(fn: TraceFunctional, family: Sequence[Monomial]) -> CheckResult:
    """Numeric positivity probe: the matrix F(x_i* x_j) must be PSD up to 1e-9."""
    import numpy as np  # only this probe needs it; keeps `import cktrace` light

    if not family:
        raise ValueError("gram check needs a non-empty monomial family")
    size = len(family)
    gram = np.zeros((size, size), dtype=complex)
    for i, x in enumerate(family):
        x_star = x.adjoint()
        for j, y in enumerate(family):
            gram[i, j] = fn.value(multiply(x_star, y)).as_complex()
    herm = (gram + gram.conj().T) / 2
    lowest = float(np.linalg.eigvalsh(herm)[0])
    return CheckResult(
        "gram",
        lowest >= -1e-9,
        detail=f"min eigenvalue {lowest:.3e}",
        checked=size,
    )


SUITE_NAMES = ("traciality", "invariance", "gauge", "gram", "ck", "cylinder")


def run_suites(
    fn: TraceFunctional, max_len: int, names: Iterable[str] = SUITE_NAMES
) -> list[CheckResult]:
    results = []
    for name in names:
        if name == "traciality":
            results.append(check_traciality(fn, max_len))
        elif name == "invariance":
            results.append(check_edge_invariance(fn, max_len))
        elif name == "gauge":
            results.append(check_gauge(fn, max_len))
        elif name == "gram":
            family = monomials(fn.graph, max_len)[:6] or [ZERO]
            results.append(gram_psd_check(fn, family))
        elif name == "ck":
            results.append(ck_additivity_check(fn, max_len))
        elif name == "cylinder":
            results.append(cylinder_measure_check(fn.graph, fn.trace, max_len))
        else:
            raise ValueError(f"unknown suite {name!r}")
    return results
