"""Circle measures, exact circle-polynomial values, and cyclic tags.

Measures on the unit circle are restricted to a rational Haar weight plus
finitely many atoms at rational angles (denominators up to
`MAX_ANGLE_DENOMINATOR`); this keeps every functional value an exact finite
combination of roots of unity while covering the extremes exercised
downstream (point masses and Haar).  Such a combination is decided zero by
recursion down the prime tower of cyclotomic fields Q(zeta_N), at a cost
set by its terms and the prime factors of N, not by N itself.

Angles and weights become Fractions once, where they enter: ``parse_rational``
and ``point_mass``.  Sums, scalings and moments merge the terms they hold.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property

from .graph import Graph, GraphError, LimitError, ParseError, Record
from .structure import cyclic_support, trace_structure
from .traces import GraphTrace, parse_rational


MAX_ANGLE_DENOMINATOR = 10**6
"""Largest accepted denominator of a measure atom's angle.  Zero decisions
factor the angle denominators by trial division, so a bound keeps a huge
prime denominator (or an angle such as 1e-40) from stalling a run."""


def _vanishes(terms: Iterable[tuple[Fraction, Fraction]]) -> bool:
    """Whether a formal sum of weighted circle points is the number zero.

    Recursion on the least prime p of the common angle denominator N, down
    the tower Q(zeta_N) over Q(zeta_{N/p}).  If p^2 | N, 1, zeta_N, ...,
    zeta_N^(p-1) is a basis, so the terms split by exponent mod p and each
    class, shifted into Q(zeta_{N/p}), vanishes on its own.  If N = p*m with
    p coprime to m, every angle is i/p + b with b in (1/m)Z, and the sum
    vanishes exactly when the classes c_i in Q(zeta_m) all equal c_0."""
    acc: dict[Fraction, Fraction] = {}
    for angle, weight in terms:  # angles in [0, 1)
        acc[angle] = acc.get(angle, 0) + weight
    live = [(a, w) for a, w in acc.items() if w]
    if len(live) < 2:
        return not live
    dens = {a.denominator for a, _ in live}
    n = math.lcm(*dens)
    p = min(next((q for q in range(2, math.isqrt(d) + 1) if d % q == 0), d)
            for d in dens if d > 1)
    m = n // p
    tower = m % p == 0  # p^2 | N: class i shifts by -i/N; else by -i/p
    inv = 1 if tower else pow(m, -1, p)
    classes: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for a, w in live:
        i = a.numerator * (n // a.denominator) * inv % p
        classes.setdefault(i, []).append(((a - Fraction(i, n if tower else p)) % 1, w))
    if tower:
        return all(_vanishes(c) for c in classes.values())
    base = [(a, -w) for a, w in classes.pop(0, [])]
    return (len(classes) == p - 1 or _vanishes(base)) and all(
        _vanishes(c + base) for c in classes.values()
    )


class CircleValue(Record):
    """Finite formal sum of weighted points on the circle, in canonical form.

    A term (angle, weight) stands for weight * exp(2*pi*i*angle).  The
    canonical form folds angles into [0,1), merges equal angles, drops zero
    weights and sorts; equality goes one step further and is equality of the
    represented numbers, decided exactly by `_vanishes` (e.g. the sum of the
    two square roots of unity equals zero)."""

    _fields = ("terms",)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircleValue):
            return NotImplemented
        if self.terms == other.terms:
            return True
        return _vanishes(
            self.terms + tuple((a, -w) for a, w in other.terms)
        )

    __hash__ = None  # semantic equality is coarser than the term tuples

    @classmethod
    def _merged(cls, pairs: Iterable[tuple[Fraction, Fraction]]) -> "CircleValue":
        """Canonical form of terms whose angles are Fractions in [0, 1) and
        whose weights are Fractions."""
        acc: dict[Fraction, Fraction] = {}
        for a, w in pairs:
            acc[a] = acc[a] + w if a in acc else w
        return cls(tuple(sorted((a, w) for a, w in acc.items() if w)))

    @classmethod
    def rational(cls, x: Fraction | int | str) -> "CircleValue":
        return cls._merged([(_ORIGIN, Fraction(x))])

    @property
    def is_zero(self) -> bool:
        return not self.terms or _vanishes(self.terms)

    def __add__(self, other: "CircleValue") -> "CircleValue":
        return CircleValue._merged(self.terms + other.terms)

    def scaled(self, factor: Fraction | int) -> "CircleValue":
        # distinct angles stay distinct, and sorted
        return CircleValue(tuple((a, w * factor) for a, w in self.terms) if factor else ())

    def as_complex(self) -> complex:
        return sum(
            (float(w) * cmath.exp(2j * cmath.pi * float(a)) for a, w in self.terms),
            0j,
        )

    def to_doc(self) -> dict:
        return {
            "terms": [
                {"angle": str(a), "weight": str(w)} for a, w in self.terms
            ]
        }

    def format_terms(self) -> str:
        """The terms as a sum, for a value already known to be nonzero."""
        return " + ".join(f"{w}*z({a})" for a, w in self.terms)

    def __str__(self) -> str:
        return "0" if self.is_zero else self.format_terms()


CIRCLE_ZERO = CircleValue(())
_ORIGIN = Fraction(0)  # the angle of the rational part


class CircleMeasure(Record):
    """Probability measure: rational Haar weight plus rational-angle atoms,
    given as Fractions.  Each atom weight is checked as given, before atoms at
    equal angles (mod 1) merge and those of weight 0 are dropped."""

    _fields = ("haar", "atoms")

    def __init__(self, haar: Fraction, atoms: Iterable[tuple[Fraction, Fraction]] = ()):
        atoms = list(atoms)
        if haar < 0:
            raise GraphError("Haar weight must be nonnegative")
        if any(w < 0 for _, w in atoms):
            raise GraphError("atom weights must be positive")
        super().__init__(haar, CircleValue._merged((a % 1, w) for a, w in atoms).terms)
        if any(a.denominator > MAX_ANGLE_DENOMINATOR for a, _ in self.atoms):
            raise LimitError(f"atom angle denominators must not exceed {MAX_ANGLE_DENOMINATOR}")
        total = self.haar + sum((w for _, w in self.atoms), Fraction(0))
        if total != 1:
            raise GraphError(f"measure has total mass {total}, expected 1")

    @classmethod
    def haar_measure(cls) -> "CircleMeasure":
        return cls(Fraction(1))

    @classmethod
    def point_mass(cls, angle: Fraction | int | str) -> "CircleMeasure":
        return cls(_ORIGIN, [(Fraction(angle), Fraction(1))])

    @classmethod
    def from_doc(cls, doc: object) -> "CircleMeasure":
        if not isinstance(doc, dict):
            raise ParseError("measure document must be an object")
        haar = parse_rational(doc.get("haar", "0"))
        items = doc.get("atoms", [])
        if not isinstance(items, list):
            raise ParseError("measure atoms must be a list of atom records")
        atoms = []
        for item in items:
            if not isinstance(item, dict) or "angle" not in item or "weight" not in item:
                raise ParseError(f"malformed atom record {item!r}")
            atoms.append((parse_rational(item["angle"]), parse_rational(item["weight"])))
        try:
            return cls(haar, atoms)
        except LimitError:
            raise
        except GraphError as exc:
            raise ParseError(str(exc)) from None


def moment(measure: CircleMeasure, m: int) -> CircleValue:
    """Exact m-th moment: atoms contribute at angle m*theta, Haar only at m=0."""
    pairs = [(m * a % 1, w) for a, w in measure.atoms]
    if m == 0 and measure.haar != 0:
        pairs.append((_ORIGIN, measure.haar))
    return CircleValue._merged(pairs)


class Tag(Record):
    """Assignment of a circle measure to each tagged cyclic vertex."""

    _fields = ("measures",)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, CircleMeasure]) -> "Tag":
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def from_doc(cls, doc: object) -> "Tag":
        if not isinstance(doc, dict):
            raise ParseError("tag document must map vertices to measures")
        return cls.from_dict(
            {str(v): CircleMeasure.from_doc(m) for v, m in doc.items()}
        )

    @cached_property
    def _map(self) -> Mapping[str, CircleMeasure]:
        return dict(self.measures)

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self._map)

    def __getitem__(self, v: str) -> CircleMeasure:
        return self._map[v]


class TagViolation(Record):
    _fields = ("kind", "vertices", "message")  # kind is "domain" or "inconsistent"


def validate_tag(graph: Graph, trace: GraphTrace, tag: Tag) -> TagViolation | None:
    """Domain must equal the cyclic support; equivalent vertices (visited by
    the same class cycle of ``trace_structure``) must carry equal measures."""
    support = cyclic_support(graph, trace)
    if tag.vertices != support:
        missing = tuple(sorted(support - tag.vertices))
        extra = tuple(sorted(tag.vertices - support))
        parts = []
        if missing:
            parts.append(f"missing measures for {list(missing)}")
        if extra:
            parts.append(f"measures outside the cyclic support for {list(extra)}")
        return TagViolation("domain", missing + extra, "; ".join(parts))
    for cls_vertices in trace_structure(graph).classes:
        tagged = [v for v in cls_vertices if v in tag.vertices]
        if len(tagged) > 1:
            first = tag[tagged[0]]
            if any(tag[v] != first for v in tagged[1:]):
                return TagViolation(
                    "inconsistent",
                    tuple(tagged),
                    f"equivalent cyclic vertices {list(tagged)} carry different measures",
                )
    return None


def haar_tag(graph: Graph, trace: GraphTrace) -> Tag:
    """Constant-Haar tag on the cyclic support; always consistent."""
    return Tag.from_dict(
        {v: CircleMeasure.haar_measure() for v in cyclic_support(graph, trace)}
    )
