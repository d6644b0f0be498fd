#!/usr/bin/env python3
"""Walk the canonical small graphs through the whole pipeline.

For each graph: structural analysis, minimal tightening, extreme traces,
and a tagged functional run through the verification suites.
"""

from fractions import Fraction

from cktrace.functionals import haar_tagged_functional, run_suites, tagged_functional
from cktrace.graph import Edge, Graph, format_path, simple_cycles
from cktrace.structure import auto_gauge_criterion, cyclic_support, is_tight, tighten_min
from cktrace.tagging import CircleMeasure, Tag
from cktrace.traces import extreme_traces, lift_trace

EXAMPLES = {
    "single loop": Graph(["v"], [Edge("e", "v", "v")]),
    "two loops": Graph(["v"], [Edge("e1", "v", "v"), Edge("e2", "v", "v")]),
    "line of three": Graph(
        ["v1", "v2", "v3"], [Edge("a", "v2", "v1"), Edge("b", "v3", "v2")]
    ),
    "loop with entry": Graph(
        ["v", "u"], [Edge("e", "v", "v"), Edge("f", "u", "v")]
    ),
    "two-vertex cycle": Graph(
        ["v", "w"], [Edge("a", "v", "w"), Edge("b", "w", "v")]
    ),
}


def main() -> None:
    for name, g in EXAMPLES.items():
        print(f"== {name} ==")
        print(f"  tight: {is_tight(g)}   auto-gauge: {auto_gauge_criterion(g)}")
        print(f"  simple cycles: {[format_path(c) for c in simple_cycles(g)]}")
        tight, removed = tighten_min(g)
        print(f"  tightening removes: {sorted(removed) or '-'}")
        points = extreme_traces(tight)
        if not points:
            print("  trace space: empty")
            print()
            continue
        for t in points:
            lifted = lift_trace(g, removed, t)
            support = sorted(cyclic_support(tight, t))
            print(f"  extreme trace {lifted.to_doc()['values']}  tags live on {support or '-'}")
            if support:
                tag = Tag.from_dict(
                    {v: CircleMeasure.point_mass(Fraction(1, 3)) for v in support}
                )
                fn = tagged_functional(tight, t, tag)
                label = "point-tagged (angle 1/3)"
            else:
                fn = haar_tagged_functional(tight, t)
                label = "haar-tagged"
            for result in run_suites(fn, max_len=4):
                print(f"    {label} {result.message()}")
        print()


if __name__ == "__main__":
    main()
