#!/usr/bin/env python3
"""Survey the random-graph battery: how often the structural predicates hold
and how large the trace polytopes get.  Seeded and deterministic."""

import argparse
import time
from collections import Counter

from cktrace.fuzz import graph_battery
from cktrace.structure import auto_gauge_criterion, cyclic_support, is_tight, tighten_min
from cktrace.traces import extreme_traces


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--count", type=int, default=100)
    args = parser.parse_args()

    started = time.perf_counter()
    graphs = graph_battery(seed=args.seed, count=args.count)
    tight = sum(is_tight(g) for g in graphs)
    gauge = sum(auto_gauge_criterion(g) for g in graphs)
    histogram = Counter()
    tagged_points = 0
    for g in graphs:
        sub, _ = tighten_min(g)
        points = extreme_traces(sub)
        histogram[len(points)] += 1
        tagged_points += sum(bool(cyclic_support(sub, t)) for t in points)
    elapsed = time.perf_counter() - started

    print(f"battery seed={args.seed} count={args.count}  ({elapsed:.2f}s)")
    print(f"  tight graphs:            {tight}/{args.count}")
    print(f"  automatic gauge:         {gauge}/{args.count}")
    print(f"  extreme traces taggable: {tagged_points}")
    print("  polytope size histogram (extreme points -> graphs):")
    for size in sorted(histogram):
        print(f"    {size:3d} -> {histogram[size]}")


if __name__ == "__main__":
    main()
