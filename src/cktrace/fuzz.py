"""Seeded random graphs for the verification battery.

Graphs are kept at desk scale and filtered by a path budget so that the
exhaustive monomial suites stay fast; the budget only skews the sample,
never the checks.
"""

from __future__ import annotations

import random
from collections import Counter

from .graph import Edge, Graph

BATTERY_MAX_VERTICES = 6
BATTERY_MAX_EDGES = 10
MONOMIAL_BUDGET = 250


def random_graph(
    rng: random.Random,
    max_vertices: int = BATTERY_MAX_VERTICES,
    max_edges: int = BATTERY_MAX_EDGES,
) -> Graph:
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    m = rng.randint(0, max_edges)
    edges = [
        Edge(f"e{j}", rng.choice(vertices), rng.choice(vertices))
        for j in range(1, m + 1)
    ]
    return Graph(vertices, edges)


def monomial_count(graph: Graph, max_len: int, cap: int | None = None) -> int:
    """Number of common-source path pairs at the given bound, via counting
    (no enumeration), used to budget the exhaustive suites.

    One pass per source vertex counts the paths of each length at once and
    stops when a level dies out.  With a cap, counting stops as soon as the
    total passes it, and the partial total returned is already above it, so
    any bound is decided quickly."""
    if max_len < 0:
        return 0
    total = 0
    for v in graph.vertices:
        level, paths = Counter({v: 1}), 1
        for _ in range(max_len):
            nxt = Counter()
            for u, k in level.items():
                for e in graph.emitters(u):
                    nxt[e.dst] += k
            if not nxt:
                break
            level, paths = nxt, paths + sum(nxt.values())
            if cap is not None and total + paths * paths > cap:
                return total + paths * paths
        total += paths * paths
    return total


def graph_battery(
    seed: int,
    count: int,
    max_vertices: int = BATTERY_MAX_VERTICES,
    max_edges: int = BATTERY_MAX_EDGES,
    budget: int = MONOMIAL_BUDGET,
) -> list[Graph]:
    """Deterministic list of random graphs within the suite budget."""
    rng = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        g = random_graph(rng, max_vertices, max_edges)
        if monomial_count(g, 3) <= budget:
            out.append(g)
    return out
