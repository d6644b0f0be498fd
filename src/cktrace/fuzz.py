"""Seeded random graphs for the verification battery.

Graphs are kept at desk scale and filtered by a path budget so that the
exhaustive monomial suites stay fast; the budget only skews the sample,
never the checks.  ``monomial_count`` comes from ``graph``.
"""

from __future__ import annotations

import random

from .graph import Edge, Graph, monomial_count

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


def graph_battery(
    seed: int,
    count: int,
    max_vertices: int = BATTERY_MAX_VERTICES,
    max_edges: int = BATTERY_MAX_EDGES,
) -> list[Graph]:
    """Deterministic list of random graphs within the suite budget."""
    rng = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        g = random_graph(rng, max_vertices, max_edges)
        if monomial_count(g, 3) <= MONOMIAL_BUDGET:
            out.append(g)
    return out
