"""Shared fixture graphs for the whole suite.  The reference definitions
the tests compare against are in ``reference``."""

from fractions import Fraction

import pytest

from cktrace.graph import Edge, Graph
from cktrace.traces import GraphTrace


@pytest.fixture
def loop_graph() -> Graph:
    """One vertex with a single loop."""
    return Graph(["v"], [Edge("e", "v", "v")])


@pytest.fixture
def two_loops() -> Graph:
    """One vertex with two loops (each loop is an entry to the other)."""
    return Graph(["v"], [Edge("e1", "v", "v"), Edge("e2", "v", "v")])


@pytest.fixture
def line3() -> Graph:
    """v1 <- v2 <- v3: edge a from v2 to v1, edge b from v3 to v2."""
    return Graph(["v1", "v2", "v3"], [Edge("a", "v2", "v1"), Edge("b", "v3", "v2")])


@pytest.fixture
def loop_with_entry() -> Graph:
    """Loop e at v plus an entry edge f from u into v."""
    return Graph(["v", "u"], [Edge("e", "v", "v"), Edge("f", "u", "v")])


@pytest.fixture
def two_cycle() -> Graph:
    """Two vertices on one entry-less cycle: a from v to w, b from w to v."""
    return Graph(["v", "w"], [Edge("a", "v", "w"), Edge("b", "w", "v")])


@pytest.fixture
def disjoint_loops() -> Graph:
    """Two components, each a single loop."""
    return Graph(["v", "w"], [Edge("lv", "v", "v"), Edge("lw", "w", "w")])


@pytest.fixture
def figure_eight() -> Graph:
    """Two loops sharing no vertex but joined by a connector: loop at v,
    loop at w, edge c from v to w (so v emits an entry into w's loop)."""
    return Graph(
        ["v", "w"],
        [Edge("p", "v", "v"), Edge("q", "w", "w"), Edge("c", "v", "w")],
    )


def trace_of(values: dict) -> GraphTrace:
    return GraphTrace.from_values({v: Fraction(x) for v, x in values.items()})

