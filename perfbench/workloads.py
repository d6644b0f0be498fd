"""Seeded inputs and expected answers for the benchmark's workloads.

Each CLI workload function writes its input files into a directory and returns
its operations, each {"name", "kind", "args", "exit", "expect"}: the
cktrace command line, the exit code and the answer fields it must produce.
The same seed gives the same files.  The seed reaches only this module; the
program sees the files.

Expected answers come from closed forms where a graph family has one
(complete digraphs, lines, the verification suites of a tagged functional)
and from oracle.py otherwise.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracle

SUITES = ("traciality", "invariance", "gauge", "gram", "ck", "cylinder")

# Random dense digraphs: edge density 0.6, and a simple-path count within
# 8 % of the target for the vertex count, so that every seed asks the cycle
# enumeration for about the same work.
DENSE_PATH_TARGET = {7: 1100, 8: 5400, 9: 30000}
DENSE_PATH_BAND = 0.08

# Tagged functionals: two per angle denominator, plus one Haar functional.
TAG_DENOMINATORS = (12, 60, 360, 720)
# Monomial count of a verify graph at --max-len 4, which sets the traciality
# suite's work (it visits every pair).
VERIFY_MONOMIALS = (60, 110)


def _doc(vertices, edges):
    return {
        "vertices": list(vertices),
        "edges": [{"id": f"e{i}", "src": s, "dst": d} for i, (s, d) in enumerate(edges)],
    }


def complete_digraph(n: int) -> dict:
    vs = [f"v{i}" for i in range(n)]
    return _doc(vs, [(a, b) for a in vs for b in vs if a != b])


def line(n: int) -> dict:
    """v1 <- v2 <- ... <- vn: one source, one sink."""
    vs = [f"v{i}" for i in range(1, n + 1)]
    return _doc(vs, [(vs[i + 1], vs[i]) for i in range(n - 1)])


def in_star(n: int) -> dict:
    """A centre receiving one edge from each of n - 1 leaves."""
    leaves = [f"l{i}" for i in range(1, n)]
    return _doc(["c"] + leaves, [(leaf, "c") for leaf in leaves])


def binary_in_tree(n: int) -> dict:
    """Heap-numbered tree: t_i receives from t_2i and t_2i+1."""
    vs = [f"t{i}" for i in range(1, n + 1)]
    return _doc(vs, [(vs[j - 1], vs[j // 2 - 1]) for j in range(2, n + 1)])


def cycle_dag(n: int, c: int) -> dict:
    """An entry-less c-cycle emitting into a DAG: each later vertex receives
    from the vertex just before it and from the one three places back."""
    order = [f"u{i}" for i in range(c)] + [f"d{j}" for j in range(n - c)]
    edges = [(order[i], order[(i + 1) % c]) for i in range(c)]
    for k in range(c, n):
        edges.append((order[k - 1], order[k]))
        if k >= 3:
            edges.append((order[k - 3], order[k]))
    return _doc(order, edges)


def simple_path_count(doc) -> int:
    """Number of vertex-distinct walks, trivial ones included (bitmask DP)."""
    index = {v: i for i, v in enumerate(doc["vertices"])}
    n = len(index)
    succ = [[] for _ in range(n)]
    for e in doc["edges"]:
        succ[index[e["src"]]].append(index[e["dst"]])
    level = {(1 << v, v): 1 for v in range(n)}
    total = 0
    while level:
        nxt: dict = {}
        for (mask, v), count in level.items():
            total += count
            for w in succ[v]:
                if not mask >> w & 1:
                    key = (mask | 1 << w, w)
                    nxt[key] = nxt.get(key, 0) + count
        level = nxt
    return total


def monomial_count(doc, max_len: int) -> int:
    """Pairs of paths with a common start and lengths <= max_len."""
    vs = doc["vertices"]
    total = 0
    for v in vs:
        walks = {w: int(w == v) for w in vs}
        paths = 1
        for _ in range(max_len):
            nxt = {w: 0 for w in vs}
            for e in doc["edges"]:
                nxt[e["dst"]] += walks[e["src"]]
            walks = nxt
            paths += sum(walks.values())
        total += paths * paths
    return total


def random_dense(rng: random.Random, n: int) -> dict:
    vs = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for a in vs for b in vs if a != b]
    target = DENSE_PATH_TARGET[n]
    while True:
        doc = _doc(vs, sorted(rng.sample(pairs, math.ceil(0.6 * len(pairs)))))
        if abs(simple_path_count(doc) - target) <= DENSE_PATH_BAND * target:
            return doc


def random_sparse(rng: random.Random, core: int = 8) -> dict:
    """A tight core of `core` vertices (an entry-less cycle or one or two
    sources on top, each later vertex receiving one or two edges from
    earlier ones) plus a doubly looped vertex x and its successor y, which
    tightening removes.  x also feeds a core vertex with other inputs."""
    order = [f"k{i}" for i in range(core)]
    edges = []
    if rng.random() < 0.5:
        top = rng.randint(1, 3)
        edges += [(order[i], order[(i + 1) % top]) for i in range(top)]
    else:
        top = rng.randint(1, 2)
    for k in range(top, core):
        for src in rng.sample(order[:k], min(k, rng.randint(1, 2))):
            edges.append((src, order[k]))
    target = rng.choice(order[top:])
    edges += [("x", "x"), ("x", "x"), ("x", "y"), ("x", target)]
    return _doc(order + ["x", "y"], edges)


def random_tagged_graph(rng: random.Random) -> tuple[dict, list[str]]:
    """Tight graph on at most 5 vertices: an entry-less cycle of length 1-3
    emitting into a small DAG.  Returns the graph and the cycle in order."""
    while True:
        c = rng.randint(1, 3)
        cycle = [f"c{i}" for i in range(c)]
        order = cycle + [f"d{j}" for j in range(rng.randint(1, 5 - c))]
        edges = [(cycle[i], cycle[(i + 1) % c]) for i in range(c)]
        for k in range(c, len(order)):
            for src in rng.sample(order[:k], min(k, rng.randint(1, 2))):
                edges.append((src, order[k]))
        doc = _doc(order, edges)
        low, high = VERIFY_MONOMIALS
        if low <= monomial_count(doc, 4) <= high:
            return doc, cycle


def _write(directory: Path, name: str, doc) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def complete_digraph_facts(n: int) -> dict:
    """Closed form for K_n, n >= 3: every vertex emits an entry, so nothing
    survives tightening and no trace exists.  (K_2 is one entry-less cycle.)"""
    return {"tight": False, "removed": sorted(complete_digraph(n)["vertices"]),
            "cyclic_classes": [], "auto_gauge": True}


def line_points(n: int) -> list[dict]:
    """Closed form for line_n: one extreme trace, uniform at 1/n."""
    return [{f"v{i}": str(Fraction(1, n)) for i in range(1, n + 1)}]


def _structure_ops(name, path, doc, commands, points=None, facts=None):
    facts = facts or oracle.structure(doc)
    ops = []
    for command in commands:
        if command == "analyze":
            expect = dict(facts)
        elif command == "tighten":
            expect = {"removed": facts["removed"]}
        else:
            if points is None:
                points = oracle.lifted_extreme_traces(doc, facts["removed"])
            expect = {"removed": facts["removed"], "points": points}
        ops.append(
            {"name": f"{command}:{name}", "kind": command, "args": [command, path],
             "exit": 0, "expect": expect}
        )
    return ops


def dense_analyze(seed: int, directory: Path) -> list[dict]:
    rng = random.Random(f"dense-analyze/{seed}")
    ops = []
    commands = ("analyze", "tighten", "traces")
    for n in (5, 6, 7, 8):
        doc = complete_digraph(n)
        ops += _structure_ops(f"K{n}", _write(directory, f"K{n}", doc), doc, commands,
                              points=[], facts=complete_digraph_facts(n))
    for i, n in enumerate((7, 7, 8, 8, 9, 9)):
        name = f"dense{i}-{n}"
        doc = random_dense(rng, n)
        ops += _structure_ops(name, _write(directory, name, doc), doc, commands)
    return ops


def sparse_traces(seed: int, directory: Path) -> list[dict]:
    rng = random.Random(f"sparse-traces/{seed}")
    graphs = [(f"line{n}", line(n), line_points(n)) for n in (6, 7, 8, 9)]
    graphs += [(f"star{n}", in_star(n), None) for n in (6, 7, 8, 9)]
    graphs += [(f"tree{n}", binary_in_tree(n), None) for n in (7, 9)]
    graphs += [("cycledag7", cycle_dag(7, 2), None), ("cycledag9", cycle_dag(9, 3), None)]
    # Seeded cores of 8 and 7 vertices; the four 7-vertex ones cost about as
    # much as line_7, so the tail percentile falls inside a group of
    # similar operations rather than on the edge between two groups.
    cores = (8, 8, 8, 7, 7, 7, 7)
    graphs += [(f"sparse{i}-{n}", random_sparse(rng, n), None) for i, n in enumerate(cores)]
    ops = []
    for name, doc, points in graphs:
        path = _write(directory, name, doc)
        ops += _structure_ops(name, path, doc, ("traces", "analyze"), points)
    return ops


def _tag(rng: random.Random, denominator: int) -> dict:
    """A circle measure with atoms whose angles have the given common
    denominator and whose first moment cannot vanish."""
    numerators = [k for k in range(1, denominator) if math.gcd(k, denominator) == 1]
    style = TAG_DENOMINATORS.index(denominator) % 3
    if style == 0:
        atoms, haar = [(rng.choice(numerators), "1")], "0"
    elif style == 1:
        a, b = rng.sample(numerators, 2)
        atoms, haar = [(a, "1/3"), (b, "2/3")], "0"
    else:
        atoms, haar = [(rng.choice(numerators), "1/2")], "1/2"
    return {
        "haar": haar,
        "atoms": [{"angle": str(Fraction(k, denominator)), "weight": w} for k, w in atoms],
    }


def verify_tagged(seed: int, directory: Path) -> list[dict]:
    rng = random.Random(f"verify-tagged/{seed}")
    ops = []
    functionals = [(d, f"tag{d}{copy}") for d in TAG_DENOMINATORS for copy in "ab"]
    for denominator, label in functionals + [(None, "haar")]:
        doc, cycle = random_tagged_graph(rng)
        (point,) = oracle.tight_extreme_traces(doc)
        mass = dict(zip(sorted(doc["vertices"]), point))
        trace = {"values": {v: str(x) for v, x in mass.items()}}
        if denominator is None:
            functional = {"kind": "haar", "trace": trace}
            atoms = []
        else:
            measure = _tag(rng, denominator)
            functional = {"kind": "tagged", "trace": trace,
                          "tag": {v: measure for v in cycle}}
            atoms = [(Fraction(a["angle"]), Fraction(a["weight"])) for a in measure["atoms"]]
        gpath = _write(directory, f"{label}-graph", doc)
        fpath = _write(directory, f"{label}-functional", functional)
        # Closed form: a trace functional passes every suite but gauge, and
        # breaks gauge invariance exactly when its tag has an atom.
        suites = {s: s != "gauge" or not atoms for s in SUITES}
        lengths = ["4", "5"] if label == "tag60a" else ["4"]
        for max_len in lengths:
            ops.append({"name": f"verify:{label}:L{max_len}", "kind": "verify",
                        "args": ["verify", gpath, fpath, "--max-len", max_len],
                        "exit": 0, "expect": {"suites": suites}})
        # The cycle read from its first vertex, range-to-source: with edges
        # e0 .. e(c-1) around it, the literal is "e(c-1). ... .e0".  Its
        # value is the trace mass times the tag's first moment.
        base = cycle[0]
        around = ".".join(f"e{i}" for i in reversed(range(len(cycle))))
        evals = [(f"{around}|@{base}", [(a, w * mass[base]) for a, w in atoms])]
        if atoms:
            evals.append((f"@{base}|{around}", [(-a, w * mass[base]) for a, w in atoms]))
        else:
            below = sorted(set(doc["vertices"]) - set(cycle))[0]
            evals.append((f"@{below}|@{below}", [(0, mass[below])]))
        for monomial, pairs in evals:
            ops.append({"name": f"eval:{label}:{monomial}", "kind": "eval",
                        "args": ["eval", gpath, fpath, monomial],
                        "exit": 0, "expect": {"terms": oracle.circle_terms(pairs)}})
    return ops


def battery_expected(graphs: list[dict]) -> list[dict]:
    """Per battery graph: the removed set and the extreme traces of its
    minimal tightening (value strings in vertex order)."""
    out = []
    for doc in graphs:
        removed = oracle.structure(doc)["removed"]
        points = oracle.tight_extreme_traces(oracle.tight_subgraph(doc, removed))
        out.append({"removed": removed, "points": [[str(x) for x in p] for p in points]})
    return out


CLI_WORKLOADS = {
    "dense-analyze": dense_analyze,
    "sparse-traces": sparse_traces,
    "verify-tagged": verify_tagged,
}
