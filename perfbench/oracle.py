"""Independent answers for the benchmark, and the comparison of reports.

Nothing here imports cktrace.  The structure answers come from strongly
connected components and in-degrees, and the extreme traces of a tight graph
are built directly as the vertices of a simplex, one per source vertex and
one per entry-less cycle.  selftest.py cross-checks both against sympy and
networkx on the default and the held-out seed.

Graphs are plain documents: {"vertices": [...], "edges": [{"id", "src",
"dst"}]}; an edge starts at "src" and ends at ("is received by") "dst".
"""

from __future__ import annotations

from fractions import Fraction


def _adjacency(doc):
    vertices = list(doc["vertices"])
    out = {v: [] for v in vertices}
    into = {v: [] for v in vertices}
    for e in doc["edges"]:
        out[e["src"]].append(e["dst"])
        into[e["dst"]].append(e["src"])
    return vertices, out, into


def strong_components(vertices, out):
    """Map vertex -> component index (iterative Tarjan)."""
    index, low, comp = {}, {}, {}
    stack, on_stack = [], set()
    counter = labels = 0
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(out[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, children = work[-1]
            advanced = False
            for w in children:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(out[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = labels
                    if w == v:
                        break
                labels += 1
    return comp


def structure(doc) -> dict:
    """Tightness, removed set, cyclic classes and the gauge verdict.

    A vertex lies on a cycle exactly when its component has an edge inside
    it.  A received edge is an entry of some cycle through its endpoint
    unless it is that endpoint's only edge from inside the component.  An
    entry-less cycle is a whole component whose vertices each receive one
    edge.  The removed set saturates everything that reaches an entry.
    """
    vertices, out, into = _adjacency(doc)
    comp = strong_components(vertices, out)
    cyclic_comps = {comp[e["src"]] for e in doc["edges"] if comp[e["src"]] == comp[e["dst"]]}
    on_cycle = {v for v in vertices if comp[v] in cyclic_comps}
    entry_starts = set()
    for w in on_cycle:
        inside = [u for u in into[w] if comp[u] == comp[w]]
        starts = list(into[w])
        if len(inside) == 1:
            starts.remove(inside[0])
        entry_starts.update(starts)
    emitters = set(entry_starts)
    frontier = list(entry_starts)
    while frontier:
        for u in into[frontier.pop()]:
            if u not in emitters:
                emitters.add(u)
                frontier.append(u)
    removed = set(emitters)
    changed = True
    while changed:
        changed = False
        for v in vertices:
            if v not in removed and into[v] and all(u in removed for u in into[v]):
                removed.add(v)
                changed = True
    members = {}
    for v in on_cycle:
        members.setdefault(comp[v], []).append(v)
    classes = sorted(
        sorted(vs) for vs in members.values() if all(len(into[v]) == 1 for v in vs)
    )
    return {
        "tight": not entry_starts,
        "removed": sorted(removed),
        "cyclic_classes": classes,
        "auto_gauge": on_cycle <= emitters,
    }


def tight_subgraph(doc, removed) -> dict:
    gone = set(removed)
    return {
        "vertices": [v for v in doc["vertices"] if v not in gone],
        "edges": [e for e in doc["edges"] if e["src"] not in gone],
    }


def _census(vertices, out, into, seeds, skip_edges):
    """Path counts from the seed vertices through the acyclic part below them."""
    reach = set(seeds)
    frontier = list(seeds)
    while frontier:
        for w in out[frontier.pop()]:
            if w not in reach:
                reach.add(w)
                frontier.append(w)
    counts = {v: 0 for v in vertices}
    for s in seeds:
        counts[s] = 1
    pending = {
        v: sum(1 for u in into[v] if u in reach and (u, v) not in skip_edges)
        for v in reach
        if v not in seeds
    }
    ready = list(seeds)
    while ready:
        u = ready.pop()
        for w in out[u]:
            if (u, w) in skip_edges or w in seeds:
                continue
            counts[w] += counts[u]
            pending[w] -= 1
            if pending[w] == 0:
                ready.append(w)
    if any(pending.values()):
        raise ValueError("graph is not tight below the seeds")
    return counts


def tight_extreme_traces(doc) -> list[tuple[Fraction, ...]]:
    """Extreme normalized traces of a tight graph, as value tuples in vertex
    order, sorted: the path census from each source vertex and from each
    entry-less cycle."""
    vertices, out, into = _adjacency(doc)
    generators = [[v] for v in vertices if not into[v]]
    generators += structure(doc)["cyclic_classes"]
    points = []
    for seeds in generators:
        cycle_edges = {(u, v) for v in seeds for u in into[v]}
        counts = _census(vertices, out, into, set(seeds), cycle_edges)
        total = sum(counts.values())
        points.append(tuple(Fraction(counts[v], total) for v in sorted(vertices)))
    return sorted(points)


def lifted_extreme_traces(doc, removed) -> list[dict]:
    """Extreme traces of the minimal tightening, zero-extended to the graph,
    as {vertex: "p/q"} documents sorted by their value tuples."""
    sub = tight_subgraph(doc, removed)
    names = sorted(sub["vertices"])
    out = []
    for point in tight_extreme_traces(sub):
        values = {v: "0" for v in doc["vertices"]}
        values.update({v: str(x) for v, x in zip(names, point)})
        out.append(values)
    return sorted(out, key=_point_key)


def _point_key(values: dict):
    return tuple(Fraction(values[v]) for v in sorted(values))


def circle_terms(pairs) -> list[list[str]]:
    """Canonical form of a sum of weight*z(angle): angles folded into [0, 1),
    equal angles merged, zero weights dropped, sorted."""
    acc: dict[Fraction, Fraction] = {}
    for angle, weight in pairs:
        a = Fraction(angle) % 1
        acc[a] = acc.get(a, Fraction(0)) + Fraction(weight)
    return [[str(a), str(w)] for a, w in sorted(acc.items()) if w != 0]


# -- comparing a report with the expected fields ----------------------------


def semantic_fields(kind: str, report: dict) -> dict:
    """The fields of a CLI report that carry its answer.  Added keys and the
    free-text detail are not part of the answer."""
    if kind == "analyze":
        keys = ("removed", "cyclic_classes", "tight", "auto_gauge")
        return {k: report.get(k) for k in keys}
    if kind == "tighten":
        return {"removed": report.get("removed")}
    if kind == "traces":
        points = [p.get("values") for p in report.get("extreme_points", [])]
        return {"removed": report.get("removed"), "points": points}
    if kind == "verify":
        suites = report.get("suites", {})
        return {"suites": {name: s.get("passed") for name, s in suites.items()}}
    if kind == "eval":
        terms = report.get("value", {}).get("terms", [])
        return {"terms": [[t.get("angle"), t.get("weight")] for t in terms]}
    raise ValueError(f"unknown operation kind {kind!r}")


def compare(expected: dict, got: dict) -> str | None:
    """None when every expected field matches; otherwise the first mismatch."""
    for key, want in expected.items():
        have = got.get(key)
        if key == "points" and isinstance(have, list) and all(isinstance(p, dict) for p in have):
            try:
                have = sorted(have, key=_point_key)
            except (TypeError, ValueError, KeyError, ZeroDivisionError):
                pass  # malformed values fail the comparison unsorted
        if have != want:
            return f"{key}: expected {want!r}, got {have!r}"
    return None


def check_report(op: dict, exit_code: int | None, report: dict | None) -> str | None:
    """Failure reason for one CLI operation, or None when it is correct."""
    if exit_code is None:
        return "timed out"
    if exit_code != op["exit"]:
        return f"exit code {exit_code}, expected {op['exit']}"
    if not isinstance(report, dict):
        return "no JSON report"
    try:
        got = semantic_fields(op["kind"], report)
    except (AttributeError, TypeError):
        return "malformed report"
    return compare(op["expect"], got)
