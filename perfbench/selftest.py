"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the emitted metric names are the ones BENCHMARK.json declares,
that the oracle counts a perturbed expected answer as a failure, that the
traced run's answers match the untimed run's, and that the oracle agrees
with networkx (structure) and sympy (extreme traces) on the inputs of the
default and the held-out seed.  Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from itertools import combinations
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (run.DEFAULT_SEED, run.HELD_OUT_SEED)
SCRATCH = run.ROOT / ".perfbench"


def scratch_dir():
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli(args) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "-m", "cktrace.cli", *args], cwd=run.ROOT,
                          env=run.child_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(proc.stdout) if proc.stdout.strip() else None


def battery_graphs() -> list[dict]:
    _, report = cli(["fuzz", "--seed", str(run.BATTERY_SEED), "--count", str(run.BATTERY_GRAPHS)])
    return report["graphs"]


class MetricNames(unittest.TestCase):
    def test_declared_names_and_units(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_emitted_names_and_traced_answers(self):
        timed = bench("battery", 0)
        self.assertTrue(timed["correct"], timed)
        self.assertEqual(set(timed["metrics"]), set(run.END_TO_END))
        # The traced run counts every traced answer that differs from the
        # untimed run's, or from the oracle, as a failure.
        for workload in ("verify-tagged", "battery"):
            traced = bench(workload, 1)
            self.assertTrue(traced["correct"], traced)
            self.assertEqual(traced["failed"], 0)
            self.assertEqual(set(traced["metrics"]), set(run.per_layer_units()))


class PerturbedAnswers(unittest.TestCase):
    def test_perturbed_expected_answer_fails(self):
        with scratch_dir() as tmp:
            directory = Path(tmp)
            ops = []
            for build in workloads.CLI_WORKLOADS.values():
                plan = build(run.DEFAULT_SEED, directory)
                kinds = {}
                for op in plan:
                    kinds.setdefault(op["kind"], op)
                ops += kinds.values()
            self.assertEqual({op["kind"] for op in ops},
                             {"analyze", "tighten", "traces", "verify", "eval"})
            for op in ops:
                code, report = cli(op["args"])
                self.assertIsNone(oracle.check_report(op, code, report), op["name"])
                for key in op["expect"]:
                    bad = copy.deepcopy(op)
                    bad["expect"][key] = perturb(bad["expect"][key])
                    self.assertIsNotNone(oracle.check_report(bad, code, report), (op["name"], key))
                bad = dict(op, exit=1)
                self.assertIsNotNone(oracle.check_report(bad, code, report))
                self.assertIsNotNone(oracle.check_report(op, None, report))

    def test_perturbed_battery_answer_fails(self):
        graphs = battery_graphs()[:5]
        expected = workloads.battery_expected(graphs)
        for want in expected:
            self.assertIsNone(oracle.compare(want, dict(want)))
            for key in want:
                bad = dict(want, **{key: perturb(want[key])})
                self.assertIsNotNone(oracle.compare(bad, want))


def perturb(value):
    """A nearby wrong answer of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, dict):
        if not value:
            return {"extra": True}
        key = sorted(value)[0]
        return dict(value, **{key: perturb(value[key])})
    if isinstance(value, list):
        return value[1:] if value else [["1/2", "1"]]
    if isinstance(value, str):
        return value + "1"
    raise TypeError(value)


# -- the oracle against independent solvers ---------------------------------


def networkx_structure(doc) -> dict:
    """Removed set, classes and verdicts from an explicit list of the simple
    cycles (networkx)."""
    import networkx as nx

    g = nx.MultiDiGraph()
    g.add_nodes_from(doc["vertices"])
    g.add_edges_from((e["src"], e["dst"], e["id"]) for e in doc["edges"])
    into = {v: [e for e in doc["edges"] if e["dst"] == v] for v in doc["vertices"]}
    entry_starts, classes, on_cycle = set(), [], set()
    for cycle in nx.simple_cycles(g):
        on_cycle.update(cycle)
        entries = []
        for i, w in enumerate(cycle):
            # Any one edge from the previous cycle vertex can be the cycle's.
            own = [e for e in into[w] if e["src"] == cycle[i - 1]]
            entries += [e for e in into[w] if len(own) > 1 or e is not own[0]]
        entry_starts.update(e["src"] for e in entries)
        if not entries:
            classes.append(sorted(cycle))
    emitters = set(entry_starts)
    for s in entry_starts:
        emitters |= nx.ancestors(g, s)
    removed = set(emitters)
    changed = True
    while changed:
        changed = False
        for v in doc["vertices"]:
            if v not in removed and into[v] and all(e["src"] in removed for e in into[v]):
                removed.add(v)
                changed = True
    return {"tight": not entry_starts, "removed": sorted(removed),
            "cyclic_classes": sorted(classes), "auto_gauge": on_cycle <= emitters}


def sympy_extreme_traces(doc) -> list[tuple]:
    """Vertex enumeration by zero patterns: the unique nonnegative solutions
    of the trace equalities, normalisation and a set of zeros."""
    import sympy

    vs = sorted(doc["vertices"])
    n = len(vs)
    if n == 0:
        return []
    rows = [[1] * n + [1]]
    for i, v in enumerate(vs):
        incoming = [e["src"] for e in doc["edges"] if e["dst"] == v]
        if incoming:
            row = [0] * (n + 1)
            row[i] += 1
            for u in incoming:
                row[vs.index(u)] -= 1
            rows.append(row)
    points = set()
    for k in range(n + 1):
        for zeros in combinations(range(n), k):
            system = rows + [[int(j == z) for j in range(n)] + [0] for z in zeros]
            m = sympy.Matrix(system)
            if m[:, :n].rank() < n or m.rank() > n:
                continue
            reduced, _ = m.rref()
            solution = tuple(Fraction(int(x.p), int(x.q)) for x in reduced[:n, n])
            if all(x >= 0 for x in solution):
                points.add(solution)
    return sorted(points)


def seeded_graphs(limit_vertices: int) -> list[dict]:
    out = []
    with scratch_dir() as tmp:
        for seed in SEEDS:
            for build in workloads.CLI_WORKLOADS.values():
                for op in build(seed, Path(tmp)):
                    doc = json.loads(Path(op["args"][1]).read_text())
                    if len(doc["vertices"]) <= limit_vertices and doc not in out:
                        out.append(doc)
    return out


class OracleCrossCheck(unittest.TestCase):
    def test_structure_matches_networkx(self):
        graphs = seeded_graphs(9) + battery_graphs()
        for doc in graphs:
            self.assertEqual(oracle.structure(doc), networkx_structure(doc), doc)

    def test_closed_forms_match_oracle(self):
        for n in (3, 5, 8):
            doc = workloads.complete_digraph(n)
            self.assertEqual(oracle.structure(doc), workloads.complete_digraph_facts(n))
        for n in (2, 6, 9):
            doc = workloads.line(n)
            self.assertEqual(oracle.lifted_extreme_traces(doc, []), workloads.line_points(n))

    def test_extreme_traces_match_sympy(self):
        graphs = seeded_graphs(7) + battery_graphs()
        for doc in graphs:
            removed = oracle.structure(doc)["removed"]
            sub = oracle.tight_subgraph(doc, removed)
            self.assertEqual(oracle.tight_extreme_traces(sub), sympy_extreme_traces(sub), doc)


if __name__ == "__main__":
    unittest.main()
