"""The CLI's reports pinned byte for byte.

Each command runs on a fixed list of graphs: the seeded battery, and lines,
loop-fed lines (with and without an entry) and in-stars of up to 300
vertices.  One SHA-256 per command covers the exit code and stdout of every
run, so a change to the structure or traces layers that alters any report,
or the order of its fields, fails here.  ``verify`` runs a Haar functional,
whose values are all rational, on the first extreme point of each graph of
at most 12 vertices.
"""

import contextlib
import hashlib
import io
import json

import pytest

from cktrace import Graph
from cktrace.cli import main
from cktrace.fuzz import graph_battery
from reference import in_star, line, loop_fed_line

SIZES = (1, 2, 3, 5, 12, 40, 300)
VERIFY_MAX_VERTICES = 12


def pinned_graphs() -> list[Graph]:
    graphs = graph_battery(20260810, 100)
    for n in SIZES:
        graphs += [line(n), loop_fed_line(n, False), loop_fed_line(n, True), in_star(n)]
    return graphs


DIGESTS = {
    "analyze": "eb987f58921a12f2f15455f2a318f055c4aa66a39bfa73f897b6447326b9f6ab",
    "tighten": "093ca6c839e81f30c2883c8e6b522598e279131e696d024e9e48210d30971b1d",
    "tighten --mode=left": "31b2abd30fa7c58e12e2b11eb9b0a71355e7d85b95cadfa5a2e0fa3cd715b8d6",
    "traces": "4c9007cd0fc3fd719e6a4e7e1d7ed829e21a436e6faeba4e0f117c5f3e5f12d9",
    "verify --max-len 2": "093a4e9aacb46a634ec3db89c4e563d330cdf48b9a35f95d6417146f5c12e9fa",
}


def report_digests(tmp_path) -> dict[str, str]:
    digests = {name: hashlib.sha256() for name in DIGESTS}

    def record(name: str, *argv: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        digests[name].update(f"{code}\n{out.getvalue()}".encode("utf-8"))
        return out.getvalue()

    for i, g in enumerate(pinned_graphs()):
        path = tmp_path / f"graph{i}.json"
        path.write_text(json.dumps(g.to_doc()))
        record("analyze", "analyze", str(path))
        record("tighten", "tighten", str(path))
        record("tighten --mode=left", "tighten", "--mode=left", str(path))
        points = json.loads(record("traces", "traces", str(path)))["extreme_points"]
        if points and len(g.vertices) <= VERIFY_MAX_VERTICES:
            functional = tmp_path / f"haar{i}.json"
            functional.write_text(json.dumps({"kind": "haar", "trace": {"values": points[0]["values"]}}))
            record("verify --max-len 2", "verify", str(path), str(functional), "--max-len", "2")
    return {name: h.hexdigest() for name, h in digests.items()}


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    return report_digests(tmp_path_factory.mktemp("pins"))


@pytest.mark.parametrize("name", list(DIGESTS))
def test_reports_match_their_pins(digests, name):
    assert digests[name] == DIGESTS[name]
