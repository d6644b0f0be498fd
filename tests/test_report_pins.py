"""The CLI's reports pinned byte for byte.

Each command runs on a fixed list of graphs: the seeded battery, and lines,
loop-fed lines (with and without an entry) and in-stars of up to 300
vertices.  One SHA-256 per command covers the exit code, stdout and stderr
of every run, so a change that alters any report, error message, or the
order of a report's fields, fails here.  ``verify`` runs a Haar functional,
whose values are all rational, on the first extreme point of each graph of
at most 12 vertices.

The tagged and error reports run on the same graphs.  ``check-trace`` reads
the first extreme point, the point with one value raised, and the point
without its first vertex.  The first point with a nonempty cyclic support
gets a point-mass tag, one angle per graph; ``tag-check`` reads that tag,
the tag with its first vertex moved off the support, and the tag ``{}``.
``eval`` reads the first and second powers of each tagged vertex's cycle
on the minimal tightening, and ``verify --max-len 2`` the tagged
functional, whose gauge failure prints circle values.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from cktrace import Graph, cyclic_structure, format_path, tighten_min
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
    "verify --max-len 2": "2c29cdffcc9033fa6968f4ac85b1478c7344a234984f23ba2baabb24868868e5",
    "check-trace": "23b181ac1c31d45bc566b3e72b67e5277530c94622c9309b4f064fcd873efc22",
    "tag-check": "216e547796cb236a1ae53d9f7d8a596c189946f346c2ca804b3797985f7633e8",
    "eval": "bd2b704d2c49e02727e3b019cfdc41a82e18854c850a1d5e991aa485a34d84c7",
    "verify --max-len 2, tagged": "26111c8f047836849e942bab1ca3f8610faf52d8e1e43a45cdfe36098092fb29",
}


def point_mass_tag(vertices, i: int) -> dict:
    """One point mass for every vertex, at an angle whose denominator grows
    with i, so that equivalent vertices agree."""
    angle = Fraction(i % 5 + 1, 12 + 7 * i)
    measure = {"haar": "0", "atoms": [{"angle": str(angle), "weight": "1"}]}
    return {v: measure for v in vertices}


def report_digests(tmp_path) -> dict[str, str]:
    digests = {name: hashlib.sha256() for name in DIGESTS}

    def record(name: str, *argv: str) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        digests[name].update(f"{code}\n{out.getvalue()}{err.getvalue()}".encode("utf-8"))
        return out.getvalue()

    def document(name: str, doc: object) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    for i, g in enumerate(pinned_graphs()):
        path = document(f"graph{i}.json", g.to_doc())
        record("analyze", "analyze", path)
        record("tighten", "tighten", path)
        record("tighten --mode=left", "tighten", "--mode=left", path)
        points = json.loads(record("traces", "traces", path))["extreme_points"]
        if not points:
            continue
        small = len(g.vertices) <= VERIFY_MAX_VERTICES
        values = points[0]["values"]
        if small:
            functional = document(f"haar{i}.json", {"kind": "haar", "trace": {"values": values}})
            record("verify --max-len 2", "verify", path, functional, "--max-len", "2")
        last = g.vertices[-1]
        raised = dict(values, **{last: str(Fraction(values[last]) + Fraction(1, i + 2))})
        for j, trace in enumerate((values, raised, dict(list(values.items())[1:]))):
            record("check-trace", "check-trace", path, document(f"trace{i}-{j}.json", {"values": trace}))
        tagged = next((p for p in points if p["cyclic_support"]), None)
        if tagged is None:
            continue
        support = tagged["cyclic_support"]
        trace = document(f"tagged-trace{i}.json", {"values": tagged["values"]})
        tag = point_mass_tag(support, i)
        outside = [v for v in g.vertices if v not in support][:1]
        for j, doc in enumerate((tag, point_mass_tag(support[1:] + outside, i), {})):
            record("tag-check", "tag-check", path, trace, document(f"tag{i}-{j}.json", doc))
        functional = document(f"tagged{i}.json",
                              {"kind": "tagged", "trace": {"values": tagged["values"]}, "tag": tag})
        cycles = cyclic_structure(tighten_min(g)[0]).cycle_at  # the support's cycles
        for v in support[:3]:
            cycle = format_path(cycles[v])
            for monomial in (f"{cycle}|@{v}", f"{cycle}.{cycle}|{cycle}"):
                record("eval", "eval", path, functional, monomial)
        if small:
            record("verify --max-len 2, tagged", "verify", path, functional, "--max-len", "2")
    return {name: h.hexdigest() for name, h in digests.items()}


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    return report_digests(tmp_path_factory.mktemp("pins"))


@pytest.mark.parametrize("name", list(DIGESTS))
def test_reports_match_their_pins(digests, name):
    assert digests[name] == DIGESTS[name]
