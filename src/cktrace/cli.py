"""Command-line pipeline: analyze, tighten, enumerate traces, tag, verify.

Every command emits a single JSON report with a stable schema and ordering.
Exit codes: 0 success / all checks passed, 1 a property check failed,
2 malformed or invalid input, reported on stderr as {"error", "kind"}.

Only ``graph`` runs with this module.  The package registers its other
layers as lazily loaded modules, which this module imports like any other
and calls through, so a layer runs its code only when a command first uses
it: ``analyze`` and ``tighten`` load ``graph`` and ``structure``,
``traces`` adds ``traces``, ``check-trace`` loads ``graph`` and
``traces``, ``tag-check`` adds ``structure`` and ``tagging``, ``verify``
and ``eval`` load ``functionals`` and the layers it builds on, and
``fuzz`` adds ``fuzz``.
"""

from __future__ import annotations

import argparse
import json
import sys

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL at start-up
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # a build without the interpreter's own SHA-256
        from hashlib import sha256

from . import functionals, fuzz, structure, tagging, traces
from .graph import (
    Graph,
    LimitError,
    ParseError,
    cyclic_structure,
    load_json,
    monomial_count,
    parse_graph,
)


SCHEMA_VERSION = "1"
MAX_MONOMIALS = 2000  # verify's bound on the monomial count; traciality is quadratic in it
MAX_FUZZ_COUNT = 10_000  # fuzz's bound on the graph count; the work is linear in it
MAX_TRACE_ENTRIES = 500_000  # traces' bound on points x vertices, the values it writes


def _digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()[:16]


def _documents(args) -> tuple[list[str], dict[str, str]]:
    """The texts of the files the command names, in order, all read before any
    is parsed, and the report's ``inputs``: each document's digest by name."""
    texts = []
    for name in args.documents:
        with open(getattr(args, name), "r", encoding="utf-8") as fh:
            texts.append(fh.read())
    return texts, {name: _digest(text) for name, text in zip(args.documents, texts)}


def _emit(args, inputs: dict[str, str], body: dict, status: int = 0) -> int:
    """Print the report, the schema envelope and the body; return the status."""
    report = {"schema_version": SCHEMA_VERSION, "command": args.command, "inputs": inputs}
    report.update(body)
    layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    print(json.dumps(report, sort_keys=True, **layout))
    return status


def _load_functional(graph: Graph, text: str):
    doc = load_json(text, "functional")
    if not isinstance(doc, dict) or doc.get("kind") not in ("haar", "tagged"):
        raise ParseError("functional document needs 'kind': 'haar' or 'tagged'")
    trace = traces.GraphTrace.from_doc(doc.get("trace"))
    if doc["kind"] == "haar":
        return functionals.haar_tagged_functional(graph, trace)
    tag = tagging.Tag.from_doc(doc.get("tag", {}))
    return functionals.tagged_functional(graph, trace, tag)


def cmd_analyze(args) -> int:
    (text,), inputs = _documents(args)
    graph = parse_graph(text)
    removed = structure.trace_null_set(graph)
    struct = cyclic_structure(graph)
    body = {
        "tight": structure.is_tight(graph),
        "entry_emitters": sorted(structure.emit_entry_set(graph)),
        "removed": sorted(removed),
        "tight_subgraph_vertices": [v for v in graph.vertices if v not in removed],
        "cyclic_classes": [list(c) for c in struct.classes],
        "vertex_kinds": {v: "regular" if graph.is_regular(v) else "source-singular"
                         for v in graph.vertices},
        "auto_gauge": structure.auto_gauge_criterion(graph),
    }
    return _emit(args, inputs, body)


def cmd_tighten(args) -> int:
    (text,), inputs = _documents(args)
    graph = parse_graph(text)
    sub, removed = structure.tighten_min(graph)  # --mode=left is an alias
    body = {"mode": args.mode, "removed": sorted(removed), "subgraph": sub.to_doc()}
    return _emit(args, inputs, body)


def cmd_traces(args) -> int:
    (text,), inputs = _documents(args)
    graph = parse_graph(text)
    entries = len(traces.trace_seeds(graph)) * len(graph.vertices)
    if entries > MAX_TRACE_ENTRIES:
        raise LimitError(f"the extreme points have {entries} values, more than {MAX_TRACE_ENTRIES}")
    removed = structure.trace_null_set(graph)
    points = [
        {
            "values": point.to_doc()["values"],
            "cyclic_support": sorted(structure.cyclic_support(graph, point)),
        }
        for point in traces.extreme_traces(graph)
    ]
    return _emit(args, inputs, {"removed": sorted(removed), "extreme_points": points})


def cmd_check_trace(args) -> int:
    (gtext, ttext), inputs = _documents(args)
    graph = parse_graph(gtext)
    trace = traces.GraphTrace.from_doc(load_json(ttext, "trace"))
    problem = traces.validate_trace(graph, trace)
    body = {
        "valid": problem is None,
        "violation": None if problem is None else problem.message(),
        "total_mass": str(trace.total()),
    }
    return _emit(args, inputs, body, 0 if problem is None else 1)


def cmd_tag_check(args) -> int:
    (gtext, ttext, tagtext), inputs = _documents(args)
    graph = parse_graph(gtext)
    trace = traces.GraphTrace.from_doc(load_json(ttext, "trace"))
    traces.require_valid_trace(graph, trace)
    tag = tagging.Tag.from_doc(load_json(tagtext, "tag"))
    tag_problem = tagging.validate_tag(graph, trace, tag)
    body = {
        "valid": tag_problem is None,
        "violation": None if tag_problem is None else tag_problem.message,
        "cyclic_support": sorted(structure.cyclic_support(graph, trace)),
    }
    return _emit(args, inputs, body, 0 if tag_problem is None else 1)


def cmd_eval(args) -> int:
    (gtext, ftext), inputs = _documents(args)
    graph = parse_graph(gtext)
    fn = _load_functional(graph, ftext)
    from .monomials import parse_monomial  # `from . import monomials` is the function

    x = parse_monomial(graph, args.monomial)
    return _emit(args, inputs, {"monomial": args.monomial, "value": fn.value(x).to_doc()})


def cmd_verify(args) -> int:
    if args.max_len < 0:
        raise ParseError(f"--max-len must be nonnegative, got {args.max_len}")
    (gtext, ftext), inputs = _documents(args)
    graph = parse_graph(gtext)
    fn = _load_functional(graph, ftext)
    known = functionals.SUITE_NAMES
    suite = ",".join(known) if args.suite is None else args.suite  # all by default
    names = list(dict.fromkeys(s.strip() for s in suite.split(",") if s.strip()))
    if not names:
        raise ParseError(f"--suite names no suite; choose from {known}")
    for name in names:
        if name not in known:
            raise ParseError(f"unknown suite {name!r}; choose from {known}")
    if monomial_count(graph, args.max_len, MAX_MONOMIALS) > MAX_MONOMIALS:
        raise LimitError(f"--max-len {args.max_len} gives more than {MAX_MONOMIALS} monomials")
    results = functionals.run_suites(fn, args.max_len, names)
    body = {
        "max_len": args.max_len,
        "suites": {
            r.name: {
                "passed": r.passed,
                "witness": r.witness,
                "detail": r.detail,
                "checked": r.checked,
            }
            for r in results
        },
    }
    hard_failures = [
        r for r in results if not r.passed and (r.name != "gauge" or args.expect_gauge)
    ]
    body["gauge_informational"] = not args.expect_gauge
    return _emit(args, inputs, body, 1 if hard_failures else 0)


def cmd_fuzz(args) -> int:
    if args.count < 0:
        raise ParseError(f"--count must be nonnegative, got {args.count}")
    if args.count > MAX_FUZZ_COUNT:
        raise LimitError(f"--count {args.count} is more than {MAX_FUZZ_COUNT} graphs")
    graphs = fuzz.graph_battery(args.seed, args.count)
    body = {
        "seed": args.seed,
        "count": args.count,
        "graphs": [g.to_doc() for g in graphs],
    }
    return _emit(args, {}, body)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError, so it exits 2 with the JSON
    error report like any other input error; the subcommands' parsers are
    of this class too."""

    def error(self, message: str):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cktrace",
        description="Exact trace-space computations for finite graph algebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str, *documents: str):
        p = sub.add_parser(name, help=help_text, parents=[common])
        for document in documents:
            p.add_argument(document)
        p.set_defaults(func=func, documents=documents)
        return p

    command("analyze", cmd_analyze, "structural summary of a graph", "graph")
    p = command("tighten", cmd_tighten, "remove the trace-null vertex set", "graph")
    p.add_argument("--mode", choices=("min", "left"), default="min",
                   help="'left' is an alias of 'min': both remove the same set")
    command("traces", cmd_traces, "extreme normalized traces, lifted", "graph")
    command("check-trace", cmd_check_trace, "validate a trace document", "graph", "trace")
    command("tag-check", cmd_tag_check, "validate a tag against a trace", "graph", "trace", "tag")
    p = command("eval", cmd_eval, "evaluate a functional on a monomial", "graph", "functional")
    p.add_argument("monomial")
    p = command("verify", cmd_verify, "run the exact verification suites", "graph", "functional")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--suite")  # the default, every suite, is read in cmd_verify
    p.add_argument("--expect-gauge", action="store_true",
                   help="treat a gauge failure as a hard failure instead of informational")
    p = command("fuzz", cmd_fuzz, "emit seeded random desk-scale graphs")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:  # a GraphError carries its kind: graph, parse or limit
        kind = "io" if isinstance(exc, OSError) else getattr(exc, "kind", "value")
        print(json.dumps({"error": str(exc), "kind": kind}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
