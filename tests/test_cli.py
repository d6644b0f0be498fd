import hashlib
import json
import sys
import time

import pytest

from cktrace import cli, cyclic_structure, format_path, tighten_min
from cktrace.cli import MAX_FUZZ_COUNT, MAX_MONOMIALS, MAX_TRACE_ENTRIES, main
from cktrace.fuzz import graph_battery
from reference import in_star, loop_fed_line

LOOP = '{"vertices": ["v"], "edges": [{"id":"e","src":"v","dst":"v"}]}'
TWO_LOOPS = (
    '{"vertices": ["v"], "edges": ['
    '{"id":"e1","src":"v","dst":"v"}, {"id":"e2","src":"v","dst":"v"}]}'
)
LINE3 = (
    '{"vertices": ["v1","v2","v3"], "edges": ['
    '{"id":"a","src":"v2","dst":"v1"}, {"id":"b","src":"v3","dst":"v2"}]}'
)
LOOP_ENTRY = (
    '{"vertices": ["v","u"], "edges": ['
    '{"id":"e","src":"v","dst":"v"}, {"id":"f","src":"u","dst":"v"}]}'
)
TWO_CYCLE = (
    '{"vertices": ["v","w"], "edges": ['
    '{"id":"a","src":"v","dst":"w"}, {"id":"b","src":"w","dst":"v"}]}'
)


@pytest.fixture
def run(tmp_path, capsys):
    def runner(*argv, files=None):
        paths = []
        for i, text in enumerate(files or []):
            p = tmp_path / f"input{i}.json"
            p.write_text(text)
            paths.append(str(p))
        code = main([a.format(*paths) for a in argv])
        out = capsys.readouterr()
        report = json.loads(out.out) if out.out.strip() else None
        return code, report, out.err

    return runner


def test_analyze_two_loops(run):
    code, report, _ = run("analyze", "{0}", files=[TWO_LOOPS])
    assert code == 0
    assert report["schema_version"] == "1"
    assert report["tight"] is False
    assert report["entry_emitters"] == ["v"]
    assert report["tight_subgraph_vertices"] == []
    assert report["auto_gauge"] is True


def test_analyze_loop(run):
    code, report, _ = run("analyze", "{0}", files=[LOOP])
    assert code == 0
    assert report["tight"] is True
    assert report["cyclic_classes"] == [["v"]]
    assert report["auto_gauge"] is False


def test_analyze_line3(run):
    code, report, _ = run("analyze", "{0}", files=[LINE3])
    assert code == 0
    assert report["tight"] is True
    assert report["cyclic_classes"] == []
    assert report["auto_gauge"] is True
    assert report["vertex_kinds"]["v3"] == "source-singular"


def test_analyze_bad_input(run, tmp_path):
    code, report, err = run("analyze", "{0}", files=["{broken"])
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": ["a.b"], "edges": []},
        {"vertices": ["v"], "edges": [{"id": "@e", "src": "v", "dst": "v"}]},
        {"vertices": ["v"], "edges": [{"id": "e|f", "src": "v", "dst": "v"}]},
        {"vertices": ["1"], "edges": [{"id": 1, "src": "1", "dst": "1"}]},
        {"vertices": ["1"], "edges": [{"id": "e", "src": 1, "dst": "1"}]},
    ],
)
def test_analyze_rejects_unaddressable_or_non_string_ids(run, doc):
    code, report, err = run("analyze", "{0}", files=[json.dumps(doc)])
    assert code == 2
    assert report is None
    assert "error" in json.loads(err)


def test_tighten_modes(run):
    code, report, _ = run("tighten", "{0}", files=[LOOP_ENTRY])
    assert code == 0
    assert report["removed"] == ["u"]
    assert report["subgraph"]["vertices"] == ["v"]
    code, report, _ = run("tighten", "{0}", "--mode=left", files=[LOOP_ENTRY])
    assert code == 0
    assert report["removed"] == ["u"]


def test_traces_command(run):
    code, report, _ = run("traces", "{0}", files=[TWO_LOOPS])
    assert code == 0
    assert report["extreme_points"] == []

    code, report, _ = run("traces", "{0}", files=[LOOP_ENTRY])
    assert code == 0
    assert report["extreme_points"] == [
        {"values": {"v": "1", "u": "0"}, "cyclic_support": ["v"]}
    ]

    code, report, _ = run("traces", "{0}", files=[LINE3])
    assert code == 0
    points = report["extreme_points"]
    assert len(points) == 1
    assert points[0]["values"] == {"v1": "1/3", "v2": "1/3", "v3": "1/3"}
    assert points[0]["cyclic_support"] == []


def test_check_trace_exit_codes(run):
    good = '{"values": {"v": "1", "u": "0"}}'
    bad = '{"values": {"v": "1", "u": "1"}}'
    code, report, _ = run("check-trace", "{0}", "{1}", files=[LOOP_ENTRY, good])
    assert code == 0 and report["valid"] is True
    code, report, _ = run("check-trace", "{0}", "{1}", files=[LOOP_ENTRY, bad])
    assert code == 1 and report["valid"] is False
    assert "v" in report["violation"]
    code, _, err = run("check-trace", "{0}", "{1}", files=[LOOP_ENTRY, '{"values": {"v": "x"}}'])
    assert code == 2


def test_tag_check(run):
    uniform = '{"values": {"v": "1/2", "w": "1/2"}}'
    tag_ok = (
        '{"v": {"haar": "0", "atoms": [{"angle": "1/4", "weight": "1"}]},'
        ' "w": {"haar": "0", "atoms": [{"angle": "1/4", "weight": "1"}]}}'
    )
    tag_bad = (
        '{"v": {"haar": "0", "atoms": [{"angle": "1/4", "weight": "1"}]},'
        ' "w": {"haar": "0", "atoms": [{"angle": "1/2", "weight": "1"}]}}'
    )
    code, report, _ = run("tag-check", "{0}", "{1}", "{2}", files=[TWO_CYCLE, uniform, tag_ok])
    assert code == 0 and report["valid"] is True
    code, report, _ = run("tag-check", "{0}", "{1}", "{2}", files=[TWO_CYCLE, uniform, tag_bad])
    assert code == 1 and report["valid"] is False
    assert "equivalent" in report["violation"]


def test_eval_command(run):
    functional = json.dumps(
        {
            "kind": "tagged",
            "trace": {"values": {"v": "1"}},
            "tag": {"v": {"haar": "0", "atoms": [{"angle": "1/3", "weight": "1"}]}},
        }
    )
    code, report, _ = run("eval", "{0}", "{1}", "e|@v", files=[LOOP, functional])
    assert code == 0
    assert report["value"] == {"terms": [{"angle": "1/3", "weight": "1"}]}

    code, report, _ = run("eval", "{0}", "{1}", "@v|e", files=[LOOP, functional])
    assert report["value"] == {"terms": [{"angle": "2/3", "weight": "1"}]}


def test_verify_gauge_informational(run):
    functional = json.dumps(
        {
            "kind": "tagged",
            "trace": {"values": {"v": "1"}},
            "tag": {"v": {"haar": "0", "atoms": [{"angle": "1/3", "weight": "1"}]}},
        }
    )
    code, report, _ = run(
        "verify", "{0}", "{1}", "--max-len", "4", files=[LOOP, functional]
    )
    assert code == 0
    suites = report["suites"]
    assert suites["traciality"]["passed"] is True
    assert suites["invariance"]["passed"] is True
    assert suites["gauge"]["passed"] is False
    assert suites["gauge"]["witness"] == "e|@v"
    assert report["gauge_informational"] is True

    code, report, _ = run(
        "verify", "{0}", "{1}", "--expect-gauge", files=[LOOP, functional]
    )
    assert code == 1


def test_verify_rejects_inconsistent_tag(run):
    functional = json.dumps(
        {
            "kind": "tagged",
            "trace": {"values": {"v": "1/2", "w": "1/2"}},
            "tag": {
                "v": {"haar": "0", "atoms": [{"angle": "1/4", "weight": "1"}]},
                "w": {"haar": "0", "atoms": [{"angle": "1/2", "weight": "1"}]},
            },
        }
    )
    code, report, err = run("verify", "{0}", "{1}", files=[TWO_CYCLE, functional])
    assert code == 2
    assert "tag" in err


def test_verify_haar_all_pass(run):
    functional = json.dumps(
        {"kind": "haar", "trace": {"values": {"v1": "1/3", "v2": "1/3", "v3": "1/3"}}}
    )
    code, report, _ = run("verify", "{0}", "{1}", files=[LINE3, functional])
    assert code == 0
    assert all(s["passed"] for s in report["suites"].values())


def test_verify_suite_selection(run):
    functional = json.dumps({"kind": "haar", "trace": {"values": {"v": "1"}}})
    code, report, _ = run(
        "verify", "{0}", "{1}", "--suite", "traciality,gauge", files=[LOOP, functional]
    )
    assert code == 0
    assert set(report["suites"]) == {"traciality", "gauge"}
    code, _, err = run(
        "verify", "{0}", "{1}", "--suite", "bogus", files=[LOOP, functional]
    )
    assert code == 2


def test_verify_runs_a_repeated_suite_once(run, monkeypatch):
    from cktrace import functionals

    calls = []
    check = functionals.check_traciality

    def spy(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(functionals, "check_traciality", spy)
    functional = json.dumps({"kind": "haar", "trace": {"values": {"v": "1"}}})
    code, report, _ = run(
        "verify", "{0}", "{1}", "--max-len", "2", "--suite", "traciality,traciality",
        files=[LOOP, functional],
    )
    assert code == 0
    assert list(report["suites"]) == ["traciality"]
    assert len(calls) == 1


def test_haar_functional_document_is_haar_tagged():
    from cktrace.graph import parse_graph
    from cktrace.tagging import haar_tag

    graph = parse_graph(LOOP_ENTRY)
    doc = json.dumps({"kind": "haar", "trace": {"values": {"u": "0", "v": "1"}}})
    fn = cli._load_functional(graph, doc)
    assert fn.tag is not None and fn.tag == haar_tag(graph, fn.trace)


def test_verify_rejects_negative_max_len(run):
    functional = json.dumps({"kind": "haar", "trace": {"values": {"v": "1"}}})
    code, report, err = run("verify", "{0}", "{1}", "--max-len", "-1", files=[LOOP, functional])
    assert code == 2
    assert report is None
    assert "--max-len must be nonnegative" in json.loads(err)["error"]
    code, report, _ = run("verify", "{0}", "{1}", "--max-len", "0", files=[LOOP, functional])
    assert code == 0


@pytest.mark.parametrize("suites", ["", ",", " , "])
def test_verify_rejects_an_empty_suite_list(run, suites):
    functional = json.dumps({"kind": "haar", "trace": {"values": {"v": "1"}}})
    code, report, err = run("verify", "{0}", "{1}", "--suite", suites, files=[LOOP, functional])
    assert code == 2
    assert report is None
    doc = json.loads(err)
    assert doc["kind"] == "parse"
    assert "no suite" in doc["error"]


def _loop_and_isolated(isolated: int) -> tuple[str, str]:
    """A loop at v plus isolated vertices: (L + 1)**2 + isolated monomials at
    --max-len L."""
    names = [f"i{k}" for k in range(isolated)]
    graph = json.dumps(
        {"vertices": ["v"] + names, "edges": [{"id": "e", "src": "v", "dst": "v"}]}
    )
    values = {"v": "1", **{n: "0" for n in names}}
    return graph, json.dumps({"kind": "haar", "trace": {"values": values}})


@pytest.mark.parametrize(
    "isolated, max_len, code",
    [(64, "43", 0), (65, "43", 2), (0, str(10**18), 2)],
    ids=["limit", "limit+1", "huge-max-len"],
)
def test_verify_bounds_the_monomial_count(run, isolated, max_len, code):
    assert MAX_MONOMIALS == 2000 == 44**2 + 64
    graph, functional = _loop_and_isolated(isolated)
    start = time.perf_counter()
    got, report, err = run(
        "verify", "{0}", "{1}", "--max-len", max_len, "--suite", "invariance,cylinder",
        files=[graph, functional],
    )
    assert time.perf_counter() - start < 1.0
    assert got == code
    if code == 0:
        # one edge normalizer against every monomial, all of them normal
        assert report["suites"]["invariance"]["checked"] == MAX_MONOMIALS
    else:
        assert report is None
        doc = json.loads(err)
        assert doc["kind"] == "limit"
        assert f"more than {MAX_MONOMIALS} monomials" in doc["error"]


@pytest.mark.parametrize("command", ["analyze", "traces", "tighten"])
def test_one_component_pass_per_command(run, monkeypatch, command):
    """On a loop-fed line with an entry, a command runs the component pass,
    the entry-emitter sweep and the saturation once each, the minimal
    tightening included: every later reader takes them from the graph.  An
    ``emit_entry_set`` call sweeps when the graph keeps no emitters yet.
    ``traces`` reads its seeds and each point's cyclic support off the
    tightening's cyclic structure, taken from the same one pass."""
    from cktrace import graph as graph_module, structure

    calls = {"components": 0, "sweep": 0, "saturate": 0}

    def tally(module, name, key, did_work=lambda g: True):
        real = getattr(module, name)

        def wrapper(g, *rest):
            calls[key] += did_work(g)
            return real(g, *rest)

        monkeypatch.setattr(module, name, wrapper)

    for module in (graph_module, structure, cli.traces):  # each holds the kept pass
        tally(module, "strong_components", "components",
              lambda g: "strong_components" not in g._memo)
    tally(structure, "emit_entry_set", "sweep", lambda g: "emit_entry_set" not in g._memo)
    tally(structure, "saturate", "saturate")
    text = json.dumps(loop_fed_line(300, entry=True).to_doc())
    code, report, _ = run(command, "{0}", files=[text])
    assert code == 0 and report["removed"] == ["u"]
    assert calls == {"components": 1, "sweep": 1, "saturate": 1}


TRACE = '{"values": {"v": "1"}}'
TAG = '{"v": {"haar": "1/2", "atoms": [{"angle": "1/3", "weight": "1/2"}]}}'
TAGGED = f'{{"kind": "tagged", "trace": {TRACE}, "tag": {TAG}}}'


DOCUMENTS = [
    (["analyze", "{0}"], {"graph": LOOP}),
    (["tighten", "{0}"], {"graph": LOOP}),
    (["traces", "{0}"], {"graph": LOOP}),
    (["check-trace", "{0}", "{1}"], {"graph": LOOP, "trace": TRACE}),
    (["tag-check", "{0}", "{1}", "{2}"], {"graph": LOOP, "trace": TRACE, "tag": TAG}),
    (["eval", "{0}", "{1}", "e|@v"], {"graph": LOOP, "functional": TAGGED}),
    (["verify", "{0}", "{1}", "--max-len", "2"], {"graph": LOOP, "functional": TAGGED}),
    (["fuzz", "--seed", "1"], {}),
]


@pytest.mark.parametrize("argv, documents", DOCUMENTS, ids=[argv[0] for argv, _ in DOCUMENTS])
def test_report_inputs_digest_each_named_document(run, argv, documents):
    """``inputs`` names exactly the command's documents, each with the first
    16 hex digits of the SHA-256 of its text."""
    code, report, _ = run(*argv, files=list(documents.values()))
    assert code == 0
    assert report["command"] == argv[0]
    assert report["inputs"] == {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        for name, text in documents.items()
    }


USAGES = [
    ("analyze", "[-h] [--pretty] graph"),
    ("tighten", "[-h] [--pretty] [--mode {min,left}] graph"),
    ("traces", "[-h] [--pretty] graph"),
    ("check-trace", "[-h] [--pretty] graph trace"),
    ("tag-check", "[-h] [--pretty] graph trace tag"),
    ("eval", "[-h] [--pretty] graph functional monomial"),
    ("verify", "[-h] [--pretty] [--max-len MAX_LEN] [--suite SUITE] [--expect-gauge] "
     "graph functional"),
    ("fuzz", "[-h] [--pretty] --seed SEED [--count COUNT]"),
]


@pytest.mark.parametrize("command, usage", USAGES, ids=[command for command, _ in USAGES])
def test_command_usage_lines(capsys, command, usage):
    """Each command's documents come first among its positionals, after its
    options, as the usage line shows; argparse wraps it by COLUMNS, so
    whitespace is normalized."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    head = capsys.readouterr().out.split("\n\n")[0]
    assert " ".join(head.split()) == f"usage: cktrace {command} {usage}"


USAGE_ERRORS = [
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    (["analyze", "{0}", "--what"], "unrecognized arguments: --what"),
    (["tighten", "{0}", "--mode", "right"], "argument --mode: invalid choice: 'right'"),
    (["verify", "{0}"], "the following arguments are required: functional"),
    (["verify", "{0}", "{0}", "--max-len", "x"], "argument --max-len: invalid int value: 'x'"),
    (["fuzz", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
    (["fuzz", "--seed", "1", "--count", "y"], "argument --count: invalid int value: 'y'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "empty" for argv, _ in USAGE_ERRORS])
def test_usage_errors_are_json_on_stderr(run, argv, message):
    """A command line argparse rejects exits 2 like any other input error:
    nothing on stdout and one JSON document of kind "parse" on stderr,
    argparse's own message, with no usage text."""
    code, report, err = run(*argv, files=[LOOP])
    assert code == 2 and report is None
    doc = json.loads(err)
    assert doc["kind"] == "parse"
    assert doc["error"].startswith(message)


def test_traces_enumerates_once(run, monkeypatch):
    calls = []
    real = cli.traces.extreme_traces
    monkeypatch.setattr(cli.traces, "extreme_traces", lambda g: calls.append(g) or real(g))
    code, report, _ = run("traces", "{0}", files=[LOOP_ENTRY])
    assert code == 0
    assert len(calls) == 1
    assert not hasattr(cli, "lift_trace")


def test_tight_subgraph_is_built_once_where_it_is_read(run, monkeypatch):
    """Only ``tighten``, which prints the subgraph, builds it.  Every other
    command reads the removed set and the minimal tightening's cyclic
    structure off the input graph, so it answers with no subgraph built."""
    from cktrace import structure

    entry_trace = '{"values": {"u": "0", "v": "1"}}'
    entry_tag = '{"v": {"haar": "1/2", "atoms": [{"angle": "1/3", "weight": "1/2"}]}}'
    entry_tagged = f'{{"kind": "tagged", "trace": {entry_trace}, "tag": {entry_tag}}}'
    commands = [
        (["analyze", "{0}"], [LOOP_ENTRY]),
        (["traces", "{0}"], [LOOP_ENTRY]),
        (["tag-check", "{0}", "{1}", "{2}"], [LOOP_ENTRY, entry_trace, entry_tag]),
        (["eval", "{0}", "{1}", "e|@v"], [LOOP_ENTRY, entry_tagged]),
        (["verify", "{0}", "{1}", "--max-len", "2"], [LOOP_ENTRY, entry_tagged]),
    ]
    real = structure.quotient_graph
    calls = []
    monkeypatch.setattr(structure, "quotient_graph", lambda g, H: calls.append(H) or real(g, H))
    reports = [run(*argv, files=files) for argv, files in commands]
    assert calls == []
    assert [code for code, _, _ in reports] == [0, 0, 0, 0, 0]
    assert reports[1][1]["extreme_points"][0]["cyclic_support"] == ["v"]
    assert reports[2][1]["cyclic_support"] == ["v"]
    code, report, _ = run("tighten", "{0}", files=[LOOP_ENTRY])
    assert code == 0 and report["subgraph"]["vertices"] == ["v"]
    assert calls == [frozenset({"u"})]


def test_verify_reports_checked_cases(run):
    functional = json.dumps({"kind": "haar", "trace": {"values": {"v": "1"}}})
    code, report, _ = run("verify", "{0}", "{1}", "--max-len", "3", files=[LOOP, functional])
    assert code == 0
    for name, suite in report["suites"].items():
        assert set(suite) == {"passed", "witness", "detail", "checked"}, name
        assert isinstance(suite["checked"], int) and suite["checked"] > 0, name
    assert report["suites"]["gram"]["checked"] == 6


@pytest.mark.parametrize("kind", ["parse", "graph", "io", "value"])
def test_error_kind(run, tmp_path, kind):
    haar = json.dumps({"kind": "haar", "trace": {"values": {"v": "1/2", "w": "1/2"}}})
    if kind == "parse":
        code, report, err = run("analyze", "{0}", files=['{"vertices": ['])
    elif kind == "graph":  # the two paths have different sources
        code, report, err = run("eval", "{0}", "{1}", "a|@w", files=[TWO_CYCLE, haar])
    elif kind == "io":
        code, report, err = run("analyze", str(tmp_path / "missing.json"))
    else:  # a graph file that is not UTF-8
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"vertices": ["\xe9"], "edges": []}')
        code, report, err = run("analyze", str(latin1))
    assert code == 2
    assert report is None
    doc = json.loads(err)
    assert set(doc) == {"error", "kind"}
    assert doc["kind"] == kind


def test_error_text_is_unchanged(run):
    code, _, err = run("analyze", "{0}", files=['{"vertices": "v", "edges": []}'])
    assert code == 2
    assert json.loads(err) == {
        "error": "graph document needs a 'vertices' list of strings",
        "kind": "parse",
    }


def test_underscore_literal_is_a_parse_error(run):
    """Python 3.11's Fraction reads "1_0" as 10; cktrace rejects it on
    every version."""
    trace = json.dumps({"values": {"v": "1_0"}})
    code, report, err = run("check-trace", "{0}", "{1}", files=[LOOP, trace])
    assert code == 2
    assert report is None
    assert json.loads(err) == {"error": "invalid rational literal '1_0'", "kind": "parse"}


def test_negative_atom_merged_at_an_equal_angle_is_a_parse_error(run):
    trace = json.dumps({"values": {"v": "1"}})
    tag = json.dumps({"v": {"haar": "0", "atoms": [{"angle": "1/3", "weight": "-1/2"},
                                                   {"angle": "4/3", "weight": "3/2"}]}})
    code, report, err = run("tag-check", "{0}", "{1}", "{2}", files=[LOOP, trace, tag])
    assert code == 2
    assert report is None
    assert json.loads(err) == {"error": "atom weights must be positive", "kind": "parse"}


def test_huge_exponent_literal_is_rejected_fast(run):
    trace = json.dumps({"values": {"v": "1e10000000"}})
    start = time.perf_counter()
    code, report, err = run("check-trace", "{0}", "{1}", files=[LOOP, trace])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report is None
    doc = json.loads(err)
    assert doc["kind"] == "limit"
    assert "exponent" in doc["error"]


_TOO_LONG = "1" * 1001
# the interpreter's limit on the digits of an integer it converts (0: none)
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_no_int_limit = pytest.mark.skipif(_INT_DIGITS == 0, reason="no integer digit limit")
_LONG_INT = "1" * (_INT_DIGITS + 1)


@pytest.mark.parametrize(
    "what, message",
    [
        ("literal length", "rational literal is longer than 1000 characters"),
        ("literal exponent", "rational literal '1e1001' has an exponent beyond ±1000"),
        ("angle denominator", "atom angle denominators must not exceed 1000000"),
        ("max-len", f"--max-len 44 gives more than {MAX_MONOMIALS} monomials"),
        ("trace entries", f"the extreme points have 1001000 values, more than {MAX_TRACE_ENTRIES}"),
        ("graph nesting", "graph document is nested too deeply"),
        ("functional nesting", "functional document is nested too deeply"),
        pytest.param("graph integer", f"graph document has an integer longer than "
                     f"{_INT_DIGITS} digits", marks=_no_int_limit),
        pytest.param("trace integer", f"trace document has an integer longer than "
                     f"{_INT_DIGITS} digits", marks=_no_int_limit),
    ],
)
def test_limits_have_their_own_kind(run, monkeypatch, what, message):
    """Each size limit exits 2 with kind "limit" and its message unchanged."""
    if what == "graph integer":
        graph = LOOP[:-1] + ', "x": ' + _LONG_INT + "}"
        code, report, err = run("analyze", "{0}", files=[graph])
    elif what == "trace integer":
        trace = '{"values": {"v": ' + _LONG_INT + "}}"
        code, report, err = run("check-trace", "{0}", "{1}", files=[LOOP, trace])
    elif what == "literal length":
        trace = json.dumps({"values": {"v": _TOO_LONG}})
        code, report, err = run("check-trace", "{0}", "{1}", files=[LOOP, trace])
    elif what == "literal exponent":
        trace = json.dumps({"values": {"v": "1e1001"}})
        code, report, err = run("check-trace", "{0}", "{1}", files=[LOOP, trace])
    elif what == "angle denominator":
        functional = _point_tagged_loop([{"angle": "1/1000001", "weight": "1"}])
        code, report, err = run("verify", "{0}", "{1}", files=[LOOP, functional])
    elif what == "graph nesting":
        code, report, err = run("analyze", "{0}", files=["[" * 200_000])
    elif what == "functional nesting":
        code, report, err = run("verify", "{0}", "{1}", files=[LOOP, "[" * 200_000])
    elif what == "trace entries":
        # 1,000 points on 1,001 vertices, counted from their seeds before any census
        monkeypatch.setattr(cli.traces, "_census_trace", lambda graph, seeds: 1 / 0)
        code, report, err = run("traces", "{0}", files=[json.dumps(in_star(1001).to_doc())])
    else:
        functional = json.dumps({"kind": "haar", "trace": {"values": {"v": "1"}}})
        code, report, err = run(
            "verify", "{0}", "{1}", "--max-len", "44", files=[LOOP, functional]
        )
    assert code == 2
    assert report is None
    assert json.loads(err) == {"error": message, "kind": "limit"}


def _point_tagged_loop(atoms) -> str:
    return json.dumps(
        {"kind": "tagged", "trace": {"values": {"v": "1"}}, "tag": {"v": {"haar": "0", "atoms": atoms}}}
    )


@pytest.mark.parametrize("angle", ["1e-40", "1/2305843009213693951"])
def test_verify_rejects_angle_denominators_above_limit(run, angle):
    functional = _point_tagged_loop([{"angle": angle, "weight": "1"}])
    code, report, err = run("verify", "{0}", "{1}", files=[LOOP, functional])
    assert code == 2
    assert report is None
    assert "denominators must not exceed 1000000" in json.loads(err)["error"]


@pytest.mark.parametrize("angle", ["1/999983", "1/720720"])
def test_verify_large_angle_denominator_is_fast(run, angle):
    functional = _point_tagged_loop([{"angle": angle, "weight": "1"}])
    start = time.perf_counter()
    code, report, _ = run("verify", "{0}", "{1}", files=[LOOP, functional])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["suites"]["gauge"]["passed"] is False
    assert all(s["passed"] for name, s in report["suites"].items() if name != "gauge")


@pytest.mark.parametrize("atoms", [5, None, {}], ids=["number", "null", "object"])
def test_verify_rejects_non_list_atoms(run, atoms):
    functional = json.dumps(
        {"kind": "tagged", "trace": {"values": {"v": "1"}}, "tag": {"v": {"haar": "1", "atoms": atoms}}}
    )
    code, report, err = run("verify", "{0}", "{1}", files=[LOOP, functional])
    assert code == 2
    assert report is None
    assert "atoms must be a list" in json.loads(err)["error"]


def _doc(vertices, pairs):
    edges = [{"id": f"e{i}", "src": s, "dst": d} for i, (s, d) in enumerate(pairs)]
    return json.dumps({"vertices": vertices, "edges": edges})


K12 = _doc([f"v{i}" for i in range(12)],
           [(f"v{a}", f"v{b}") for a in range(12) for b in range(12) if a != b])
LINE14 = _doc([f"v{i}" for i in range(1, 15)], [(f"v{i + 1}", f"v{i}") for i in range(1, 14)])
STAR14 = _doc(["c"] + [f"l{i}" for i in range(1, 14)], [(f"l{i}", "c") for i in range(1, 14)])


@pytest.mark.parametrize(
    "graph,removed,points",
    [(K12, 12, 0), (LINE14, 0, 1), (STAR14, 0, 13)],
    ids=["K12", "line_14", "star_14"],
)
def test_structure_and_traces_scale(run, graph, removed, points):
    """Desk scale: every structure and trace command answers in under 1 s."""
    for command in ("analyze", "tighten", "traces"):
        start = time.perf_counter()
        code, report, _ = run(command, "{0}", files=[graph])
        assert time.perf_counter() - start < 1.0, command
        assert code == 0
        assert len(report["removed"]) == removed
        if command == "traces":
            assert len(report["extreme_points"]) == points


def test_traces_answers_below_the_entry_limit(run):
    """699 points on 700 vertices, 489,300 values, stay below MAX_TRACE_ENTRIES."""
    code, report, _ = run("traces", "{0}", files=[json.dumps(in_star(700).to_doc())])
    assert code == 0
    assert len(report["extreme_points"]) == 699


def test_fuzz_deterministic(run):
    code, r1, _ = run("fuzz", "--seed", "5", "--count", "3")
    assert code == 0
    code, r2, _ = run("fuzz", "--seed", "5", "--count", "3")
    assert r1 == r2
    assert len(r1["graphs"]) == 3


def test_fuzz_rejects_negative_count(run):
    code, report, err = run("fuzz", "--seed", "5", "--count", "-1")
    assert code == 2
    assert report is None
    assert json.loads(err) == {"error": "--count must be nonnegative, got -1", "kind": "parse"}
    code, report, _ = run("fuzz", "--seed", "5", "--count", "0")
    assert code == 0 and report["graphs"] == []


def test_fuzz_rejects_counts_above_the_limit(run):
    start = time.perf_counter()
    code, report, err = run("fuzz", "--seed", "5", "--count", str(MAX_FUZZ_COUNT + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report is None
    assert json.loads(err) == {
        "error": f"--count {MAX_FUZZ_COUNT + 1} is more than {MAX_FUZZ_COUNT} graphs",
        "kind": "limit",
    }
    code, _, err = run("fuzz", "--seed", "5", "--count", "1000000000")
    assert code == 2 and json.loads(err)["kind"] == "limit"


def test_eval_is_linear_in_the_monomial_length(run):
    """eval classifies a long monomial from its two paths in the bound-0
    coding, in time linear in its length: no path table is built per prefix
    and no path up to the monomial's length is enumerated."""
    functional = json.dumps({
        "kind": "tagged",
        "trace": {"values": {"v": "1"}},
        "tag": {"v": {"haar": "0", "atoms": [{"angle": "1/3", "weight": "1"}]}},
    })
    left = ".".join(["e"] * 20000)
    start = time.perf_counter()
    code, report, _ = run("eval", "{0}", "{1}", f"{left}|e", files=[LOOP, functional])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    # power 19999 = 1 (mod 3): z(1/3)
    assert report["value"] == {"terms": [{"angle": "1/3", "weight": "1"}]}


def test_traces_round_trip_verify(run, tmp_path):
    """Extreme traces re-enter the pipeline as haar functionals and pass."""
    code, report, _ = run("traces", "{0}", files=[LINE3])
    assert code == 0
    point = report["extreme_points"][0]
    functional = json.dumps({"kind": "haar", "trace": {"values": point["values"]}})
    code, verify_report, _ = run(
        "verify", "{0}", "{1}", files=[LINE3, functional]
    )
    assert code == 0
    assert all(s["passed"] for s in verify_report["suites"].values())


def test_reports_are_deterministic(run):
    _, r1, _ = run("analyze", "{0}", files=[LINE3])
    _, r2, _ = run("analyze", "{0}", files=[LINE3])
    assert r1 == r2


def test_cli_chain_on_the_battery(run):
    """On every extreme point of the acceptance battery, with a Haar tag and
    with a point mass at 1/3 on the point's cyclic support as ``traces``
    prints it: ``tag-check`` accepts the tag and prints the same support,
    ``eval`` on the first class cycle of the support, read off the minimal
    tightening, gives the mass times the tag's first moment, and ``verify
    --max-len 2`` passes.  Every step exits 0."""
    tags = [  # each measure, with the terms of mass times its first moment
        ({"haar": "1"}, lambda mass: []),
        ({"haar": "0", "atoms": [{"angle": "1/3", "weight": "1"}]},
         lambda mass: [{"angle": "1/3", "weight": mass}]),
    ]
    points = 0
    for g in graph_battery(20260810, 100):
        graph = json.dumps(g.to_doc())
        code, report, _ = run("traces", "{0}", files=[graph])
        assert code == 0
        cycles = cyclic_structure(tighten_min(g)[0]).cycle_at
        for point in report["extreme_points"]:
            points += 1
            support, values = point["cyclic_support"], point["values"]
            trace = json.dumps({"values": values})
            for measure, moment in tags:
                tag = {v: measure for v in support}
                code, checked, _ = run("tag-check", "{0}", "{1}", "{2}",
                                       files=[graph, trace, json.dumps(tag)])
                assert (code, checked["cyclic_support"]) == (0, support), (g, point, tag)
                functional = json.dumps({"kind": "tagged", "trace": {"values": values},
                                         "tag": tag})
                if support:
                    v = support[0]
                    monomial = f"{format_path(cycles[v])}|@{v}"
                    code, value, _ = run("eval", "{0}", "{1}", monomial,
                                         files=[graph, functional])
                    assert (code, value["value"]["terms"]) == (0, moment(values[v])), (g, point)
                code, _, _ = run("verify", "{0}", "{1}", "--max-len", "2",
                                 files=[graph, functional])
                assert code == 0, (g, point, tag)
    assert points == 262
