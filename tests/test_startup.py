"""What a fresh process loads: each CLI command imports only the modules it
runs, no module imports dataclasses or typing, and the package resolves its
names on first access.  Every check runs in a subprocess, so that nothing this test
session imported counts.  The last check reads the sources: the package
defines nothing that only the tests call."""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest

import cktrace

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cktrace.__file__)))
ROOT = os.path.dirname(SRC)

LOOP_ENTRY = (
    '{"vertices": ["v","u"], "edges": ['
    '{"id":"e","src":"v","dst":"v"}, {"id":"f","src":"u","dst":"v"}]}'
)
LOOP = '{"vertices": ["v"], "edges": [{"id":"e","src":"v","dst":"v"}]}'
TAGGED = json.dumps({
    "kind": "tagged",
    "trace": {"values": {"v": "1"}},
    "tag": {"v": {"haar": "1/2", "atoms": [{"angle": "1/3", "weight": "1/2"}]}},
})
TRACE = json.dumps(json.loads(TAGGED)["trace"])
TAG = json.dumps(json.loads(TAGGED)["tag"])
# The names `import cktrace` has always offered, by the module they come from,
# less the retired Ray, rays, left_infinite_set, tighten_left, normal_monomials,
# entries_of, incomparable, reaches, serialize_graph, expect_diagonal,
# projection and haar_functional.
OLD_EXPORTS = {
    "graph": "Edge Graph GraphError LimitError ParseError Path compose cyclic_structure "
    "format_path is_prefix parse_graph paths_up_to remainder simple_cycles",
    "structure": "auto_gauge_criterion emit_entry_set essentially_left_infinite is_hereditary "
    "is_saturated is_tight quotient_graph saturate tighten_min",
    "traces": "GraphTrace char_implication_check cylinder_positive extreme_traces lift_trace "
    "trace_vanishing_check validate_trace violation_certificate witness_nongauge_trace",
    "tagging": "CircleMeasure CircleValue Tag cyclic_support haar_tag moment validate_tag",
    "monomials": "CyclicForm Monomial ZERO cyclic_form expect_core monomials multiply "
    "parse_monomial",
    "functionals": "CheckResult TraceFunctional check_edge_invariance check_gauge "
    "check_traciality ck_additivity_check cylinder_measure_check gram_psd_check "
    "haar_tagged_functional run_suites tagged_functional",
    "fuzz": "graph_battery random_graph",
}
# Loaded modules of the package: a LazyLoader module whose code has not run
# yet is still of LazyLoader's module type.
LOADED = (
    "sorted(n for n, m in sys.modules.items() if n.split('.')[0] == 'cktrace'"
    " and not isinstance(m, importlib.util._LazyModule))"
)


def _python(code: str, *flags: str) -> object:
    """Run code in a fresh interpreter, started with the given flags, and
    decode its last line of output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _after_command(*argv: str) -> dict:
    code = (
        "import importlib.util, json, sys\n"
        "import cktrace.cli\n"
        f"status = cktrace.cli.main({list(argv)!r})\n"
        f"print(json.dumps({{'status': status, 'loaded': {LOADED},"
        " 'dataclasses': 'dataclasses' in sys.modules, 'openssl': '_hashlib' in sys.modules}))"
    )
    return _python(code)


@pytest.fixture
def files(tmp_path):
    """The structure commands read the loop with an entry; verify and eval
    read a tagged functional on the bare loop."""
    (tmp_path / "graph.json").write_text(LOOP_ENTRY)
    (tmp_path / "loop.json").write_text(LOOP)
    (tmp_path / "functional.json").write_text(TAGGED)
    return [str(tmp_path / name) for name in ("graph.json", "loop.json", "functional.json")]


@pytest.mark.parametrize(
    "command, layers",
    [
        ("analyze", ["graph", "structure"]),
        ("tighten", ["graph", "structure"]),
        ("traces", ["graph", "structure", "traces"]),
    ],
)
def test_structure_commands_load_only_their_layers(files, command, layers):
    got = _after_command(command, files[0])
    assert got["status"] == 0
    assert got["loaded"] == sorted(["cktrace", "cktrace.cli"] + [f"cktrace.{m}" for m in layers])
    for unused in ("monomials", "functionals", "tagging", "fuzz"):
        assert f"cktrace.{unused}" not in got["loaded"]
    assert got["dataclasses"] is False


def _every_input(tmp_path, files, argv) -> list[str]:
    """argv with the loop with an entry, the loop, its tagged functional,
    trace and tag filled in."""
    (tmp_path / "trace.json").write_text(TRACE)
    (tmp_path / "tag.json").write_text(TAG)
    graph, loop, functional = files
    names = dict(graph=graph, loop=loop, functional=functional,
                 trace=str(tmp_path / "trace.json"), tag=str(tmp_path / "tag.json"))
    return [a.format(**names) for a in argv]


@pytest.mark.parametrize(
    "argv",
    [("check-trace", "{loop}", "{trace}")],
    ids=lambda argv: argv[0],
)
def test_trace_commands_do_not_load_structure(files, tmp_path, argv):
    """``traces`` reaches ``structure`` through the package's lazily loaded
    module, so checking a given trace never runs it."""
    got = _after_command(*_every_input(tmp_path, files, argv))
    assert got["status"] == 0
    assert got["loaded"] == ["cktrace", "cktrace.cli", "cktrace.graph", "cktrace.traces"]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (("tag-check", "{loop}", "{trace}", "{tag}"), ["tagging"]),
        (("eval", "{loop}", "{functional}", "e|@v"), ["tagging", "monomials", "functionals"]),
        (("verify", "{loop}", "{functional}", "--max-len", "3"),
         ["tagging", "monomials", "functionals"]),
    ],
    ids=["tag-check", "eval", "verify"],
)
def test_tag_commands_load_structure(files, tmp_path, argv, layers):
    """A tag's domain and a monomial's class are read on the minimal
    tightening, so the commands that read a tag load ``structure``, and
    ``fuzz`` stays unexecuted."""
    got = _after_command(*_every_input(tmp_path, files, argv))
    assert got["status"] == 0
    modules = ["cli", "graph", "structure", "traces"] + layers
    assert got["loaded"] == sorted(["cktrace"] + [f"cktrace.{m}" for m in modules])


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "{loop}", "{functional}", "--max-len", "3"),
        ("eval", "{loop}", "{functional}", "e|@v"),
    ],
    ids=["verify", "eval"],
)
def test_suite_commands_do_not_load_dataclasses(files, tmp_path, argv):
    got = _after_command(*_every_input(tmp_path, files, argv))
    assert got["status"] == 0
    assert "cktrace.functionals" in got["loaded"]
    assert got["dataclasses"] is False


EVERY_COMMAND = pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{graph}"),
        ("tighten", "{graph}"),
        ("traces", "{graph}"),
        ("check-trace", "{loop}", "{trace}"),
        ("tag-check", "{loop}", "{trace}", "{tag}"),
        ("eval", "{loop}", "{functional}", "e|@v"),
        ("verify", "{loop}", "{functional}", "--max-len", "3"),
        ("fuzz", "--seed", "1", "--count", "3"),
    ],
    ids=lambda argv: argv[0],
)


@EVERY_COMMAND
def test_no_command_loads_openssl_and_only_fuzz_runs_fuzz(files, tmp_path, argv):
    """The input digests come from the interpreter's own SHA-256, so no
    command loads OpenSSL's binding, ``_hashlib``; and ``verify`` counts its
    monomials in ``graph``, so only ``fuzz`` runs the ``fuzz`` layer."""
    got = _after_command(*_every_input(tmp_path, files, argv))
    assert got["status"] == 0
    assert got["openssl"] is False
    assert ("cktrace.fuzz" in got["loaded"]) == (argv[0] == "fuzz")


@EVERY_COMMAND
def test_no_command_imports_typing(files, tmp_path, argv):
    """Run under ``python -S``, so that no ``site`` hook imports it first, no
    command imports ``typing``: the abstract types in annotations come from
    ``collections.abc``, and no module imports it for an annotation alone."""
    code = (
        "import json, sys\n"
        "import cktrace.cli\n"
        f"status = cktrace.cli.main({_every_input(tmp_path, files, argv)!r})\n"
        "print(json.dumps([status, 'typing' in sys.modules]))"
    )
    assert _python(code, "-S") == [0, False]


def test_importing_the_package_loads_no_module():
    code = (
        "import importlib.util, json, sys\n"
        "import cktrace\n"
        f"print(json.dumps([{LOADED}, 'dataclasses' in sys.modules]))"
    )
    assert _python(code) == [["cktrace"], False]


def test_importing_the_package_registers_every_layer_unexecuted():
    """The package is the one lazy loader: each layer is in sys.modules as a
    LazyLoader module whose code has not run, and the CLI, which is not a
    layer, is not there at all."""
    code = (
        "import importlib.util, json, sys\n"
        "import cktrace\n"
        "print(json.dumps({n: isinstance(m, importlib.util._LazyModule)"
        " for n, m in sys.modules.items() if n.startswith('cktrace.')}))"
    )
    layers = ("graph", "structure", "traces", "tagging", "monomials", "functionals", "fuzz")
    assert _python(code) == {f"cktrace.{layer}": True for layer in layers}


def test_cli_runs_with_warnings_as_errors(files):
    """`python -m cktrace.cli` warns about nothing, so runpy finds no
    cktrace.cli in sys.modules before it runs the module."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cktrace.cli", "analyze", files[0]],
        env=env, capture_output=True, text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["command"] == "analyze"


def test_benchmark_shim_finds_every_traced_layer():
    """perfbench/shim.py reads sys.modules["cktrace.<layer>"] for each layer it
    traces right after `import cktrace.cli`, then wraps functions there."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r})\n"
        "import shim\n"
        "import cktrace, cktrace.cli\n"
        "missing = [layer for layer in shim.TRACED if f'cktrace.{layer}' not in sys.modules]\n"
        "names = [cktrace.functionals.TraceFunctional.__name__, cktrace.tagging.CircleValue.__name__]\n"
        "shim.install(shim.Tracer())\n"
        "print(json.dumps([missing, names, len(shim.TRACED)]))"
    )
    assert _python(code) == [[], ["TraceFunctional", "CircleValue"], 8]


def test_benchmark_shim_names_resolve():
    """Every function perfbench/shim.py wraps is still there on its layer,
    with TraceFunctional.value and CircleValue's __eq__ and is_zero, so
    deleting one fails here and not only in the benchmark's traced run.  The
    shim is loaded from its file path, writes no bytecode and wraps nothing."""
    shim_path = os.path.join(ROOT, "perfbench", "shim.py")
    code = (
        "import importlib.util, json, sys\n"
        "sys.dont_write_bytecode = True\n"
        f"spec = importlib.util.spec_from_file_location('shim', {shim_path!r})\n"
        "shim = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(shim)\n"
        "import cktrace.cli\n"
        "from cktrace.functionals import TraceFunctional\n"
        "from cktrace.tagging import CircleValue\n"
        "names = [f'{layer}.{name}' for layer, names in shim.TRACED.items() for name in names]\n"
        "missing = [n for n in names"
        " if not callable(getattr(sys.modules['cktrace.' + n.split('.')[0]], n.split('.')[1], None))]\n"
        "methods = [callable(TraceFunctional.value), CircleValue.__eq__ is not object.__eq__,"
        " isinstance(CircleValue.is_zero, property)]\n"
        "print(json.dumps([len(names), missing, methods]))"
    )
    count, missing, methods = _python(code)
    assert count > 0 and missing == []
    assert methods == [True, True, True]


def test_every_old_export_is_importable():
    old = {name: module for module, names in OLD_EXPORTS.items() for name in names.split()}
    code = (
        "import importlib, json, cktrace\n"
        f"old = {old!r}\n"
        "ns = {}\n"
        "exec('from cktrace import ' + ', '.join(old), ns)\n"
        "same = [n for n, m in old.items()"
        " if ns[n] is getattr(importlib.import_module('cktrace.' + m), n)]\n"
        "print(json.dumps([sorted(same), sorted(cktrace.__all__)]))"
    )
    same, exported = _python(code)
    assert same == exported == sorted(old)


def test_monomials_stays_the_function_once_the_submodule_is_loaded():
    """`cktrace.monomials` names the enumeration function, whether it is read
    before or after the submodule of that name is imported."""
    code = (
        "import json, sys, types\n"
        "import cktrace\n"
        "first = callable(cktrace.monomials)\n"
        "import cktrace.functionals\n"  # imports cktrace.monomials, the submodule
        "from cktrace import monomials\n"
        "print(json.dumps([first, callable(cktrace.monomials), monomials is cktrace.monomials,"
        " isinstance(sys.modules['cktrace.monomials'], types.ModuleType)]))"
    )
    assert _python(code) == [True, True, True, True]
    code = (
        "import json, cktrace.monomials, cktrace\n"
        "print(json.dumps([cktrace.monomials.__module__, cktrace.monomials.__name__]))"
    )
    assert _python(code) == ["cktrace.monomials", "monomials"]


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        example = re.search(r"## Library\n\n```python\n(.*?)```", fh.read(), re.S).group(1)
    code = example + (
        "\nimport json\n"
        "print(json.dumps([sorted(removed), str(fn.value(ck.parse_monomial(g, 'e|@v')))]))"
    )
    assert _python(code) == [["u"], "1*z(1/3)"]


def _names(tree, counts):
    """Add one to counts for each name and attribute the tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] = counts.get(node.id, 0) + 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] = counts.get(node.attr, 0) + 1
    return counts


def _trees(folder):
    trees = []
    for path in sorted(glob.glob(os.path.join(folder, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees.append(ast.parse(fh.read(), path))
    return trees


def _definitions(tree):
    """Each top-level function, class and constant of a module, and each
    method and property of its classes, with its defining node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m) for m in node.body if isinstance(m, ast.FunctionDef))


FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)


def _readme_code(text):
    """The README's code: each fenced block without its ``#`` comments, and
    each inline code span of the text around the blocks."""
    blocks = [re.sub(r"#.*", "", block) for block in FENCE.findall(text)]
    return blocks + re.findall(r"`+([^`]+)`+", FENCE.sub("", text))


def test_readme_code_leaves_out_prose_and_comments():
    text = "A word.\n```sh\nrun x  # alias of y\n```\nSee `z.of` and ``w``.\n"
    assert _readme_code(text) == ["run x  \n", "z.of", "w"]


def test_every_public_definition_is_used_outside_the_tests():
    """Each public definition of the package (top-level function, class or
    constant, or method or property of a class) is named somewhere other
    than its own definition and the tests: elsewhere in the package, in
    scripts/ or perfbench/, or in the README's code (its inline code spans,
    and its fenced blocks without their comments).  Names are matched
    alone, so a method that shares its name with another in use passes.  A
    helper only tests call belongs in tests/reference.py."""
    package = _trees(os.path.join(SRC, "cktrace"))
    in_package = {}
    for tree in package:
        _names(tree, in_package)
    outside = set()
    for folder in ("scripts", "perfbench"):
        for tree in _trees(os.path.join(ROOT, folder)):
            outside.update(_names(tree, {}))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        outside.update(re.findall(r"\w+", " ".join(_readme_code(fh.read()))))
    unused = [
        name
        for tree in package
        for name, node in _definitions(tree)
        if not name.startswith("_")
        and name not in outside
        and in_package.get(name, 0) == _names(node, {}).get(name, 0)
    ]
    assert unused == []
