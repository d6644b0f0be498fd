"""Exact trace-space computations for finite-graph Cuntz-Krieger algebras.

Importing the package runs none of its modules.  It registers each layer,
``cktrace.graph`` through ``cktrace.fuzz``, in ``sys.modules`` as a lazily
loaded module (``importlib.util.LazyLoader``), whose code runs on first
attribute access, and it resolves each name in ``__all__`` from its layer
on first access (PEP 562).  ``import cktrace.<layer>`` and
``from cktrace import <layer>`` find the registered module, so a
command-line run loads only the layers its command uses.

``cktrace.monomials`` stays the enumeration function, as it always was:
the import system binds a submodule onto the package only when it loads
one that is not in ``sys.modules`` yet, and no layer is ever missing
there.  Names inside the submodule are reached with
``from cktrace.monomials import ...``.
"""

import importlib.util
import sys

_EXPORTS = {
    "graph": (
        "Edge",
        "Graph",
        "GraphError",
        "LimitError",
        "ParseError",
        "Path",
        "compose",
        "cyclic_structure",
        "format_path",
        "is_prefix",
        "parse_graph",
        "paths_up_to",
        "remainder",
        "simple_cycles",
    ),
    "structure": (
        "auto_gauge_criterion",
        "cyclic_support",
        "emit_entry_set",
        "essentially_left_infinite",
        "is_hereditary",
        "is_saturated",
        "is_tight",
        "quotient_graph",
        "saturate",
        "tighten_min",
    ),
    "traces": (
        "GraphTrace",
        "char_implication_check",
        "cylinder_positive",
        "extreme_traces",
        "lift_trace",
        "trace_vanishing_check",
        "validate_trace",
        "violation_certificate",
        "witness_nongauge_trace",
    ),
    "tagging": (
        "CircleMeasure",
        "CircleValue",
        "Tag",
        "haar_tag",
        "moment",
        "validate_tag",
    ),
    "monomials": (
        "CyclicForm",
        "Monomial",
        "ZERO",
        "cyclic_form",
        "expect_core",
        "monomials",
        "multiply",
        "parse_monomial",
    ),
    "functionals": (
        "CheckResult",
        "TraceFunctional",
        "check_edge_invariance",
        "check_gauge",
        "check_traciality",
        "ck_additivity_check",
        "cylinder_measure_check",
        "gram_psd_check",
        "haar_tagged_functional",
        "run_suites",
        "tagged_functional",
    ),
    "fuzz": ("graph_battery", "random_graph"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def _register(name: str) -> None:
    """Put the module ``name`` into ``sys.modules``, unexecuted, to run its
    code on first attribute access; a module already there is kept."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)


for _layer in _EXPORTS:
    _register(f"{__name__}.{_layer}")
del _layer


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        value = getattr(sys.modules[f"{__name__}.{home}"], name)
    elif name in _EXPORTS:
        value = sys.modules[f"{__name__}.{name}"]
    elif name == "cli":
        value = importlib.import_module(f"{__name__}.cli")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _EXPORTS.keys() | {"cli"})
