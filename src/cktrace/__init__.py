"""Exact trace-space computations for finite-graph Cuntz-Krieger algebras.

Importing the package loads none of its modules: each name in ``__all__``
is resolved from its module on first access (PEP 562), and so is each
submodule, ``cktrace.graph`` through ``cktrace.cli``.  A command-line run
thus loads only the modules its command uses.

``cktrace.monomials`` stays the enumeration function, as it always was,
even once the submodule of that name is loaded; names inside the
submodule are reached with ``from cktrace.monomials import ...``.
"""

import importlib
import sys
import types

_EXPORTS = {
    "graph": (
        "Edge",
        "Graph",
        "GraphError",
        "LimitError",
        "ParseError",
        "Path",
        "Ray",
        "compose",
        "cyclic_structure",
        "entries_of",
        "format_path",
        "incomparable",
        "is_prefix",
        "parse_graph",
        "paths_up_to",
        "rays",
        "reaches",
        "remainder",
        "serialize_graph",
        "simple_cycles",
    ),
    "structure": (
        "auto_gauge_criterion",
        "emit_entry_set",
        "essentially_left_infinite",
        "is_hereditary",
        "is_saturated",
        "is_tight",
        "left_infinite_set",
        "quotient_graph",
        "saturate",
        "tighten_left",
        "tighten_min",
    ),
    "traces": (
        "GraphTrace",
        "char_implication_check",
        "cyclic_support",
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
        "expect_diagonal",
        "monomials",
        "multiply",
        "normal_monomials",
        "parse_monomial",
        "projection",
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
        "haar_functional",
        "haar_tagged_functional",
        "run_suites",
        "tagged_functional",
    ),
    "fuzz": ("graph_battery", "random_graph"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)


class _Package(types.ModuleType):
    """The import system binds each submodule it loads to its name on the
    package; that must not shadow the exported name ``monomials``."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
