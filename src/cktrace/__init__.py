"""Exact trace-space computations for finite-graph Cuntz-Krieger algebras."""

from .graph import (
    Edge,
    Graph,
    GraphError,
    LimitError,
    ParseError,
    Path,
    Ray,
    compose,
    cyclic_structure,
    entries_of,
    format_path,
    incomparable,
    is_prefix,
    parse_graph,
    paths_up_to,
    rays,
    reaches,
    remainder,
    serialize_graph,
    simple_cycles,
)
from .structure import (
    auto_gauge_criterion,
    emit_entry_set,
    essentially_left_infinite,
    is_hereditary,
    is_saturated,
    is_tight,
    left_infinite_set,
    quotient_graph,
    saturate,
    tighten_left,
    tighten_min,
)
from .traces import (
    GraphTrace,
    char_implication_check,
    cylinder_positive,
    extreme_traces,
    lift_trace,
    trace_vanishing_check,
    validate_trace,
    violation_certificate,
    witness_nongauge_trace,
)
from .tagging import (
    CircleMeasure,
    CircleValue,
    Tag,
    cyclic_support,
    haar_tag,
    moment,
    validate_tag,
)
from .monomials import (
    CyclicForm,
    Monomial,
    ZERO,
    cyclic_form,
    expect_core,
    expect_diagonal,
    monomials,
    multiply,
    normal_monomials,
    parse_monomial,
    projection,
)
from .functionals import (
    CheckResult,
    TraceFunctional,
    check_edge_invariance,
    check_gauge,
    check_traciality,
    ck_additivity_check,
    cylinder_measure_check,
    gram_psd_check,
    haar_functional,
    haar_tagged_functional,
    run_suites,
    tagged_functional,
)
from .fuzz import graph_battery, random_graph

__version__ = "0.1.0"
