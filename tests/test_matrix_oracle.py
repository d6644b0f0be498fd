"""Independent matrix-representation oracles for the functional calculus.

For graphs whose algebra has a concrete finite-dimensional model we can
realize every spanning monomial as an explicit matrix and compare the
normalized matrix trace against the symbolic evaluator, numerically to
1e-12.  This exercises the product rule, the canonical cyclic form and the
moment arithmetic through a completely different computational path.
"""

import cmath
from fractions import Fraction

import numpy as np

from cktrace.functionals import haar_tagged_functional, tagged_functional
from cktrace.monomials import monomials
from cktrace.tagging import CircleMeasure, Tag

from conftest import trace_of


def rep_matrix(edge_mats, proj_mats, monomial):
    """Matrix of a monomial: left path forward times adjoint of right path."""

    def path_mat(path):
        m = proj_mats[path.range]
        for eid in path.edges:
            m = m @ edge_mats[eid]
        # arriving matrices already carry the source projection
        return m

    return path_mat(monomial.left) @ path_mat(monomial.right).conj().T


def assert_matches(graph, fn, edge_mats, proj_mats, weight, max_len):
    for x in monomials(graph, max_len):
        concrete = weight * np.trace(rep_matrix(edge_mats, proj_mats, x))
        symbolic = fn.value(x).as_complex()
        assert abs(concrete - symbolic) < 1e-12, (x, concrete, symbolic)


def test_line3_permutation_representation(line3):
    # boundary paths @v3, b, a.b span C^3 (basis indices 0, 1, 2); edges act
    # as shifts and the unique tracial state is the normalized trace of M_3
    E = lambda i, j: np.eye(3)[:, [i]] @ np.eye(3)[[j], :]  # 1 at row i, col j
    edge_mats = {"a": E(2, 1), "b": E(1, 0)}
    proj_mats = {"v1": E(2, 2), "v2": E(1, 1), "v3": E(0, 0)}
    third = Fraction(1, 3)
    fn = haar_tagged_functional(line3, trace_of({"v1": third, "v2": third, "v3": third}))
    assert_matches(line3, fn, edge_mats, proj_mats, 1 / 3, max_len=4)


def test_loop_point_representation(loop_graph):
    # evaluation at a circle point: the loop isometry becomes the scalar z
    theta = Fraction(1, 3)
    z = cmath.exp(2j * cmath.pi * float(theta))
    edge_mats = {"e": np.array([[z]])}
    proj_mats = {"v": np.array([[1.0 + 0j]])}
    tag = Tag.from_dict({"v": CircleMeasure.point_mass(theta)})
    fn = tagged_functional(loop_graph, trace_of({"v": 1}), tag)
    assert_matches(loop_graph, fn, edge_mats, proj_mats, 1.0, max_len=6)


def test_two_cycle_twisted_representation(two_cycle):
    # 2x2 model: the two edges shift between the vertex lines and the
    # round-trip holonomy is the tagged point z; trace weight 1/2 per vertex
    theta = Fraction(1, 5)
    z = cmath.exp(2j * cmath.pi * float(theta))
    E = lambda i, j: np.eye(2)[:, [i]] @ np.eye(2)[[j], :]  # 1 at row i, col j
    # basis index 0 = line at v, 1 = line at w; a runs v -> w, b runs w -> v
    edge_mats = {"a": z * E(1, 0).astype(complex), "b": E(0, 1).astype(complex)}
    proj_mats = {"v": E(0, 0).astype(complex), "w": E(1, 1).astype(complex)}
    half = Fraction(1, 2)
    tag = Tag.from_dict(
        {"v": CircleMeasure.point_mass(theta), "w": CircleMeasure.point_mass(theta)}
    )
    fn = tagged_functional(two_cycle, trace_of({"v": half, "w": half}), tag)
    assert_matches(two_cycle, fn, edge_mats, proj_mats, 1 / 2, max_len=5)


def test_disjoint_loops_block_representation(disjoint_loops):
    # two one-dimensional blocks; the extreme trace {v:1, w:0} is the trace
    # of the v block only, so the w block gets weight zero
    theta = Fraction(2, 7)
    z = cmath.exp(2j * cmath.pi * float(theta))
    edge_mats = {
        "lv": np.diag([z, 0]).astype(complex),
        "lw": np.diag([0, 1]).astype(complex),
    }
    proj_mats = {
        "v": np.diag([1, 0]).astype(complex),
        "w": np.diag([0, 1]).astype(complex),
    }
    tag = Tag.from_dict({"v": CircleMeasure.point_mass(theta)})
    fn = tagged_functional(disjoint_loops, trace_of({"v": 1, "w": 0}), tag)

    # weight 1 on the v block, 0 on the w block: build the weighted trace by
    # compressing with the v projection before tracing
    for x in monomials(disjoint_loops, 5):
        mat = rep_matrix(edge_mats, proj_mats, x)
        concrete = np.trace(proj_mats["v"] @ mat)
        symbolic = fn.value(x).as_complex()
        assert abs(concrete - symbolic) < 1e-12, x
