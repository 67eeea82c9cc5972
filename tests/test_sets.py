import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmpc import sets as sets_module
from koopmpc.qp import SolverFailed
from koopmpc.sets import (
    CONTAINS_TOL,
    EmptyTightenedSet,
    HPolytope,
    TighteningSchedule,
    Zonotope,
    box_polytope,
    box_zonotope,
    contains,
    is_empty,
    margin,
    point,
    pontryagin_diff,
    sample,
    support,
    tighten_constraints,
)
from oracles import (
    box_vertices,
    grid_membership_diff,
    linear_map,
    minkowski_sum,
    numerical_example_matrices,
    tighten_recursive,
    zonotope_vertices,
)


# --- support ---------------------------------------------------------------

def test_support_unit_box():
    Z = box_zonotope([1.0, 1.0])
    assert support(Z, np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_support_singleton():
    Z = Zonotope(center=[1.5, -2.0], generators=np.zeros((2, 0)))
    a = np.array([3.0, 1.0])
    assert support(Z, a) == pytest.approx(a @ [1.5, -2.0])


def test_support_mirrored_direction(rng):
    Z = Zonotope(center=rng.standard_normal(3), generators=rng.standard_normal((3, 4)))
    a = rng.standard_normal(3)
    spread = support(Z, a) - a @ Z.center
    assert support(Z, -a) == pytest.approx(-a @ Z.center + spread)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2**31))
def test_support_positive_homogeneity(lam, seed):
    r = np.random.default_rng(seed)
    Z = Zonotope(center=r.standard_normal(2), generators=r.standard_normal((2, 3)))
    a = r.standard_normal(2)
    assert support(Z, lam * a) == pytest.approx(lam * support(Z, a), rel=1e-9)


def test_support_matches_vertex_enumeration(rng):
    Z = Zonotope(center=rng.standard_normal(2), generators=rng.standard_normal((2, 4)))
    a = rng.standard_normal(2)
    brute = max(v @ a for v in zonotope_vertices(Z.center, Z.generators))
    assert support(Z, a) == pytest.approx(brute, abs=1e-10)


# --- minkowski_sum / linear_map ---------------------------------------------

def test_minkowski_interval_addition():
    s = minkowski_sum(box_zonotope([1.0]), box_zonotope([0.2]))
    assert support(s, np.array([1.0])) == pytest.approx(1.2)
    assert support(s, np.array([-1.0])) == pytest.approx(1.2)


def test_minkowski_identity_element():
    Z = Zonotope(center=[0.3, -0.4], generators=[[0.1, 0.0], [0.2, 0.5]])
    s = minkowski_sum(Z, Zonotope(center=[0.0, 0.0], generators=np.zeros((2, 0))))
    assert np.allclose(s.center, Z.center)
    assert np.allclose(s.generators, Z.generators)


def test_minkowski_box_scaling():
    s = minkowski_sum(box_zonotope([0.2] * 3), box_zonotope([0.2] * 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert support(s, e) == pytest.approx(0.4)


def test_linear_map_projection():
    C_x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    Z = linear_map(C_x, box_zonotope([0.2] * 3))
    assert Z.center.shape == (2,)
    assert support(Z, np.array([1.0, 0.0])) == pytest.approx(0.2)
    assert support(Z, np.array([0.0, -1.0])) == pytest.approx(0.2)


def test_linear_map_zero_and_scaling():
    Z = box_zonotope([0.5, 0.5])
    z0 = linear_map(np.zeros((2, 2)), Z)
    assert support(z0, np.array([1.0, 1.0])) == pytest.approx(0.0)
    z2 = linear_map(2.0 * np.eye(2), Z)
    assert np.allclose(z2.generators, 2.0 * Z.generators)


# --- pontryagin_diff ---------------------------------------------------------

def test_pontryagin_interval_arithmetic():
    P = box_polytope([-1.0, -1.0], [1.0, 1.0])
    D = pontryagin_diff(P, box_zonotope([0.2, 0.1]))
    assert np.allclose(np.sort(D.offsets), np.sort([0.8, 0.9, 0.8, 0.9]))
    assert contains(D, [0.8, 0.9])
    assert not contains(D, [0.8 + 1e-6, 0.9])


def test_pontryagin_zero_is_identity():
    P = box_polytope([-1.0, -2.0], [3.0, 4.0])
    D = pontryagin_diff(P, Zonotope(center=[0.0, 0.0], generators=np.zeros((2, 0))))
    assert np.allclose(D.offsets, P.offsets)
    assert np.allclose(D.normals, P.normals)


def test_pontryagin_oversubtraction_empties():
    P = box_polytope([-0.1], [0.1])
    D = pontryagin_diff(P, box_zonotope([0.2]))
    assert np.allclose(D.offsets, [-0.1, -0.1])
    assert is_empty(D)


def test_pontryagin_matches_grid_oracle(rng):
    # Smoke-sized version of the acceptance oracle comparison.
    for _ in range(20):
        lo = rng.uniform(-1.0, -0.3, size=2)
        hi = rng.uniform(0.3, 1.0, size=2)
        P = box_polytope(lo, hi)
        Z = Zonotope(
            center=rng.uniform(-0.05, 0.05, size=2),
            generators=rng.uniform(-0.15, 0.15, size=(2, 3)),
        )
        D = pontryagin_diff(P, Z)
        xs = np.arange(lo[0] - 0.05, hi[0] + 0.05, 0.01)
        ys = np.arange(lo[1] - 0.05, hi[1] + 0.05, 0.01)
        pts = np.array([[x, y] for x in xs for y in ys])
        oracle = grid_membership_diff(P.normals, P.offsets, Z.center, Z.generators, pts)
        exact = np.array([contains(D, p) for p in pts])
        disagree = pts[oracle != exact]
        for p in disagree:
            # Disagreements may only hug the exact boundary (one grid cell).
            gap = np.min(np.abs(D.offsets - D.normals @ p))
            assert gap <= 0.015


def test_erosion_then_dilation_is_contained(rng):
    for _ in range(20):
        lo = rng.uniform(-1.0, -0.3, size=2)
        hi = rng.uniform(0.3, 1.0, size=2)
        P = box_polytope(lo, hi)
        Z = Zonotope(
            center=np.zeros(2), generators=rng.uniform(-0.1, 0.1, size=(2, 3))
        )
        D = pontryagin_diff(P, Z)
        if is_empty(D):
            continue
        # D is a box (rows I then -I): enumerate its corners, dilate by Z's vertices.
        hi_d = np.array([D.offsets[i] for i in range(2)])
        lo_d = -np.array([D.offsets[i + 2] for i in range(2)])
        if np.any(lo_d > hi_d):
            continue
        for corner in box_vertices(lo_d, hi_d):
            for v in zonotope_vertices(Z.center, Z.generators):
                assert contains(P, corner + v)


# --- is_empty / contains / sample --------------------------------------------

def test_is_empty_cases():
    assert not is_empty(box_polytope([-0.8, -0.8], [0.8, 0.8]))
    bad = HPolytope(normals=[[1.0], [-1.0]], offsets=[-1.0, -1.0])  # x<=-1, x>=1
    assert is_empty(bad)
    degenerate = HPolytope(normals=[[1.0], [-1.0]], offsets=[0.0, 0.0])  # {0}
    assert not is_empty(degenerate)


def test_is_empty_box_closed_form_agrees_with_the_slack_program():
    """Signed unit rows take the closed form; the same halfspaces scaled by 2
    take the slack LP. Offsets on a 0.25 grid keep every gap 0 or far from
    the tolerance."""
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(60):
        m = int(rng.integers(1, 8))
        normals = np.zeros((m, 3))
        normals[np.arange(m), rng.integers(0, 3, m)] = rng.choice([-1.0, 1.0], m)
        offsets = rng.integers(-8, 9, m) * 0.25
        empty = is_empty(HPolytope(normals=normals, offsets=offsets))
        assert empty == is_empty(HPolytope(normals=2 * normals, offsets=2 * offsets))
        outcomes.add(empty)
    assert outcomes == {True, False}


@pytest.mark.parametrize("normals, offsets, slack", [
    ([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [-1.0, 0.0, 0.0], 1 / 3),  # x1 + x2 <= -1, x >= 0
    ([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0], 0.0),  # a triangle
    ([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [2.0, 0.0, -1.0], 0.0),  # the point (1, 1)
], ids=["empty", "triangle", "point"])
def test_is_empty_oblique_normals_take_the_slack_program(normals, offsets, slack):
    """The minimal slack s of a_i'x - s <= b_i decides emptiness against
    CONTAINS_TOL: 1/3 for the empty set (x1, x2 >= -s and x1 + x2 <= s - 1),
    0 otherwise."""
    P = HPolytope(normals=normals, offsets=offsets)
    assert is_empty(P) == (slack > 0.0)


@pytest.mark.parametrize("delta, empty", [(1e-12, True), (0.0, False), (-1e-12, False)])
def test_is_empty_takes_a_box_gap_past_the_tolerance_as_empty(delta, empty):
    """x <= 0 and x >= 2 (CONTAINS_TOL + delta): the closed form's minimal
    slack, half the gap, is CONTAINS_TOL + delta exactly (a doubling and a
    halving), and the set is empty only where it exceeds CONTAINS_TOL."""
    gap = 2 * (CONTAINS_TOL + delta)
    assert is_empty(HPolytope(normals=[[1.0], [-1.0]], offsets=[0.0, -gap])) == empty


def test_is_empty_slack_program_failure_raises_solver_failed(monkeypatch):
    def failed(*args, **kwargs):
        return SimpleNamespace(success=False, status=4, message="Numerical difficulties.")

    monkeypatch.setattr(scipy.optimize, "linprog", failed)  # imported where it runs
    P = HPolytope(normals=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], offsets=[1.0, 0.0, 0.0])
    with pytest.raises(SolverFailed, match="slack program did not solve: Numerical difficulties"):
        is_empty(P)
    assert not is_empty(box_polytope([0.0, 0.0], [1.0, 1.0]))  # a box needs no LP


def test_contains_tolerance():
    P = box_polytope([-1.0, -1.0], [1.0, 1.0])
    assert contains(P, [0.0, 0.0])
    assert contains(P, [1.0 + 0.5e-9, 0.0])
    assert not contains(P, [1.0 + 2e-9, 0.0])


def test_margin_of_a_set_with_no_rows_is_infinite():
    # No halfspace bounds the point: contains() holds, and the worst slack is +inf.
    P = HPolytope(np.zeros((0, 2)), np.zeros(0))
    for x in ([1.0, 2.0], np.array([1.0, 2.0])):
        assert contains(P, x) and margin(P, x) == np.inf


# A (k, 2) array is a stack of k points of a 2-dimensional set, so the 2-D
# wrong size is a stack of 3-dimensional points.
@pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0]), 1.0, np.zeros((2, 3))])
def test_margin_names_both_dimensions_of_a_wrong_size_point(x):
    n = np.size(x)
    with pytest.raises(ValueError, match=re.escape(f"point of dimension {n} for a set of dimension 2")):
        margin(box_polytope([-1.0, -1.0], [1.0, 1.0]), x)


def test_contains_names_both_dimensions_of_a_wrong_size_point():
    # This used to raise numpy's raw matmul error, naming neither set nor point.
    P = box_polytope([-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="point of dimension 3 for a set of dimension 2"):
        contains(P, [1.0, 2.0, 3.0])
    assert not contains(P, [np.nan, 0.0])


def test_sample_singleton_and_membership(rng):
    c = np.array([0.7, -0.3])
    singleton = Zonotope(center=c, generators=np.zeros((2, 0)))
    assert np.allclose(sample(singleton, rng), c)
    Z = Zonotope(center=c, generators=rng.standard_normal((2, 5)))
    for _ in range(50):
        pt = sample(Z, rng)
        # A zonotope point never exceeds the support in any probe direction.
        for a in np.eye(2):
            assert a @ pt <= support(Z, a) + 1e-12
            assert -a @ pt <= support(Z, -a) + 1e-12


def test_sample_deterministic_for_fixed_seed():
    Z = Zonotope(center=[0.0, 0.0], generators=np.eye(2))
    a = sample(Z, np.random.default_rng(42))
    b = sample(Z, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sample_is_the_point_of_its_draws(rng):
    # sample draws g numbers and returns point(Z, xi), bit for bit; a
    # zonotope without generators draws nothing and returns its center,
    # -0.0 included, as a copy.
    Z = Zonotope(center=rng.standard_normal(3), generators=rng.standard_normal((3, 4)))
    r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(20):
        assert sample(Z, r1).tobytes() == point(Z, r2.uniform(-1.0, 1.0, size=4)).tobytes()
    singleton = Zonotope(center=[-0.0, 1.5], generators=np.zeros((2, 0)))
    before = r1.bit_generator.state
    for pt in (sample(singleton, r1), point(singleton, np.zeros(0))):
        assert pt.tobytes() == singleton.center.tobytes() and pt is not singleton.center
    assert r1.bit_generator.state == before


@pytest.mark.parametrize("n, g", [(3, 5), (2, 3), (3, 3), (4, 7), (1, 1), (6, 2)])
def test_point_of_a_stack_is_each_rows_point_bit_for_bit(n, g):
    # A (k, g) stack of draws gives the k points, each the bits of the
    # one-draw call, on random generators that are not a box. The draws are a
    # strided view, as W's columns of a run's draws are; one xi G' product
    # would round some rows otherwise.
    rng = np.random.default_rng(100 * n + g)
    Z = Zonotope(center=rng.standard_normal(n), generators=rng.standard_normal((n, g)))
    xi = rng.uniform(-1.0, 1.0, size=(40, g + 2))[:, :g]
    stacked = point(Z, xi)
    assert stacked.shape == (40, n)
    assert stacked.tobytes() == np.array([point(Z, row) for row in xi]).tobytes()
    assert point(Z, xi[:0]).shape == (0, n)


def test_point_of_a_stack_without_generators_is_copies_of_the_center():
    # g = 0 keeps the center, so -0.0 stays -0.0 in every row, as in the
    # one-draw call; the rows are copies, not views of the center.
    Z = Zonotope(center=[-0.0, 1.5], generators=np.zeros((2, 0)))
    stacked = point(Z, np.zeros((4, 0)))
    assert stacked.shape == (4, 2)
    assert all(row.tobytes() == point(Z, np.zeros(0)).tobytes() == Z.center.tobytes()
               for row in stacked)
    stacked[:, 1] = 7.0
    assert Z.center.tolist() == [-0.0, 1.5]
    assert point(Z, np.zeros((0, 0))).shape == (0, 2)


def test_margin_of_a_stack_of_points_is_the_worst_slack_of_each():
    # Oblique normals as well as a box: the stacked slacks agree with the
    # one-point calls to rounding, and a set with no rows gives +inf for each.
    rng = np.random.default_rng(7)
    X = rng.uniform(-2.0, 2.0, size=(25, 2))
    for P in (box_polytope([-1.0, -1.0], [1.0, 1.0]),
              HPolytope(rng.standard_normal((5, 2)), rng.uniform(0.5, 1.5, 5))):
        stacked = margin(P, X)
        assert stacked.shape == (25,)
        assert np.allclose(stacked, [margin(P, x) for x in X], rtol=0.0, atol=1e-14)
    assert margin(HPolytope(np.zeros((0, 2)), np.zeros(0)), X).tolist() == [np.inf] * 25


# --- construction validation --------------------------------------------------

def test_hpolytope_rejects_zero_rows():
    with pytest.raises(ValueError):
        HPolytope(normals=[[0.0, 0.0]], offsets=[1.0])


@pytest.mark.parametrize("lo, hi, named", [
    ([-1.0, 2.0], [1.0, 1.0], "need lo <= hi componentwise"),
    ([-1.0, -1.0], [1.0], "lo and hi must have equal length"),
], ids=["crossed", "lengths"])
def test_box_polytope_refuses_bounds_that_make_no_box(lo, hi, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        box_polytope(lo, hi)


def test_zonotope_shape_validation():
    with pytest.raises(ValueError):
        Zonotope(center=[0.0, 0.0], generators=np.zeros((3, 2)))


@pytest.mark.parametrize("generators", [[0.1, 0.2, 0.3, 0.4], [], 0.5, np.zeros((2, 2, 1))],
                         ids=["flat", "flat-empty", "scalar", "3-D"])
def test_zonotope_generators_are_a_matrix_as_given(generators):
    # A generators array that is not 2-D used to be reshaped to (n, -1), so a
    # flat list of 2n numbers became an n x 2 matrix.
    with pytest.raises(ValueError, match=re.escape("generators must be an (n, g) matrix")):
        Zonotope(center=[0.0, 0.0], generators=generators)
    assert Zonotope(center=[0.0, 0.0], generators=[[], []]).generators.shape == (2, 0)


@pytest.mark.parametrize("make", [lambda c: Zonotope(center=c, generators=np.eye(2)),
                                  lambda c: box_zonotope([0.1, 0.2], c)], ids=["Zonotope", "box"])
@pytest.mark.parametrize("center", [[[0.0], [0.0]], [[0.0, 0.0]], 0.0],
                         ids=["column", "row", "scalar"])
def test_zonotope_center_is_a_list_as_given(make, center):
    # A center that is not 1-D used to be raveled, so a 2 x 1 matrix passed
    # as a 2-dim center.
    with pytest.raises(ValueError, match=re.escape("center must be a list of numbers, got shape")):
        make(center)
    assert make([0.0, 0.0]).center.shape == (2,)


@pytest.mark.parametrize("half_extents", [[[0.1, 0.0], [0.0, 0.2]], [0.1, -0.2], 0.1],
                         ids=["matrix", "negative", "scalar"])
def test_box_zonotope_takes_a_list_of_half_extents_at_least_zero(half_extents):
    with pytest.raises(ValueError, match=re.escape("half_extents must be a list of numbers >= 0")):
        box_zonotope(half_extents)


# --- tighten_constraints -------------------------------------------------------

def _benchmark_instance():
    A, B = numerical_example_matrices(-0.1, 2.0)
    # Hand-picked stabilizing gain making A+BK = diag(-0.1, 0, 0.01): the
    # reachable error boxes then follow by interval arithmetic on paper.
    K = np.array([[0.0, -2.0, 1.99]])
    X = box_polytope([-5.0, -5.0], [5.0, 5.0])
    U = box_polytope([-3.0], [3.0])
    W = box_zonotope([0.2] * 3)
    V = box_zonotope([0.1] * 2)
    C_x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    class D:
        pass

    d = D()
    d.W, d.V = W, V
    return X, U, d, A, B, K, C_x


def test_tightening_benchmark_frozen_values():
    X, U, d, A, B, K, C_x = _benchmark_instance()
    sched = tighten_constraints(X, U, d, A, B, K, C_x, N=2)
    # X~(0) = X minus V  ->  [-4.9, 4.9]^2
    assert np.allclose(sched.state_sets[0].offsets, [4.9, 4.9, 4.9, 4.9])
    # X~(1) = X minus (C_x W + V)  ->  [-4.7, 4.7]^2
    assert np.allclose(sched.state_sets[1].offsets, [4.7, 4.7, 4.7, 4.7])
    # R(2) = W + A_K W has box radii (0.22, 0.2, 0.202):
    # X~(2) -> [-4.68, 4.68] x [-4.7, 4.7]
    assert np.allclose(sched.state_sets[2].offsets, [4.68, 4.7, 4.68, 4.7])
    # U~(0) = U; U~(1) = U minus K W with |K| (0, 2, 1.99): 3 - 0.798
    assert np.allclose(sched.input_sets[0].offsets, [3.0, 3.0])
    assert np.allclose(sched.input_sets[1].offsets, [2.202, 2.202])
    # U~(2): support of K over R(2) = 2*0.2 + 1.99*0.202 = 0.80198
    assert np.allclose(sched.input_sets[2].offsets, [2.19802, 2.19802])
    assert len(sched.error_sets) == 2
    assert sched.horizon == 2


def test_tightening_zero_disturbance_is_identity():
    X, U, d, A, B, K, C_x = _benchmark_instance()

    class D:
        pass

    z = D()
    z.W = Zonotope(center=np.zeros(3), generators=np.zeros((3, 0)))
    z.V = Zonotope(center=np.zeros(2), generators=np.zeros((2, 0)))
    sched = tighten_constraints(X, U, z, A, B, K, C_x, N=3)
    for j in range(4):
        assert np.allclose(sched.state_sets[j].offsets, X.offsets)
        assert np.allclose(sched.input_sets[j].offsets, U.offsets)


def test_tightening_nestedness_rowwise():
    X, U, d, A, B, K, C_x = _benchmark_instance()
    sched = tighten_constraints(X, U, d, A, B, K, C_x, N=8)
    for j in range(8):
        assert np.all(
            sched.state_sets[j + 1].offsets <= sched.state_sets[j].offsets + 1e-12
        )
        assert np.all(
            sched.input_sets[j + 1].offsets <= sched.input_sets[j].offsets + 1e-12
        )
        assert np.array_equal(sched.state_sets[j + 1].normals, sched.state_sets[j].normals)


def test_tightening_oversized_disturbance_raises():
    X, U, d, A, B, K, C_x = _benchmark_instance()

    class D:
        pass

    big = D()
    big.W = box_zonotope([10.0] * 3)  # 50x the benchmark box
    big.V = box_zonotope([0.1] * 2)
    with pytest.raises(EmptyTightenedSet) as exc:
        tighten_constraints(X, U, big, A, B, K, C_x, N=2)
    assert exc.value.index == 1
    assert exc.value.which == "state"


def test_tightening_requires_schur_stable_gain():
    X, U, d, A, B, _, C_x = _benchmark_instance()
    with pytest.raises(ValueError):
        tighten_constraints(X, U, d, A, B, np.zeros((1, 3)), C_x, N=2)


def test_tightening_agrees_with_grid_oracle():
    # Cross-check one horizon step of the schedule against the brute-force
    # erosion oracle in 2-D output space.
    X, U, d, A, B, K, C_x = _benchmark_instance()
    sched = tighten_constraints(X, U, d, A, B, K, C_x, N=1)
    R1 = sched.error_sets[0]
    eff = minkowski_sum(linear_map(C_x, R1), d.V)
    pts = np.array(
        [[x, y] for x in np.arange(4.6, 4.81, 0.01) for y in np.arange(4.6, 4.81, 0.01)]
    )
    oracle = grid_membership_diff(X.normals, X.offsets, eff.center, eff.generators, pts)
    exact = np.array([contains(sched.state_sets[1], p) for p in pts])
    disagree = pts[oracle != exact]
    for p in disagree:
        gap = np.min(np.abs(sched.state_sets[1].offsets - sched.state_sets[1].normals @ p))
        assert gap <= 0.015


def test_schedule_length_validation():
    X = box_polytope([-1.0], [1.0])
    with pytest.raises(ValueError):
        TighteningSchedule(state_sets=[X, X], input_sets=[X], error_sets=[])


# --- the tube built once, against the per-step recursion -----------------------

def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def _outcome(tighten, args):
    """The schedule's every array as bits, or the (index, which) of its empty set."""
    try:
        sched = tighten(*args)
    except EmptyTightenedSet as exc:
        return ("empty", exc.index, exc.which)
    return (
        [(_bits(P.normals), _bits(P.offsets)) for P in sched.state_sets],
        [(_bits(P.normals), _bits(P.offsets)) for P in sched.input_sets],
        [(_bits(Z.center), _bits(Z.generators)) for Z in sched.error_sets],
    )


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _shipped_tightening_arguments():
    from koopmpc import cli as cli_module

    caught = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_module, "tighten_constraints",
                   lambda *args: caught.append(args) or tighten_constraints(*args))
        for name in ("a1", "a2", "unicycle_square"):
            cli_module.build_stack(SCENARIOS / f"{name}.json")
    return caught


def test_tightening_matches_the_recursion_on_the_shipped_scenarios():
    shipped = _shipped_tightening_arguments()
    assert len(shipped) == 3
    for args in shipped:
        got = _outcome(tighten_constraints, args)
        assert got[0] != "empty"
        assert got == _outcome(tighten_recursive, args)


@st.composite
def tightening_instances(draw):
    """A Schur-stable A + BK and small disturbance sets: W never holds the
    origin (|center| >= 0.2 > 0.15 >= its half-width per coordinate), g and N
    reach 0 and 1, V has generators, and the constraint normals are a box or
    random rows (which take the slack LP)."""
    n_z, n_u, n_x = (draw(st.integers(1, 5)) for _ in range(3))
    g, g_v, N = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A_K = rng.standard_normal((n_z, n_z))
    A_K *= draw(st.floats(0.05, 0.9)) / max(np.max(np.abs(np.linalg.eigvals(A_K))), 1e-3)
    B, K = rng.standard_normal((n_z, n_u)), rng.standard_normal((n_u, n_z))
    W = Zonotope(center=rng.uniform(0.2, 0.5, n_z) * rng.choice([-1.0, 1.0], n_z),
                 generators=rng.uniform(-0.05, 0.05, (n_z, g)))
    V = Zonotope(center=rng.uniform(-0.05, 0.05, n_x), generators=rng.uniform(-0.05, 0.05, (n_x, g_v)))

    def constraint_set(n):
        if draw(st.booleans()):
            half = rng.uniform(0.5, 3.0, n)
            return box_polytope(-half, half)
        return HPolytope(normals=rng.standard_normal((n + 2, n)), offsets=rng.uniform(0.5, 3.0, n + 2))

    X, U = constraint_set(n_x), constraint_set(n_u)
    return X, U, SimpleNamespace(W=W, V=V), A_K - B @ K, B, K, rng.standard_normal((n_x, n_z)), N


@settings(max_examples=80, deadline=None)
@given(tightening_instances())
def test_tightening_matches_the_recursion_bit_for_bit(args):
    assert _outcome(tighten_constraints, args) == _outcome(tighten_recursive, args)


def _scalar_instance(x_hi, u_hi):
    """n_z = n_x = n_u = 1, A + BK = 0.5 and W = [-1, 1], so R(j) has radius
    1, 1.5, 1.75, ...: X~(j) empties once that radius passes x_hi, and U~(j)
    once half of it (|K| = 0.5) passes u_hi."""
    W, V = box_zonotope([1.0]), box_zonotope([0.0])
    return (box_polytope([-x_hi], [x_hi]), box_polytope([-u_hi], [u_hi]), SimpleNamespace(W=W, V=V),
            np.array([[1.0]]), np.array([[1.0]]), np.array([[-0.5]]), np.array([[1.0]]), 5)


@pytest.mark.parametrize("x_hi, u_hi, index, which", [
    (1.6, 0.6, 2, "input"),  # the input set empties at j = 2, the state set at j = 3
    (1.6, 0.8, 3, "state"),  # both empty at j = 3: the state set is reported
    (0.5, 0.1, 1, "state"),
], ids=["input-first", "both-at-once", "both-at-1"])
def test_tightening_reports_the_first_empty_set_as_the_recursion_does(x_hi, u_hi, index, which):
    args = _scalar_instance(x_hi, u_hi)
    assert _outcome(tighten_constraints, args) == ("empty", index, which)
    assert _outcome(tighten_recursive, args) == ("empty", index, which)


def test_error_sets_are_read_only_prefixes_of_the_last():
    X, U, d, A, B, K, C_x = _benchmark_instance()
    sched = tighten_constraints(X, U, d, A, B, K, C_x, N=5)
    last, g = sched.error_sets[-1].generators, d.W.generators.shape[1]
    for j, Z in enumerate(sched.error_sets, start=1):
        assert Z.generators.shape == (3, j * g)
        assert np.array_equal(Z.generators, last[:, : j * g])
        assert np.shares_memory(Z.generators, last)
        for array in (Z.generators, Z.center):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
    for P in (*sched.state_sets, *sched.input_sets):
        with pytest.raises(ValueError, match="read-only"):
            P.offsets[0] = 1.0


def test_tightened_offsets_are_checked_once_per_stack(monkeypatch):
    """The (N+1) x m offsets of all state sets, then of all input sets, go
    through HPolytope's checks once each, not once per set; a non-finite one
    raises HPolytope's message, as the recursion's first such set did."""
    X, U, d, A, B, K, C_x = _benchmark_instance()
    checked, check = [], HPolytope.__post_init__

    def spy(P):
        check(P)
        checked.append(P.offsets.shape)

    monkeypatch.setattr(HPolytope, "__post_init__", spy)
    sched = tighten_constraints(X, U, d, A, B, K, C_x, N=6)
    assert checked == [(28,), (14,)]
    assert [P.offsets.shape for P in sched.state_sets] == [(4,)] * 7
    huge = SimpleNamespace(W=d.W, V=Zonotope(center=[0.0, 0.0], generators=[[1e308, 1e308], [0.0, 0.0]]))
    for tighten in (tighten_constraints, tighten_recursive):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="polytope data must be finite"):
            tighten(X, U, huge, A, B, K, C_x, 6)


def test_tightening_calls_no_per_set_emptiness_test(monkeypatch):
    monkeypatch.setattr(sets_module, "is_empty", lambda *a, **k: pytest.fail("is_empty per set"))
    X, U, d, A, B, K, C_x = _benchmark_instance()
    tighten_constraints(X, U, d, A, B, K, C_x, N=4)


@pytest.mark.parametrize("message, replace", [
    (r"A has shape \(3, 2\), need \(3, 3\)", {"A": np.zeros((3, 2))}),
    (r"B has rows 2, need 3", {"B": np.zeros((2, 1))}),
    (r"K has shape \(2, 3\), need \(1, 3\)", {"K": np.zeros((2, 3))}),
    (r"C_x has columns 4, need 3", {"C_x": np.zeros((2, 4))}),
    (r"X has dimension 3, need 2", {"X": box_polytope([-1.0] * 3, [1.0] * 3)}),
    # C_x of shape (3, 3) against a 2-dimensional X and V: X disagrees with C_x's rows.
    (r"X has dimension 2, need 3 .* n_x = 3 from C_x", {"C_x": np.eye(3)}),
    (r"disturbance.V has dimension 3, need 2",
     {"d": SimpleNamespace(W=box_zonotope([0.2] * 3), V=box_zonotope([0.1] * 3))}),
    (r"disturbance.W has dimension 2, need 3",
     {"d": SimpleNamespace(W=box_zonotope([0.2] * 2), V=box_zonotope([0.1] * 2))}),
    (r"U has dimension 2, need 1", {"U": box_polytope([-1.0] * 2, [1.0] * 2)}),
], ids=["A", "B", "K", "C_x", "X", "C_x-rows", "V", "W", "U"])
def test_tightening_names_the_argument_of_a_mismatched_shape(message, replace, monkeypatch):
    X, U, d, A, B, K, C_x = _benchmark_instance()
    args = {"X": X, "U": U, "d": d, "A": A, "B": B, "K": K, "C_x": C_x} | replace
    monkeypatch.setattr(sets_module, "spectral_radius", lambda M: pytest.fail("work before the checks"))
    with pytest.raises(ValueError, match=rf"^tighten_constraints: {message}"):
        tighten_constraints(args["X"], args["U"], args["d"], args["A"], args["B"], args["K"],
                            args["C_x"], 3)


# --- argument refusals -------------------------------------------------------------------

def _schedule_missing_an_error_set():
    box = box_polytope([-1.0], [1.0])
    return TighteningSchedule([box, box], [box, box], [])


@pytest.mark.parametrize("make, named", [
    (lambda: HPolytope(np.eye(2), [1.0]), "row count of normals must match offsets"),
    (_schedule_missing_an_error_set, "need exactly one error set per tightened step"),
    (lambda: box_polytope([0.0, 0.0], [1.0]), "lo and hi must have equal length"),
    (lambda: pontryagin_diff(box_polytope([-1.0] * 2, [1.0] * 2), box_zonotope([0.1] * 3)),
     "dimension mismatch in Pontryagin difference"),
    (lambda: tighten_constraints(*_benchmark_instance(), N=0), "horizon must be at least 1"),
], ids=["polytope-rows", "error-set-count", "box-lengths", "pontryagin-dimension", "horizon-0"])
def test_mismatched_set_arguments_are_refused_by_name(make, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        make()
