import dataclasses

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import nnls

from koopmpc import qp as qp_module
from koopmpc.qp import (
    OPTIMAL,
    PRIMAL_INFEASIBLE,
    QuadraticProgram,
    SolverFailed,
    solve,
)
from oracles import (
    assert_checks_match_the_dense_check,
    assert_null_basis_and_pinv,
    assert_same_outcome_as_scipys_nnls,
    null_basis_by_pivoted_qr,
    plain_qp,
    qp_by_active_set_enumeration,
    solve_by_both_nnls,
)


def _check_kkt(sol, tol=1e-8):
    for key in ("stationarity", "primal_eq", "primal_in", "complementarity"):
        assert sol.kkt_residuals[key] <= tol, (key, sol.kkt_residuals)


def test_projection_onto_halfline():
    # minimize x^2 subject to x >= 1
    qp = QuadraticProgram(P=[[2.0]], q=[0.0], A_in=[[-1.0]], b_in=[-1.0])
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert sol.x_star[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    _check_kkt(sol)


def test_projection_onto_hyperplane():
    # minimize ||x - (1,1)||^2 subject to x1 + x2 = 1
    qp = QuadraticProgram(
        P=2.0 * np.eye(2), q=[-2.0, -2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]
    )
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x_star, [0.5, 0.5], atol=1e-9)
    _check_kkt(sol)


def test_contradictory_bounds_are_certified_infeasible():
    qp = QuadraticProgram(
        P=np.eye(1), q=[0.0], A_in=[[1.0], [-1.0]], b_in=[0.0, -1.0]
    )
    sol = solve(qp)
    assert sol.status == PRIMAL_INFEASIBLE


def test_equality_outside_box_is_certified_infeasible():
    qp = QuadraticProgram(
        P=np.eye(2),
        q=np.zeros(2),
        A_eq=[[1.0, 1.0]],
        b_eq=[4.0],
        A_in=np.vstack([np.eye(2), -np.eye(2)]),
        b_in=[1.0, 1.0, 0.0, 0.0],
    )
    sol = solve(qp)
    assert sol.status == PRIMAL_INFEASIBLE


def test_inconsistent_equalities_are_certified_infeasible():
    qp = QuadraticProgram(
        P=np.eye(1), q=[0.0], A_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0]
    )
    sol = solve(qp)
    assert sol.status == PRIMAL_INFEASIBLE


def test_indefinite_objective_rejected():
    # With no equalities Z'PZ is P itself, and an indefinite one is outside
    # the contract.
    with pytest.raises(SolverFailed, match="reduced Hessian Z'PZ is singular or indefinite"):
        solve(QuadraticProgram(P=[[-1.0]], q=[0.0]))


def test_zero_objective_raises_solver_failed():
    # P = 0 is singular on any nonzero null space of A_eq: a linear program
    # is outside the contract, not dispatched to another solver.
    qp = QuadraticProgram(P=[[0.0]], q=[1.0], A_in=[[-1.0]], b_in=[-2.0])
    with pytest.raises(SolverFailed, match="reduced Hessian Z'PZ is singular"):
        solve(qp)


def test_unconstrained_quadratic():
    qp = QuadraticProgram(P=2.0 * np.eye(3), q=[-2.0, 0.0, 4.0])
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x_star, [1.0, 0.0, -2.0], atol=1e-10)
    _check_kkt(sol)


def test_degenerate_equalities_handled():
    # Duplicated equality row (rank deficient but consistent).
    qp = QuadraticProgram(
        P=2.0 * np.eye(2),
        q=[-2.0, -2.0],
        A_eq=[[1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 2.0],
    )
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x_star, [0.5, 0.5], atol=1e-8)
    _check_kkt(sol)


def test_equalities_of_full_column_rank_pin_the_point():
    # Three consistent equality rows of rank 2 in R^2: the null space of A_eq
    # is empty, so the only feasible point is optimal whatever the objective.
    A_eq = np.array([[1.0, 2.0], [3.0, -1.0], [4.0, 1.0]])
    x_pin = np.array([0.25, -0.5])
    qp = QuadraticProgram(
        P=np.array([[2.0, 0.5], [0.5, 1.0]]),
        q=[1.0, -3.0],
        A_eq=A_eq,
        b_eq=A_eq @ x_pin,
        A_in=np.vstack([np.eye(2), -np.eye(2)]),
        b_in=np.ones(4),
    )
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x_star, x_pin, atol=1e-12)
    assert np.array_equal(sol.in_multipliers, np.zeros(4))
    assert sol.active_set == ()
    _check_kkt(sol)
    # nu solves A_eq' nu = -(P x + q) exactly: the residual is rounding.
    assert sol.kkt_residuals["stationarity"] <= 1e-12
    # The pinned point outside the box is certified infeasible.
    outside = QuadraticProgram(P=qp.P, q=qp.q, A_eq=A_eq, b_eq=A_eq @ np.array([2.0, 0.0]),
                               A_in=qp.A_in, b_in=qp.b_in)
    assert solve(outside).status == PRIMAL_INFEASIBLE


def test_active_set_walks_multiple_constraints():
    # minimize ||x - (2, 2)||^2 over the unit box: optimum at the corner (1, 1).
    qp = QuadraticProgram(
        P=2.0 * np.eye(2),
        q=[-4.0, -4.0],
        A_in=np.vstack([np.eye(2), -np.eye(2)]),
        b_in=[1.0, 1.0, 0.0, 0.0],
    )
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x_star, [1.0, 1.0], atol=1e-9)
    _check_kkt(sol)


def test_singular_objective_with_flat_directions():
    # P is PSD singular; the flat coordinate is pinned only by constraints.
    qp = QuadraticProgram(
        P=np.diag([2.0, 0.0]),
        q=[0.0, 0.0],
        A_in=np.vstack([np.eye(2), -np.eye(2)]),
        b_in=[3.0, 3.0, 1.0, 1.0],  # x in [-1, 3]^2
        A_eq=[[0.0, 1.0]],
        b_eq=[2.0],
    )
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert sol.x_star[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.x_star[1] == pytest.approx(2.0, abs=1e-9)
    _check_kkt(sol)


def test_max_iterations_status_reported(monkeypatch):
    # NNLS stops at its iteration limit with SolverFailed, never with a
    # status. The minimizer of |x - (2, 0)|^2 with x1 <= 1 and x1 + x2 >= 1.5
    # is (1, 0.5), on both rows; x_0 = (2, 0) breaks x1 <= 1 only, so NNLS
    # starts from that row's column (one solve) and the other enters (two).
    nnls_ = qp_module._nnls
    qp = QuadraticProgram(P=2.0 * np.eye(2), q=[-4.0, 0.0], A_in=[[1.0, 0.0], [-1.0, -1.0]],
                          b_in=[1.0, -1.5])
    for limit in (0, 1):
        monkeypatch.setattr(qp_module, "_nnls",
                            lambda ET, norm2, maxiter, *start: nnls_(ET, norm2, limit, *start))
        with pytest.raises(SolverFailed, match=rf"iteration limit \({limit}\)"):
            solve(dataclasses.replace(qp))
    monkeypatch.setattr(qp_module, "_nnls",
                        lambda ET, norm2, maxiter, *start: nnls_(ET, norm2, 2, *start))
    sol = solve(dataclasses.replace(qp))
    assert sol.active_set == (0, 1) and np.allclose(sol.x_star, [1.0, 0.5], atol=1e-12)


def test_no_inequality_rows_are_solved_without_nnls(monkeypatch):
    # With no inequality rows the least-distance optimum is v = 0 in closed
    # form; nnls on a matrix with no columns would abort the process.
    def refused(*args):
        raise AssertionError("nnls was called on a QP with no inequality rows")

    monkeypatch.setattr(qp_module, "_nnls", refused)
    A_eq = np.array([[1.0, 2.0], [3.0, -1.0], [4.0, 1.0]])
    x_pin = np.array([0.25, -0.5])
    cases = [
        (QuadraticProgram(P=2.0 * np.eye(3), q=[-2.0, 0.0, 4.0]), [1.0, 0.0, -2.0]),
        (QuadraticProgram(P=2.0 * np.eye(2), q=[-2.0, -2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]),
         [0.5, 0.5]),
        (QuadraticProgram(P=np.eye(2), q=[1.0, -3.0], A_eq=A_eq, b_eq=A_eq @ x_pin), x_pin),
    ]
    for qp, x_ref in cases:
        sol = solve(qp)
        assert sol.status == OPTIMAL
        assert np.allclose(sol.x_star, x_ref, rtol=0.0, atol=1e-12)
        assert sol.in_multipliers.size == 0 and sol.active_set == ()
        _check_kkt(sol)


def test_bitwise_determinism(rng):
    M = rng.standard_normal((5, 5))
    qp_args = dict(
        P=M.T @ M + 0.1 * np.eye(5),
        q=rng.standard_normal(5),
        A_in=np.vstack([np.eye(5), -np.eye(5)]),
        b_in=np.full(10, 1.0),
        A_eq=rng.standard_normal((2, 5)),
        b_eq=np.zeros(2),
    )
    a = solve(QuadraticProgram(**qp_args))
    b = solve(QuadraticProgram(**qp_args))
    assert a.status == b.status == OPTIMAL
    assert np.array_equal(a.x_star, b.x_star)
    assert a.objective == b.objective


def test_warm_start_agrees_with_cold_start(rng):
    # A family whose factors and stored support are warm from solves at other
    # parameters gives, bit for bit, the solution of a cold family built from
    # the same data. theta sets all of q and b_eq.
    M = rng.standard_normal((4, 4))
    qp = QuadraticProgram(
        P=M.T @ M + 0.5 * np.eye(4),
        q=np.zeros(4),
        A_eq=rng.standard_normal((1, 4)),
        b_eq=[0.0],
        A_in=np.vstack([np.eye(4), -np.eye(4)]),
        b_in=np.full(8, 0.5),
        F_q=np.eye(4, 5),
        F_eq=np.eye(1, 5, 4),
    )
    for _ in range(3):
        theta = np.concatenate([5.0 * rng.standard_normal(4), rng.uniform(-0.5, 0.5, 1)])
        warm = solve(qp, theta)
        cold = solve(dataclasses.replace(qp), theta)
        assert warm.status == cold.status == OPTIMAL
        assert np.array_equal(warm.x_star, cold.x_star)
        assert warm.active_set == cold.active_set
        _check_kkt(warm)


def _random_feasible_qp(rng, d):
    """Random PSD QP with a known interior feasible point (the origin)."""
    M = rng.standard_normal((d, d))
    P = M.T @ M  # PSD, possibly singular after the rank trim below
    if d >= 3 and rng.uniform() < 0.4:
        # Make P genuinely singular to exercise flat directions.
        U = M[:, : d - 1]
        P = U @ U.T
    q = rng.standard_normal(d)
    # Box around the origin plus a few random halfspaces kept feasible at 0.
    extra = rng.standard_normal((3, d))
    A_in = np.vstack([np.eye(d), -np.eye(d), extra])
    b_in = np.concatenate(
        [np.full(2 * d, 2.0), rng.uniform(0.5, 2.0, size=3)]
    )
    if rng.uniform() < 0.5 and d >= 2:
        A_eq = rng.standard_normal((1, d))
        b_eq = np.zeros(1)
    else:
        A_eq = None
        b_eq = None
    return QuadraticProgram(P=P, q=q, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in)


def _reduced_hessian_is_singular(qp):
    Z = null_space(qp.A_eq) if qp.A_eq.shape[0] else np.eye(qp.dim)
    H = Z.T @ qp.P @ Z
    return np.linalg.matrix_rank(H) < H.shape[0]


def test_random_qp_batch_certified(rng):
    # Small in-module batch; the acceptance suite runs the full 500. A member
    # whose reduced Hessian Z'PZ is singular is outside the solver's contract
    # (P positive definite on null(A_eq)) and raises when it is factored.
    singular = 0
    for _ in range(60):
        d = int(rng.integers(1, 13))
        qp = _random_feasible_qp(rng, d)
        if _reduced_hessian_is_singular(qp):
            singular += 1
            with pytest.raises(SolverFailed, match="singular"):
                solve(qp)
            continue
        sol = solve(qp)
        assert sol.status == OPTIMAL
        _check_kkt(sol)
        # Optimality against random feasible points (rejection-sampled box points).
        found = 0
        while found < 20:
            cand = rng.uniform(-2.0, 2.0, size=d)
            if qp.A_eq.shape[0]:
                # Project candidate onto the equality hyperplane.
                r = qp.b_eq - qp.A_eq @ cand
                cand = cand + np.linalg.lstsq(qp.A_eq, r, rcond=None)[0]
            if np.all(qp.A_in @ cand <= qp.b_in + 1e-12):
                found += 1
                obj = 0.5 * cand @ qp.P @ cand + qp.q @ cand
                assert sol.objective <= obj + 1e-6
    assert 0 < singular < 60


# --- degenerate problems, checked against the active-set enumeration oracle ----------

def _box(d):
    return np.vstack([np.eye(d), -np.eye(d)]), np.ones(2 * d)


def _duplicate_equalities(rng):
    """Rank-deficient A_eq: every row repeated, and one repeated scaled."""
    d = int(rng.integers(2, 7))
    M = rng.standard_normal((d, d))
    a = rng.standard_normal((max(d // 2, 1), d))
    A_eq = np.vstack([a, a, 2.0 * a[:1]])
    A_in, b_in = _box(d)
    return QuadraticProgram(P=M.T @ M + 0.1 * np.eye(d), q=3.0 * rng.standard_normal(d),
                            A_eq=A_eq, b_eq=A_eq @ rng.uniform(-0.5, 0.5, d),
                            A_in=A_in, b_in=b_in)


def _parallel_active_rows(rng):
    """A known optimum x* on box faces and one oblique face; each active
    face appears again duplicated and scaled, so dependent rows are active
    at the optimum. q is set from KKT with positive multipliers. d <= 4
    keeps the oracle's enumeration of up to 17 rows short."""
    d = int(rng.integers(2, 5))
    M = rng.standard_normal((d, d))
    P = M.T @ M + 0.1 * np.eye(d)
    x_star = rng.uniform(-0.5, 0.5, d)
    J = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
    sign = rng.choice([-1.0, 1.0], size=J.size)
    x_star[J] = sign
    faces = np.zeros((J.size, d))
    faces[np.arange(J.size), J] = sign
    oblique = rng.standard_normal((1, d))
    active = np.vstack([faces, oblique])
    A_box, b_box = _box(d)
    A_in = np.vstack([A_box, oblique, active, 2.5 * active])
    b_in = np.concatenate([b_box, oblique @ x_star, active @ x_star, 2.5 * active @ x_star])
    lam = rng.uniform(0.5, 2.0, size=active.shape[0])
    q = -P @ x_star - active.T @ lam
    return QuadraticProgram(P=P, q=q, A_in=A_in, b_in=b_in), x_star


def _zero_width_box(rng):
    """Some coordinates fixed by upper bound = lower bound."""
    d = int(rng.integers(2, 7))
    M = rng.standard_normal((d, d))
    lo, hi = -np.ones(d), np.ones(d)
    fixed = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
    lo[fixed] = hi[fixed] = rng.uniform(-0.9, 0.9, size=fixed.size)
    return QuadraticProgram(P=M.T @ M + 0.1 * np.eye(d), q=3.0 * rng.standard_normal(d),
                            A_in=np.vstack([np.eye(d), -np.eye(d)]),
                            b_in=np.concatenate([hi, -lo]))


def _flat_hessian(rng):
    """P of rank 1 or 2, so the reduced Hessian is singular and the linear
    term descends along flat directions until box faces stop it."""
    d = int(rng.integers(3, 7))
    U = rng.standard_normal((d, int(rng.integers(1, 3))))
    A_in, b_in = _box(d)
    A_eq = rng.standard_normal((1, d)) if rng.uniform() < 0.5 else None
    return QuadraticProgram(P=U @ U.T, q=rng.standard_normal(d), A_eq=A_eq,
                            b_eq=None if A_eq is None else np.zeros(1),
                            A_in=A_in, b_in=b_in)


def _check_against_oracle(qp, sol):
    best, x_best = qp_by_active_set_enumeration(qp.P, qp.q, qp.A_eq, qp.b_eq, qp.A_in, qp.b_in)
    assert sol.status == OPTIMAL
    _check_kkt(sol)
    assert sol.objective == pytest.approx(best, rel=1e-8, abs=1e-8)
    assert np.max(np.abs(sol.x_star - x_best)) <= 1e-7


@pytest.mark.parametrize("make", [_duplicate_equalities, _zero_width_box])
def test_degenerate_constraints_match_oracle(make):
    for seed in range(12):
        qp = make(np.random.default_rng(seed))
        _check_against_oracle(qp, solve(qp))


def test_dependent_rows_active_at_the_optimum():
    for seed in range(12):
        qp, x_star = _parallel_active_rows(np.random.default_rng(seed))
        sol = solve(qp)
        _check_against_oracle(qp, sol)
        assert np.allclose(sol.x_star, x_star, atol=1e-8)


def _random_pd_qp(rng):
    """A small QP whose P is positive definite on null(A_eq): either P itself
    is, or P = UU' has the rank of that null space. A unit box keeps the
    oracle's feasible set bounded; a few random rows pass near an interior
    point, so they are active, redundant or cut the box."""
    d = int(rng.integers(1, 5))
    e = int(rng.integers(0, d))
    x_in = rng.uniform(-0.5, 0.5, d)
    A_eq = rng.standard_normal((e, d))
    if e and rng.uniform() < 0.3:
        U = rng.standard_normal((d, d - e))
        P = U @ U.T
    else:
        M = rng.standard_normal((d, d))
        P = M.T @ M + 0.1 * np.eye(d)
    rows = rng.standard_normal((int(rng.integers(0, 4)), d))
    b_rows = rows @ x_in + rng.uniform(0.0, 0.5, rows.shape[0])
    A_box, b_box = _box(d)
    return QuadraticProgram(P=P, q=3.0 * rng.standard_normal(d),
                            A_eq=A_eq if e else None, b_eq=A_eq @ x_in if e else None,
                            A_in=np.vstack([A_box, rows]), b_in=np.concatenate([b_box, b_rows]))


def test_random_pd_qps_match_the_oracle():
    for seed in range(40):
        qp = _random_pd_qp(np.random.default_rng(seed))
        assert not _reduced_hessian_is_singular(qp)
        _check_against_oracle(qp, solve(qp))


def _indefinite_pd_on_null_space(rng):
    """A QP over the unit box whose P is indefinite but positive definite on
    null(A_eq): a random symmetric S, raised by k on null(A_eq) and lowered
    by k on its orthogonal complement range(A_eq'), so that Z'PZ > 0 and
    R'PR < 0."""
    d = int(rng.integers(2, 5))
    e = int(rng.integers(1, d))
    A_eq = rng.standard_normal((e, d))
    Z, R = null_space(A_eq), np.linalg.qr(A_eq.T)[0]
    S = rng.standard_normal((d, d))
    S = S + S.T
    k = 1.0 + np.max(np.abs(np.linalg.eigvalsh(S)))
    P = S + k * Z @ Z.T - k * R @ R.T
    x_in = rng.uniform(-0.5, 0.5, d)
    A_box, b_box = _box(d)
    return QuadraticProgram(P=P, q=3.0 * rng.standard_normal(d), A_eq=A_eq, b_eq=A_eq @ x_in,
                            A_in=A_box, b_in=b_box)


def test_indefinite_p_positive_definite_on_the_null_space_is_solved():
    # The feasible set lies in x_p + range(Z), where the objective is strictly
    # convex: such a P is inside the contract although it has a negative
    # eigenvalue.
    for seed in range(12):
        qp = _indefinite_pd_on_null_space(np.random.default_rng(seed))
        assert np.min(np.linalg.eigvalsh(qp.P)) < 0.0
        Z = null_space(qp.A_eq)
        assert np.min(np.linalg.eigvalsh(Z.T @ qp.P @ Z)) > 0.0
        _check_against_oracle(qp, solve(qp))


def test_singular_reduced_hessian_raises_solver_failed():
    # P of rank 1 or 2 leaves Z'PZ singular: the problem is outside the
    # contract (P positive definite on null(A_eq)) and raises as it is
    # factored, before any solve.
    for seed in range(12):
        qp = _flat_hessian(np.random.default_rng(seed))
        assert _reduced_hessian_is_singular(qp)
        with pytest.raises(SolverFailed, match="singular"):
            solve(qp)


# --- rows the unconstrained minimizer violates, held without HiGHS ----------------------

def _no_highs(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("HiGHS was called for a QP")

    # sets._empty_rows imports linprog where it runs: the package's one HiGHS call
    monkeypatch.setattr(scipy.optimize, "linprog", refused)


def _overshooting_warm_start(rng):
    """A QP over the unit box with random equalities through an interior
    point, and a point x0 on the equality manifold that overshoots the box
    along a null-space direction, so that it violates box rows."""
    d = int(rng.integers(3, 7))
    M = rng.standard_normal((d, d))
    A_eq = rng.standard_normal((int(rng.integers(1, d - 1)), d))
    x_in = rng.uniform(-0.5, 0.5, d)
    A_in, b_in = _box(d)
    qp = QuadraticProgram(P=M.T @ M + 0.1 * np.eye(d), q=3.0 * rng.standard_normal(d),
                          A_eq=A_eq, b_eq=A_eq @ x_in, A_in=A_in, b_in=b_in)
    z = np.linalg.svd(A_eq)[2][-1]
    reach = np.min((1.0 - np.sign(z) * x_in) / np.maximum(np.abs(z), 1e-12))
    return qp, x_in + 1.5 * reach * z


@pytest.mark.parametrize("make", [
    _overshooting_warm_start,
    lambda rng: (_zero_width_box(rng), None),  # no A_eq rows; 0 misses the fixed values
])
def test_violated_rows_are_held_without_phase1(monkeypatch, make):
    # q = -P x0 puts the unconstrained minimizer at x0, which violates rows of
    # the box: the one NNLS solve holds them at the optimum, and no HiGHS
    # phase 1 runs.
    _no_highs(monkeypatch)
    for seed in range(12):
        qp, x0 = make(np.random.default_rng(seed))
        x0 = np.zeros(qp.dim) if x0 is None else x0
        qp = dataclasses.replace(qp, q=-qp.P @ x0)
        assert np.max(qp.A_in @ x0 - qp.b_in) > 1e-3
        if qp.A_eq.shape[0]:
            assert np.allclose(qp.A_eq @ x0, qp.b_eq)
        _check_against_oracle(qp, solve(qp))


def _flat_overshooting_warm_start(rng):
    """The overshooting point under a rank-1 P, so that Z'PZ is singular."""
    qp, x0 = _overshooting_warm_start(rng)
    u = rng.standard_normal(qp.dim)
    return QuadraticProgram(P=np.outer(u, u), q=qp.q, A_eq=qp.A_eq, b_eq=qp.b_eq,
                            A_in=qp.A_in, b_in=qp.b_in), x0


def _two_round_overshoot(rng):
    """A coupled P over the unit box, no equalities: x0 violates only
    x_0 <= 1, but holding that row alone by the least P-norm step pushes x_1
    past its bound, so the nearest feasible point holds both."""
    P = np.array([[1.0, 0.9, 0.5], [0.9, 1.0, 0.3], [0.5, 0.3, 1.0]])
    A_in, b_in = _box(3)
    return QuadraticProgram(P=P, q=np.zeros(3), A_in=A_in, b_in=b_in), np.array([2.0, 0.9, 0.0])


def _least_norm_correction(M, A_eq, rows, r):
    """min D'MD  s.t.  A_eq D = 0 and rows D = r, from the dense KKT system."""
    C = np.vstack([A_eq, rows])
    kkt = np.block([[M, C.T], [C, np.zeros((C.shape[0], C.shape[0]))]])
    rhs = np.concatenate([np.zeros(M.shape[0] + A_eq.shape[0]), r])
    return np.linalg.solve(kkt, rhs)[:M.shape[0]]


@pytest.mark.parametrize("make", [_overshooting_warm_start, _flat_overshooting_warm_start,
                                  _two_round_overshoot])
def test_projection_takes_the_least_norm_correction(make):
    # With q = -P x0 the optimum is the feasible point nearest x0 in the
    # P-norm: the correction of least P-norm in the null space of A_eq that
    # puts the active rows at their bounds, with nonnegative multipliers. A
    # rank-1 P makes Z'PZ singular, which is outside the contract and raises.
    for seed in range(12):
        qp, x0 = make(np.random.default_rng(seed))
        qp = dataclasses.replace(qp, q=-qp.P @ x0)
        if make is _flat_overshooting_warm_start:
            with pytest.raises(SolverFailed, match="singular"):
                solve(qp)
            continue
        sol = solve(qp)
        x, held = sol.x_star, list(sol.active_set)
        if make is _two_round_overshoot:
            assert held == [0, 1]
        assert held and np.min(sol.in_multipliers[held]) > 0.0
        assert np.max(qp.A_in @ x - qp.b_in) <= 1e-9
        assert np.allclose(qp.A_in[held] @ x, qp.b_in[held], rtol=0.0, atol=1e-12)
        step = _least_norm_correction(qp.P, qp.A_eq, qp.A_in[held],
                                      qp.b_in[held] - qp.A_in[held] @ x0)
        assert np.max(np.abs(x - x0 - step)) <= 1e-10 * max(1.0, np.max(np.abs(step)))


# --- infeasibility certified by a checked Farkas vector ----------------------------------

def _infeasible_qps():
    box = dict(A_in=np.vstack([np.eye(2), -np.eye(2)]), b_in=[1.0, 1.0, 0.0, 0.0])
    A_eq = np.array([[1.0, 2.0], [3.0, -1.0], [4.0, 1.0]])
    return [
        QuadraticProgram(P=np.eye(2), q=np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[4.0], **box),
        QuadraticProgram(P=np.eye(1), q=[0.0], A_in=[[1.0], [-1.0]], b_in=[0.0, -1.0]),
        # the null space of A_eq is empty, and the pinned point lies outside the box
        QuadraticProgram(P=np.eye(2), q=np.zeros(2), A_eq=A_eq, b_eq=A_eq @ np.array([2.0, 0.0]),
                         A_in=np.vstack([np.eye(2), -np.eye(2)]), b_in=np.ones(4)),
    ]


def test_infeasible_qp_is_certified_by_a_checked_farkas_vector(monkeypatch, farkas_vectors):
    # The certificate is the one vector u that passes the solver's Farkas
    # check: with mu = -(A_eq^+)'A_in'u it satisfies A_in'u + A_eq'mu = 0 and
    # b_in'u + b_eq'mu < 0, checked here again from scratch. HiGHS never runs.
    _no_highs(monkeypatch)
    for qp in _infeasible_qps():
        farkas_vectors.clear()
        assert solve(qp).status == PRIMAL_INFEASIBLE
        (u,) = farkas_vectors
        mu = -np.linalg.pinv(qp.A_eq).T @ (qp.A_in.T @ u)
        assert np.min(u) >= 0.0
        assert np.max(np.abs(qp.A_in.T @ u + qp.A_eq.T @ mu)) <= 1e-12
        assert qp.b_in @ u + qp.b_eq @ mu < -0.5


def test_an_infeasible_result_carries_its_checked_farkas_pair():
    # u = in_multipliers and mu = eq_multipliers are the pair the solver
    # checked: u >= 0, A_in'u + A_eq'mu = 0 and b_in'u + b_eq'mu < 0. The
    # first QP is a box with an equality, the second has no equality rows and
    # the third certifies a pinned point by the fixed-row path.
    for qp in _infeasible_qps():
        sol = solve(qp)
        assert sol.status == PRIMAL_INFEASIBLE
        u, mu = sol.in_multipliers, sol.eq_multipliers
        assert u.shape == (qp.A_in.shape[0],) and mu.shape == (qp.A_eq.shape[0],)
        assert np.min(u) >= 0.0
        scale = max(1.0, float(np.max(np.abs(qp.A_in).T @ u)))
        assert np.max(np.abs(qp.A_in.T @ u + qp.A_eq.T @ mu)) <= 1e-9 * scale
        assert qp.b_in @ u + qp.b_eq @ mu < 0.0
    # Inconsistent equalities are certified by a residual, with no pair.
    sol = solve(QuadraticProgram(P=np.eye(1), q=[0.0], A_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0]))
    assert sol.status == PRIMAL_INFEASIBLE
    assert sol.in_multipliers is None and sol.eq_multipliers is None


def _pinned_row_qp(excess):
    """0.6 x0 + 0.8 x1 = 0 pins the row 0.6 x0 + 0.8 x1 <= -excess: no step
    in the null space of A_eq moves it, so x_p alone decides it, and its row of
    A_in Y is rounding."""
    return QuadraticProgram(P=np.diag([1.0, 2.0, 1.0]), q=[-3.0, 1.0, -4.0],
                            A_eq=[[0.6, 0.8, 0.0]], b_eq=[0.0],
                            A_in=[[0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]],
                            b_in=[-excess, 1.0, 0.5])


@pytest.mark.parametrize("excess", [0.0, 1e-13, -1e-13])
def test_a_pinned_row_met_to_rounding_is_solved(excess):
    # NNLS runs without the pinned row's column, on which it could put any
    # weight; an excess of rounding size is left to the full-space check.
    qp = _pinned_row_qp(excess)
    assert qp.factors.fixed.tolist() == [0]
    sol = solve(qp)
    assert sol.status == OPTIMAL
    _check_kkt(sol)
    _, x = qp_by_active_set_enumeration(qp.P, qp.q, qp.A_eq, qp.b_eq, qp.A_in, qp.b_in + 1e-12)
    assert np.allclose(sol.x_star, x, atol=1e-9)


def test_a_violated_pinned_row_is_certified_by_its_own_farkas_vector(farkas_vectors):
    qp = _pinned_row_qp(1e-6)
    assert solve(qp).status == PRIMAL_INFEASIBLE
    (u,) = farkas_vectors
    assert np.flatnonzero(u).tolist() == [0]
    mu = -np.linalg.pinv(qp.A_eq).T @ (qp.A_in.T @ u)
    assert np.max(np.abs(qp.A_in.T @ u + qp.A_eq.T @ mu)) <= 1e-9 * np.max(np.abs(qp.A_in).T @ u)
    assert qp.b_in @ u + qp.b_eq @ mu == pytest.approx(-1.0)


@pytest.mark.parametrize("passive, zero", [([], False), ([1], False), ([1], True)],
                         ids=["no-row", "broken-row", "broken-row-zero-residual"])
def test_a_result_that_fails_its_check_raises(monkeypatch, passive, zero):
    # x <= 0 and x >= 1: x_0 = 0 breaks x >= 1 (row 1) only. A stubbed NNLS
    # that ends on no row gives the "optimum" x_0, which violates x >= 1; one
    # that ends on row 1 gives x = 1, which violates x <= 0, and weights with
    # A_in'u != 0, also when it claims a zero residual (which skips the
    # optimum). The solver refactors the weights of the rows it gets, so
    # none of these is reported.
    def stub(ET, norm2, maxiter, start, weights=None):
        assert ET.shape == (2, 2) and start.tolist() == [1] and weights is None
        return np.array(passive, dtype=np.intp), np.ones(len(passive)), zero

    monkeypatch.setattr(qp_module, "_nnls", stub)
    qp = _infeasible_qps()[1]
    with pytest.raises(SolverFailed, match="Farkas"):
        solve(qp)


def test_factors_are_computed_once_per_problem(monkeypatch):
    # One null basis (one SVD of A_eq) per problem, whatever theta.
    bases = []
    null_basis = qp_module._null_basis
    monkeypatch.setattr(qp_module, "_null_basis", lambda A: bases.append(A) or null_basis(A))
    qp = QuadraticProgram(P=2.0 * np.eye(3), q=[-2.0, 0.0, 4.0], A_eq=[[1.0, 1.0, 1.0]],
                          b_eq=[0.0], A_in=np.vstack([np.eye(3), -np.eye(3)]), b_in=np.ones(6),
                          F_q=np.eye(3, 4), F_eq=np.eye(1, 4, 3))
    solve(qp, np.zeros(4))
    # The right-hand sides change with theta between solves; the factors stay.
    theta = np.array([3.0, -1.0, -3.5, 0.5])  # q = (1, -1, 0.5), b_eq = 0.5
    second = solve(qp, theta)
    assert len(bases) == 1 and np.array_equal(bases[0], qp.A_eq)
    assert np.allclose(second.x_star, solve(plain_qp(qp, theta)).x_star, atol=1e-10)
    _check_kkt(second)


def test_null_basis_and_pinv_of_random_matrices():
    # Rank-deficient products of rank r < min(m, d), wide and tall, and
    # matrices of full row or column rank; ``test_tracking_problem`` checks
    # a2's and the unicycle's A_eq.
    rng = np.random.default_rng(29)
    for _ in range(40):
        m, d = (int(k) for k in rng.integers(1, 13, 2))
        r = int(rng.integers(1, min(m, d) + 1))
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, d))
        assert_null_basis_and_pinv(A)
        assert_null_basis_and_pinv(rng.standard_normal((m, d)))


def test_svd_null_basis_matches_the_pivoted_qr_reference():
    # Seeded rank-deficient A_eq (products of rank r < min(m, d), wide, tall
    # and square, some with duplicated rows): the SVD finds the pivoted QR's
    # rank, a null basis and a pseudo-inverse within 1e-11 of both the QR's
    # and np.linalg.pinv's.
    rng = np.random.default_rng(43)
    for _ in range(60):
        m, d = (int(k) for k in rng.integers(2, 13, 2))
        r = int(rng.integers(1, min(m, d)))
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, d))
        if rng.uniform() < 0.3:
            A[-1] = A[0]
        Z, pinv_T = qp_module._null_basis(A)
        Z_qr, pinv_T_qr = null_basis_by_pivoted_qr(A)
        assert Z.shape == Z_qr.shape == (d, d - r)
        assert np.max(np.abs(A @ Z)) <= 1e-12 * max(1.0, np.max(np.abs(A)))
        assert np.max(np.abs(Z.T @ Z - np.eye(d - r)), initial=0.0) <= 1e-12
        # the two bases span one space: the QR's is the SVD's rotated
        assert np.max(np.abs(Z_qr - Z @ (Z.T @ Z_qr)), initial=0.0) <= 1e-12
        scale = np.max(np.abs(pinv_T_qr))
        assert np.max(np.abs(pinv_T - pinv_T_qr)) <= 1e-11 * scale
        assert np.max(np.abs(pinv_T - np.linalg.pinv(A).T)) <= 1e-11 * scale


# --- the support of the last Optimal solve, tried before nnls ----------------------------

def _box_qp(q):
    """A strictly convex QP over the box [0, 1]^3 with one equality."""
    M = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]])
    return QuadraticProgram(P=M, q=q, A_eq=[[1.0, -1.0, 0.5]], b_eq=[0.1],
                            A_in=np.vstack([np.eye(3), -np.eye(3)]),
                            b_in=[1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_a_repeated_solve_takes_the_stored_support_without_nnls(monkeypatch):
    qp = _box_qp([-4.0, -4.0, 1.0])
    first = solve(qp)
    assert first.status == OPTIMAL and first.active_set

    def refused(*args):
        raise AssertionError("nnls was called although the stored support is optimal")

    monkeypatch.setattr(qp_module, "_nnls", refused)
    again = solve(qp)
    assert np.array_equal(again.x_star, first.x_star)
    assert again.active_set == first.active_set
    _check_kkt(again)


def _box_family():
    """``_box_qp`` as a family in theta = (q, b_eq)."""
    return dataclasses.replace(_box_qp(np.zeros(3)), b_eq=[0.0], F_q=np.eye(3, 4),
                               F_eq=np.eye(1, 4, 3))


def test_any_stored_support_gives_the_cold_result(rng):
    # No row, every row, random rows and the support at another parameter: a
    # support is taken only at an optimum that passes its check, so each
    # gives the cold solve's status and x, bit for bit. An infeasible problem
    # stays certified whatever support it holds.
    qp = _box_family()
    f = qp.factors
    for _ in range(40):
        theta = np.concatenate([4.0 * rng.standard_normal(3), rng.uniform(-0.5, 0.5, 1)])
        cold = solve(dataclasses.replace(qp), theta)
        other = solve(dataclasses.replace(qp), theta * [-1.0, -1.0, -1.0, 1.0])
        for rows in ((), range(6), np.flatnonzero(rng.uniform(size=6) < 0.5), other.active_set):
            qp._support = qp_module._support(qp, f, np.array(rows, dtype=np.intp))
            got = solve(qp, theta)
            assert got.status == cold.status
            assert np.array_equal(got.x_star, cold.x_star, equal_nan=True), rows
            assert got.active_set == cold.active_set
    for bad in _infeasible_qps():
        for rows in ((), range(bad.A_in.shape[0])):
            bad._support = qp_module._support(bad, bad.factors, np.array(rows, dtype=np.intp))
            assert solve(bad).status == PRIMAL_INFEASIBLE


def test_a_hit_runs_no_nnls_and_builds_no_support():
    # A parameter near the last one keeps its support: the stored maps give
    # [x; lam_S] and the residuals by one product each, with no NNLS, no
    # support built (no Cholesky solve) and no residual build, and the result
    # is the cold family's, bit for bit.
    qp = _box_family()
    theta = np.array([-4.0, -4.0, 1.0, 0.1])
    first = solve(qp, theta)
    assert first.status == OPTIMAL and first.active_set
    near = theta + [0.01, -0.01, 0.02, 0.01]

    def refused(*args, **kwargs):
        raise AssertionError("a stored-support hit called _nnls, _support or _residual_map")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_nnls", "_support", "_residual_map"):
            mp.setattr(qp_module, name, refused)
        hit = solve(qp, near)
    assert hit.active_set == first.active_set
    _check_kkt(hit)
    cold = solve(dataclasses.replace(qp), near)
    assert np.array_equal(hit.x_star, cold.x_star) and hit.active_set == cold.active_set


def test_theta_must_have_one_entry_per_parameter():
    qp = _box_family()
    for theta in ((), np.zeros(3), np.zeros((4, 1))):
        with pytest.raises(ValueError, match=r"theta must have shape \(4,\)"):
            solve(qp, theta)
    with pytest.raises(ValueError, match=r"F_eq shape \(1, 2\) is not \(1, 3\)"):
        QuadraticProgram(P=np.eye(2), q=np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[0.0],
                         F_q=np.zeros((2, 3)), F_eq=np.zeros((1, 2)))


@pytest.mark.parametrize("blocks, named", [
    ({"P": np.eye(3)}, r"P shape \(3, 3\) does not match q size 2"),
    ({"A_eq": [[1.0, 1.0]], "b_eq": [0.0, 1.0]},
     r"A_eq shape \(1, 2\) inconsistent with rhs size 2 and dimension 2"),
    ({"A_in": [[1.0, 1.0, 1.0]], "b_in": [0.0]},
     r"A_in shape \(1, 3\) inconsistent with rhs size 1 and dimension 2"),
], ids=["P", "A_eq-rows", "A_in-columns"])
def test_data_of_mismatched_shapes_is_refused_by_name(blocks, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        QuadraticProgram(**({"P": np.eye(2), "q": np.zeros(2)} | blocks))


def test_only_an_optimal_solve_replaces_the_stored_support():
    # min (x - 2)^2 over x <= 1 and x >= c, with c = theta pinned by an
    # equality: the support {x <= 1} outlives the infeasible c = 2.
    qp = QuadraticProgram(P=np.diag([2.0, 0.0]), q=[-4.0, 0.0], A_eq=[[0.0, 1.0]], b_eq=[0.0],
                          A_in=[[1.0, 0.0], [-1.0, 1.0]], b_in=[1.0, 0.0], F_eq=[[1.0]])
    assert solve(qp, [0.0]).active_set == (0,)
    assert solve(qp, [2.0]).status == PRIMAL_INFEASIBLE
    assert qp._support.rows.tolist() == [0]
    assert solve(qp, [0.0]).active_set == (0,)


def test_factored_matrices_are_read_only():
    # Every array the solver derives its factors and theta-columns from is a
    # private read-only copy: q0, b0 and b_in as well as the matrices.
    data = dict(P=np.eye(2), q=np.array([1.0, -1.0]), A_eq=np.array([[1.0, 1.0]]),
                b_eq=np.array([0.0]), A_in=np.vstack([np.eye(2), -np.eye(2)]), b_in=np.ones(4),
                F_q=np.ones((2, 1)), F_eq=np.ones((1, 1)))
    qp = QuadraticProgram(**data)
    solve(qp, [0.5])
    for name, given in data.items():
        stored = getattr(qp, name)
        with pytest.raises(ValueError):
            stored[(0,) * stored.ndim] = 5.0
        given[(0,) * given.ndim] = 5.0  # the caller's array stays writable and is not stored
        assert stored[(0,) * stored.ndim] != 5.0, name


# --- a vertex with more active rows than null-space dimensions ----------------------------

def _overdetermined_vertex(rng):
    """The feasible set is one point v: the reduced active rows at v (more of
    them than the null space has dimensions) positively span the null space
    of A_eq. A unit box around v keeps the oracle's feasible set bounded."""
    d = int(rng.integers(2, 5))
    e = int(rng.integers(0, d - 1))
    v = rng.uniform(-0.5, 0.5, d)
    A_eq = rng.standard_normal((e, d))
    Z = np.linalg.svd(A_eq)[2][e:].T if e else np.eye(d)
    n = d - e
    spanning = np.vstack([np.eye(n), -np.ones((1, n)), rng.standard_normal((2, n))])
    rows = spanning @ Z.T + rng.standard_normal((spanning.shape[0], e)) @ A_eq if e else spanning
    rows = rows[rng.permutation(rows.shape[0])]
    A_box, b_box = _box(d)
    M = rng.standard_normal((d, d))
    return QuadraticProgram(P=M.T @ M + 0.1 * np.eye(d), q=3.0 * rng.standard_normal(d),
                            A_eq=A_eq if e else None, b_eq=A_eq @ v if e else None,
                            A_in=np.vstack([rows, A_box]),
                            b_in=np.concatenate([rows @ v, b_box + A_box @ v])), v


def test_overdetermined_vertex_matches_oracle():
    for seed in range(20):
        qp, v = _overdetermined_vertex(np.random.default_rng(seed))
        n_active = int(np.sum(qp.b_in - qp.A_in @ v <= 1e-9))
        assert n_active > qp.dim - qp.A_eq.shape[0]
        sol = solve(qp)
        _check_against_oracle(qp, sol)
        assert np.allclose(sol.x_star, v, atol=1e-8)


def _near_parallel_pair():
    return QuadraticProgram(P=np.eye(2), q=np.array([-5.0, -5.0]),
                            A_in=np.array([[1.0, 0.0], [1.0, 1e-11]]), b_in=np.array([0.0, 1e-11]))


def test_near_parallel_blocking_row_gives_the_true_minimizer():
    """Row 1 sits 1e-11 off parallel to row 0, and both are active at 0. The
    minimizer lies on row 1 alone, just inside row 0. A solver or an oracle
    that merges the two rows returns (0, 5), which violates row 1 by 4e-11;
    the solve is within rounding (1e-13) of the true point."""
    qp = _near_parallel_pair()
    sol = solve(qp)
    _check_against_oracle(qp, sol)
    _check_kkt(sol, tol=1e-12)
    assert sol.active_set == (1,)
    # On row 1, x1 + 1e-11 x2 = 1e-11, the minimizer is (-4e-11, 5 - 5e-11) to
    # first order; the oracle finds it too, as it keeps no merged candidate.
    _, x_oracle = qp_by_active_set_enumeration(qp.P, qp.q, None, None, qp.A_in, qp.b_in)
    for x in (sol.x_star, x_oracle):
        assert x[0] == pytest.approx(-4e-11, rel=0.0, abs=1e-13)
        assert x[1] == pytest.approx(5.0 - 5e-11, rel=0.0, abs=1e-13)


# --- the own NNLS against scipy's, on every free column from zero ----------------------------

@pytest.mark.parametrize("case", ["near-parallel-pair", "infeasible"])
def test_own_nnls_gives_scipys_result(case):
    # A cold miss runs the own NNLS from the columns of the rows x_0 breaks;
    # on these degenerate QPs it must end where scipy's NNLS on every free
    # column from zero ends: the same status, and for an optimum the same
    # active set and bits of x.
    qps = {"near-parallel-pair": [_near_parallel_pair()], "infeasible": _infeasible_qps()}[case]
    misses = 0
    for qp in qps:
        want, got, n = solve_by_both_nnls(solve, qp)
        assert_same_outcome_as_scipys_nnls(qp, (), want, got)
        misses += n
    assert misses >= 1


def test_own_nnls_gives_scipys_vertex():
    # At a vertex with more active rows than null-space dimensions the
    # multipliers are not unique: any positively spanning subset of the
    # active rows is a support, and which one NNLS ends on depends on the
    # order its columns enter. The own NNLS starts from the rows x_0 breaks,
    # and scipy's from no column, so on 2 of these 20 seeds they end on
    # another subset. The point is the same to rounding and both supports
    # are active rows of v; on the other seeds the active set and the bits of
    # x are the same.
    same = 0
    for seed in range(20):
        qp, v = _overdetermined_vertex(np.random.default_rng(seed))
        want, got, n = solve_by_both_nnls(solve, qp)
        assert n == 1 and want.status == got.status == OPTIMAL
        assert np.max(np.abs(got.x_star - want.x_star)) <= 1e-12 * max(1.0, np.max(np.abs(v)))
        active = np.flatnonzero(qp.b_in - qp.A_in @ v <= 1e-9)
        assert set(got.active_set) <= set(active.tolist())
        if got.active_set == want.active_set:
            assert np.array_equal(got.x_star, want.x_star)
            same += 1
    assert same == 18


def _random_nnls_matrix(rng, kind):
    """E' (m x (n+1), m up to 3n) of a seeded random NNLS min |Eu - e|, with
    e the last unit vector, of one of four kinds: plain; a zero residual,
    where e = E_S u_S for some columns S and weights u_S > 0 (a Farkas
    vector); a duplicated column; and a column (0, ..., 0, -1) whose gradient
    e'(e - Eu) (...) is never positive at a point that improves on u = 0."""
    n = int(rng.integers(0, 9))
    m = int(rng.integers(1, 3 * max(n, 1) + 1))
    ET = rng.standard_normal((m, n + 1))
    if kind == "zero-residual":
        S = rng.choice(m, int(rng.integers(1, min(n + 1, m) + 1)), replace=False)
        u = rng.uniform(0.5, 2.0, S.size)
        ET[S[-1]] = -ET[S[:-1]].T @ u[:-1]
        ET[S[-1], -1] += 1.0
        ET[S[-1]] /= u[-1]
    elif kind == "duplicated" and m > 1:
        ET[-1] = ET[0]
    elif kind == "never-useful":
        ET[-1] = 0.0
        ET[-1, -1] = -1.0
    return ET


@pytest.mark.parametrize("kind", ["plain", "zero-residual", "duplicated", "never-useful"])
@pytest.mark.parametrize("seed", range(25))
def test_own_nnls_matches_scipys_on_random_matrices(kind, seed):
    # The own Lawson-Hanson against scipy.optimize.nnls on the same E: the
    # same objective |Eu - e|^2 within 1e-13 (at most 3.2e-15 over 2000
    # draws), from no column or from a random start of at most n + 1
    # columns. Its weights are positive on at most n + 1 distinct columns,
    # no column's gradient E'(e - Eu) exceeds 1e-12 of the largest column
    # norm, and a zero residual it reports is one.
    rng = np.random.default_rng(seed)
    ET = _random_nnls_matrix(rng, kind)
    m, n1 = ET.shape
    e = np.eye(n1)[-1]
    _, rnorm = nnls(ET.T, e)
    norm2 = np.einsum("ij,ij->i", ET, ET)
    for start in (np.zeros(0, dtype=np.intp), rng.choice(m, min(m, n1), replace=False)):
        P, u, zero = qp_module._nnls(ET, norm2, 3 * m, start)
        r = e - ET[P].T @ u
        assert abs(r @ r - rnorm**2) <= 1e-13
        assert np.all(u > 0.0) and len(set(P.tolist())) == P.size <= n1
        assert np.max(ET @ r) <= 1e-12 * max(1.0, np.sqrt(np.max(norm2)))
        assert not zero or r @ r <= 1e-26
    if kind == "zero-residual":
        assert zero


def test_own_nnls_of_one_row_and_of_no_column():
    # n = 0: E is the row h'. From u = 0 the gradient is h, so the column of
    # the largest h_j > 0 enters, with weight 1/h_j and a zero residual; with
    # no positive entry, u = 0. With no column at all there is nothing to
    # solve.
    for h, want in (([-1.0, 2.0, 4.0], ([2], [0.25])), ([-1.0, 0.0], ([], []))):
        ET = np.array(h)[:, None]
        P, u, zero = qp_module._nnls(ET, ET[:, 0] ** 2, 3 * ET.shape[0], np.zeros(0, np.intp))
        assert (P.tolist(), u.tolist(), zero) == (*want, bool(want[0]))
    P, u, zero = qp_module._nnls(np.zeros((0, 3)), np.zeros(0), 0, np.zeros(0, np.intp))
    assert P.size == u.size == 0 and not zero


@pytest.mark.parametrize("kind", ["plain", "duplicated", "never-useful"])
@pytest.mark.parametrize("seed", range(20))
def test_own_nnls_support_map_passes_the_check_on_random_qps(kind, seed):
    # Random least-distance programs (P = I, random rows), feasible or not:
    # the own NNLS and scipy's give the same status and objective (within
    # 1e-9 of max(1, |objective|)); an Optimal result's support has a map
    # whose point passes the full-space check, and a PrimalInfeasible one
    # carries a Farkas vector that passes qp._farkas.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    A_in = rng.standard_normal((int(rng.integers(2, 3 * d + 3)), d))
    b_in = rng.standard_normal(A_in.shape[0])
    if kind == "duplicated":
        A_in[-1], b_in[-1] = A_in[0], b_in[0]
    elif kind == "never-useful":
        b_in[-1] = 1e6
    qp = QuadraticProgram(P=np.eye(d), q=3.0 * rng.standard_normal(d), A_in=A_in, b_in=b_in)
    want, got, n = solve_by_both_nnls(solve, qp)
    assert n <= 1 and got.status == want.status  # no miss where x_0 breaks no row
    f, tb = qp.factors, np.ones(1)
    if got.status == OPTIMAL:
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
        S = qp_module._support(qp, f, np.array(got.active_set, dtype=np.intp))
        v = S.M @ tb
        qb = v[: qp.dim]
        tol = qp_module._KKT_TOL * max(f.rhs_floor, np.max(np.abs(qb)))
        assert qp_module._on_support(qp, f, S, v, qb, tol) is not None
    else:
        assert qp_module._farkas(qp, f, got.in_multipliers, np.zeros(0)) is not None


# --- the full-space check against its dense formulation ---------------------------------

def _checks_of(qp, theta=()):
    """Solve qp at theta and return every call of the full-space check with its
    result: the stored support's, each NNLS support's map and NNLS's own weights
    are all judged by ``qp._checked``."""
    calls, check = [], qp_module._checked

    def recorded(*args):
        sol = check(*args)
        calls.append((args, sol))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp_module, "_checked", recorded)
        try:
            solve(qp, theta)
        except SolverFailed:
            pass
    assert calls
    return calls


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8), n_eq=st.integers(0, 8),
       n_in=st.integers(0, 14), feasible=st.booleans())
# A square A_eq of condition 2.1e3: the map's nu differs from the dense one by
# 2.3e-10, inside nu's own bound, and the stationarity adds it through A_eq'.
@example(seed=245090, d=6, n_eq=6, n_in=11, feasible=False)
def test_the_check_matches_its_dense_form_on_random_qps(seed, d, n_eq, n_in, feasible):
    # Offsets with a negative slack at the point x0 often make the QP infeasible,
    # so rejected checks and Farkas vectors are drawn as well as optima. The QP
    # is a family in two parameters, solved where A_eq x0 = b_eq(theta), then
    # near theta, where the stored support is tried first.
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d))
    A_eq, A_in = rng.standard_normal((min(n_eq, d), d)), rng.standard_normal((n_in, d))
    x0 = rng.uniform(-1.0, 1.0, d)
    slack = rng.uniform(0.0 if feasible else -1.0, 1.0, n_in)
    theta, F_eq = rng.standard_normal(2), rng.standard_normal((A_eq.shape[0], 2))
    qp = QuadraticProgram(P=M.T @ M + 0.1 * np.eye(d), q=3.0 * rng.standard_normal(d),
                          A_eq=A_eq, b_eq=A_eq @ x0 - F_eq @ theta, A_in=A_in,
                          b_in=A_in @ x0 + slack, F_q=rng.standard_normal((d, 2)), F_eq=F_eq)
    near = theta + 0.01 * rng.standard_normal(2)
    assert_checks_match_the_dense_check(_checks_of(qp, theta) + _checks_of(qp, near))


def _interior_optimum():
    """The unconstrained minimizer (0.5, -0.2) lies inside the unit box, so the
    first check, on the empty support, accepts it."""
    A_in, b_in = _box(2)
    return QuadraticProgram(P=np.eye(2), q=[-0.5, 0.2], A_in=A_in, b_in=b_in)


def _no_inequalities():
    return QuadraticProgram(P=np.diag([1.0, 2.0, 3.0]), q=[1.0, -1.0, 0.5],
                            A_eq=[[1.0, 1.0, 1.0]], b_eq=[2.0])


@pytest.mark.parametrize("make", [
    _interior_optimum,
    lambda: _pinned_row_qp(0.0),
    lambda: _pinned_row_qp(1e-6),
    lambda: _duplicate_equalities(np.random.default_rng(3)),
    _no_inequalities,
    lambda: _infeasible_qps()[1],
], ids=["empty-support", "fixed-row", "fixed-row-violated", "rank-deficient-A_eq",
        "0-row-A_in", "infeasible"])
def test_the_check_matches_its_dense_form_on_degenerate_qps(make):
    calls = _checks_of(make())
    assert_checks_match_the_dense_check(calls)
    (_, _, S, *_), _ = calls[0]
    assert S.rows.size == 0  # the first solve tries the empty support


@pytest.mark.parametrize("key", ["stationarity", "primal_eq", "primal_in", "complementarity"])
def test_a_nan_residual_fails_the_check(monkeypatch, key):
    # Each residual is compared with the tolerance: Python's max() of the four
    # would pass a NaN anywhere but first. The NaN goes into the residual
    # rows that feed only ``key`` (the rows of A_in outside S for primal_in),
    # or into lam_S for the complementarity.
    check = qp_module._checked

    def with_nan(qp, f, S, r, x, lam_S, qb, tol):
        d, n_eq = qp.dim, qp.b_eq.size
        r, lam_S = r.copy(), lam_S.copy()
        outside = np.setdiff1d(np.arange(qp.b_in.size), S.rows)
        rows = {"stationarity": np.arange(d), "primal_eq": d + np.arange(n_eq),
                "primal_in": d + n_eq + outside, "complementarity": []}[key]
        r[rows] = np.nan
        if key == "complementarity":
            lam_S[:] = np.nan
        return check(qp, f, S, r, x, lam_S, qb, tol)

    # min |x|^2 over x1 = x2, 1 <= x1 <= 5: the optimum (1, 1) has one row
    # of A_in in S and one outside, and an equality.
    def make():
        return QuadraticProgram(P=2.0 * np.eye(2), q=[0.0, 0.0], A_eq=[[1.0, -1.0]], b_eq=[0.0],
                                A_in=[[-1.0, 0.0], [1.0, 0.0]], b_in=[-1.0, 5.0])

    assert solve(make()).active_set == (0,)
    monkeypatch.setattr(qp_module, "_checked", with_nan)
    with pytest.raises(SolverFailed):
        solve(make())
