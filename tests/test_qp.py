import numpy as np
import pytest

from koopmpc import qp as qp_module
from koopmpc.qp import (
    MAX_ITERATIONS,
    OPTIMAL,
    PRIMAL_INFEASIBLE,
    NonConvex,
    QuadraticProgram,
    solve,
)
from oracles import qp_by_active_set_enumeration


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
    with pytest.raises(NonConvex):
        solve(QuadraticProgram(P=[[-1.0]], q=[0.0]))


def test_unconstrained_quadratic():
    qp = QuadraticProgram(P=2.0 * np.eye(3), q=[-2.0, 0.0, 4.0])
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x_star, [1.0, 0.0, -2.0], atol=1e-10)
    _check_kkt(sol)


def test_linear_program_dispatch_with_duals():
    # Pure LP (P = 0): minimize x subject to x >= 2.
    qp = QuadraticProgram(P=[[0.0]], q=[1.0], A_in=[[-1.0]], b_in=[-2.0])
    sol = solve(qp)
    assert sol.status == OPTIMAL
    assert sol.x_star[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.in_multipliers[0] == pytest.approx(1.0, abs=1e-8)
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
    for x0 in (None, np.zeros(2)):
        sol = solve(qp, x0=x0)
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


def test_max_iterations_status_reported():
    qp = QuadraticProgram(
        P=2.0 * np.eye(2),
        q=[-4.0, -4.0],
        A_in=np.vstack([np.eye(2), -np.eye(2)]),
        b_in=[1.0, 1.0, 0.0, 0.0],
    )
    sol = solve(qp, max_iter=0)
    assert sol.status == MAX_ITERATIONS


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
    M = rng.standard_normal((4, 4))
    qp = QuadraticProgram(
        P=M.T @ M + 0.5 * np.eye(4),
        q=rng.standard_normal(4),
        A_in=np.vstack([np.eye(4), -np.eye(4)]),
        b_in=np.full(8, 2.0),
    )
    cold = solve(qp)
    warm = solve(qp, x0=np.zeros(4))
    shifted = solve(qp, x0=cold.x_star)
    assert cold.status == warm.status == shifted.status == OPTIMAL
    assert np.allclose(cold.x_star, warm.x_star, atol=1e-8)
    assert np.allclose(cold.x_star, shifted.x_star, atol=1e-8)
    _check_kkt(shifted)


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


def test_random_qp_batch_certified(rng):
    # Small in-module batch; the acceptance suite runs the full 500.
    for _ in range(60):
        d = int(rng.integers(1, 13))
        qp = _random_feasible_qp(rng, d)
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


def _check_against_oracle(qp, *sols):
    best, _ = qp_by_active_set_enumeration(qp.P, qp.q, qp.A_eq, qp.b_eq, qp.A_in, qp.b_in)
    for sol in sols:
        assert sol.status == OPTIMAL
        _check_kkt(sol)
        assert sol.objective == pytest.approx(best, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("make", [_duplicate_equalities, _zero_width_box])
def test_degenerate_constraints_match_oracle(make):
    for seed in range(12):
        qp = make(np.random.default_rng(seed))
        _check_against_oracle(qp, solve(qp), solve(qp, x0=np.zeros(qp.dim)))


def test_dependent_rows_active_at_the_optimum():
    for seed in range(12):
        qp, x_star = _parallel_active_rows(np.random.default_rng(seed))
        cold, warm = solve(qp), solve(qp, x0=x_star)
        _check_against_oracle(qp, cold, warm)
        assert np.allclose(cold.x_star, x_star, atol=1e-8)
        assert np.allclose(warm.x_star, x_star, atol=1e-8)


def test_singular_reduced_hessian_takes_rays(monkeypatch):
    directions = []

    def spy(H, C, c):
        p, lam, is_ray = direction(H, C, c)
        directions.append((lam is None, is_ray))
        return p, lam, is_ray

    direction = qp_module._eqp_direction
    monkeypatch.setattr(qp_module, "_eqp_direction", spy)
    for seed in range(12):
        qp = _flat_hessian(np.random.default_rng(seed))
        _check_against_oracle(qp, solve(qp))
    # The batch must reach the eigh fallback and follow a descent ray.
    assert any(fallback for fallback, _ in directions)
    assert any(ray for _, ray in directions)


# --- warm starts that the equality projection alone leaves infeasible -------------------

def _count_phase1(monkeypatch):
    calls = []
    phase1 = qp_module._phase1

    def counted(qp, f):
        calls.append(qp.dim)
        return phase1(qp, f)

    monkeypatch.setattr(qp_module, "_phase1", counted)
    return calls


def _overshooting_warm_start(rng):
    """A QP over the unit box with random equalities through an interior
    point, and a warm start on the equality manifold that overshoots the
    box along a null-space direction, so the equality projection leaves
    box rows violated."""
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
    lambda rng: (_zero_width_box(rng), None),  # no A_eq rows; x0 = 0 misses the fixed values
])
def test_violated_rows_are_held_without_phase1(monkeypatch, make):
    phase1 = _count_phase1(monkeypatch)
    for seed in range(12):
        qp, x0 = make(np.random.default_rng(seed))
        x0 = np.zeros(qp.dim) if x0 is None else x0
        assert np.max(qp.A_in @ x0 - qp.b_in) > 1e-3
        if qp.A_eq.shape[0]:
            assert np.allclose(qp.A_eq @ x0, qp.b_eq)  # only the held-row step can help
        warm = solve(qp, x0=x0)
        assert not phase1, f"seed {seed}: the warm start was refused and phase 1 ran"
        _check_against_oracle(qp, warm, solve(qp))
        phase1.clear()


def _flat_overshooting_warm_start(rng):
    """The overshooting warm start under a rank-1 P, so that Z'PZ is singular."""
    qp, x0 = _overshooting_warm_start(rng)
    u = rng.standard_normal(qp.dim)
    return QuadraticProgram(P=np.outer(u, u), q=qp.q, A_eq=qp.A_eq, b_eq=qp.b_eq,
                            A_in=qp.A_in, b_in=qp.b_in), x0


def _two_round_overshoot(rng):
    """A coupled P over the unit box, no equalities: holding x_0 <= 1 by the
    least P-norm step pushes x_1 past its bound, so a second round holds it."""
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
    # The projection's whole correction is the least P-norm step in the null
    # space of A_eq (Euclidean when Z'PZ is singular) that puts the held rows
    # at their bounds, and the working set it returns holds exactly those
    # rows, with their factor rows[index]' = Q'R in the basis Y.
    for seed in range(12):
        qp, x0 = make(np.random.default_rng(seed))
        f = qp.factors
        assert (f.H is None) != (make is _flat_overshooting_warm_start)
        x, working = qp_module._project(qp, f, x0)
        held = working.index
        if make is _two_round_overshoot:
            assert held == [0, 1]
        assert set(np.flatnonzero(qp.A_in @ x0 - qp.b_in > 1e-9)) <= set(held)
        assert np.max(qp.A_in @ x - qp.b_in) <= 1e-9
        assert np.allclose(qp.A_in[held] @ x, qp.b_in[held], rtol=0.0, atol=1e-12)
        M = qp.P if f.H is None else np.eye(qp.dim)
        step = _least_norm_correction(M, qp.A_eq, qp.A_in[held],
                                      qp.b_in[held] - qp.A_in[held] @ x0)
        assert np.max(np.abs(x - x0 - step)) <= 1e-10 * max(1.0, np.max(np.abs(step)))
        Q, R = working.factors()
        assert np.allclose(Q.T @ R, f.AY[held].T, rtol=0.0, atol=1e-12)
        assert np.allclose(Q @ Q.T, np.eye(len(held)), rtol=0.0, atol=1e-12)
        assert np.array_equal(R, np.triu(R))


def test_warm_started_infeasible_qp_is_still_certified(monkeypatch):
    phase1 = _count_phase1(monkeypatch)
    box = dict(A_in=np.vstack([np.eye(2), -np.eye(2)]), b_in=[1.0, 1.0, 0.0, 0.0])
    outside = QuadraticProgram(P=np.eye(2), q=np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[4.0], **box)
    contradictory = QuadraticProgram(P=np.eye(1), q=[0.0], A_in=[[1.0], [-1.0]], b_in=[0.0, -1.0])
    for qp, x0 in [(outside, np.array([2.0, 2.0])), (outside, np.zeros(2)),
                   (contradictory, np.array([0.5]))]:
        assert solve(qp, x0=x0).status == PRIMAL_INFEASIBLE
    assert len(phase1) == 3  # the certificate always comes from phase 1


def test_factors_are_computed_once_per_problem(monkeypatch):
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    qp = QuadraticProgram(P=2.0 * np.eye(3), q=[-2.0, 0.0, 4.0], A_eq=[[1.0, 1.0, 1.0]],
                          b_eq=[0.0], A_in=np.vstack([np.eye(3), -np.eye(3)]), b_in=np.ones(6))
    first = solve(qp)
    # The right-hand sides may change between solves; the factors stay.
    qp.q[:] = [1.0, -1.0, 0.5]
    qp.b_eq[:] = [0.5]
    second = solve(qp, x0=first.x_star)
    assert len(svds) == 1
    fresh = QuadraticProgram(P=qp.P, q=qp.q, A_eq=qp.A_eq, b_eq=qp.b_eq, A_in=qp.A_in,
                             b_in=qp.b_in)
    assert np.allclose(second.x_star, solve(fresh).x_star, atol=1e-10)
    _check_kkt(second)


def test_factored_matrices_are_read_only():
    A_in = np.vstack([np.eye(2), -np.eye(2)])
    qp = QuadraticProgram(P=np.eye(2), q=[1.0, -1.0], A_eq=[[1.0, 1.0]], b_eq=[0.0], A_in=A_in,
                          b_in=np.ones(4))
    solve(qp)
    for M in (qp.P, qp.A_eq, qp.A_in):
        with pytest.raises(ValueError):
            M[0, 0] = 5.0
    A_in[0, 0] = 5.0  # the caller's array stays writable and is not the one factored
    assert qp.A_in[0, 0] == 1.0
    qp.q[0], qp.b_eq[0], qp.b_in[0] = 2.0, 0.5, 2.0  # the right-hand sides stay writable


def test_solution_does_not_alias_the_warm_start():
    qp = QuadraticProgram(P=np.eye(2), q=np.zeros(2), A_in=np.vstack([np.eye(2), -np.eye(2)]),
                          b_in=np.ones(4))
    x0 = np.zeros(2)
    sol = solve(qp, x0=x0)  # already optimal: no projection and no step move it
    assert sol.status == OPTIMAL and np.array_equal(sol.x_star, x0)
    x0[0] = 7.0
    assert sol.x_star[0] == 0.0


# --- the projected step against the reference KKT solve ---------------------------------

def _kkt_direction(H, C, c):
    """Step and multipliers of  min 0.5 p'Hp + c'p  s.t.  C p = 0  from the dense KKT system."""
    n, m = H.shape[0], C.shape[0]
    kkt = np.block([[H, C.T], [C, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-c, np.zeros(m)]))
    return sol[:n], sol[n:]


def test_projected_step_matches_the_kkt_solve(rng):
    # Random positive-definite problems. The working set grows and shrinks by
    # adds and drops at any position; after each, the step and the multipliers
    # are checked against the KKT solve in the orthonormal null basis Z. The
    # last row a_0 + a_1 is dependent exactly when rows 0 and 1 are kept.
    for _ in range(20):
        d = int(rng.integers(5, 12))
        e = int(rng.integers(0, 3))
        M = rng.standard_normal((d, d))
        A_eq = rng.standard_normal((e, d)) if e else None
        rows = rng.standard_normal((d - e - 1, d))
        qp = QuadraticProgram(P=M.T @ M + 0.5 * np.eye(d), q=rng.standard_normal(d),
                              A_eq=A_eq, b_eq=None if A_eq is None else np.zeros(e),
                              A_in=np.vstack([rows, rows[0] + rows[1]]), b_in=np.ones(d - e))
        f = qp.factors
        assert f.H is None
        working = qp_module._WorkingSet(f.AY, f.tol_Y)
        H, AZ = f.Z.T @ qp.P @ f.Z, qp.A_in @ f.Z
        for _ in range(12):
            outside = [i for i in range(d - e) if i not in working.index]
            if outside and (not working.index or rng.uniform() < 0.6):
                i = int(rng.choice(outside))
                independent = np.linalg.matrix_rank(AZ[working.index + [i]]) > len(working.index)
                assert working.add(i) == independent
            else:
                working.drop(int(rng.integers(len(working.index))))
            x = rng.standard_normal(d)
            w, lam, is_ray = qp_module._eqp_direction(f, working, f.Y.T @ (qp.P @ x + qp.q))
            p_ref, lam_ref = _kkt_direction(H, AZ[working.index], f.Z.T @ (qp.P @ x + qp.q))
            assert not is_ray
            scale = max(1.0, np.max(np.abs(p_ref)), np.max(np.abs(lam_ref), initial=0.0))
            assert np.max(np.abs(f.Y @ w - f.Z @ p_ref)) <= 1e-10 * scale
            assert np.max(np.abs(lam - lam_ref), initial=0.0) <= 1e-10 * scale


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
        sols = [solve(qp), solve(qp, x0=np.zeros(qp.dim)), solve(qp, x0=v)]
        _check_against_oracle(qp, *sols)
        for sol in sols:
            assert np.allclose(sol.x_star, v, atol=1e-8)


def test_dependent_blocking_row_is_swapped_in(monkeypatch):
    """Row 1 sits 1e-11 off parallel to row 0, inside the independence
    tolerance. At x0 = 0 both rows are active and row 1 is seeded as dependent;
    the step along row 0 then runs into row 1, which takes row 0's place."""
    adds = []
    add = qp_module._WorkingSet.add

    def recording_add(self, i):
        adds.append((int(i), add(self, i)))
        return adds[-1][1]

    monkeypatch.setattr(qp_module._WorkingSet, "add", recording_add)
    qp = QuadraticProgram(P=np.eye(2), q=np.array([-5.0, -5.0]),
                          A_in=np.array([[1.0, 0.0], [1.0, 1e-11]]), b_in=np.array([0.0, 1e-11]))
    sol = solve(qp, x0=np.zeros(2))
    assert adds == [(0, True), (1, False), (1, False), (1, True)]
    _check_against_oracle(qp, sol)
    _check_kkt(sol, tol=1e-16)
    assert sol.active_set == (1,)
    # On row 1, x1 + 1e-11 x2 = 1e-11, the minimizer is (-4e-11, 5 - 5e-11) to first order.
    assert sol.x_star[0] == pytest.approx(-4e-11, rel=1e-6)
    assert sol.x_star[1] == pytest.approx(5.0 - 5e-11, rel=0.0, abs=1e-14)
