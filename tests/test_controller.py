import dataclasses

import numpy as np
import pytest

from koopmpc.controller import (
    GridSpec,
    Infeasible,
    KtmpcConfig,
    KtmpcSolution,
    LyapunovDiag,
    NonlinearSteadyTarget,
    SteadyTarget,
    TrackingProblem,
    build_qp,
    diagnostics,
    shifted_candidate,
    solve_steady,
    solve_steady_nonlinear,
    solve_step,
)
from koopmpc.gains import dlqr
from koopmpc.model import LiftingSpec, lift, make_model
from koopmpc.sets import (
    Zonotope,
    box_polytope,
    box_zonotope,
    tighten_constraints,
)
from oracles import numerical_example_matrices, segment_inequality_check

LAM, MU = -0.1, 2.0


class _Bounds:
    def __init__(self, W, V):
        self.W = W
        self.V = V


def benchmark_model():
    A, B = numerical_example_matrices(LAM, MU)
    spec = LiftingSpec(kind="explicit", n_x=2, exponents=[[2, 0]])
    return make_model(A, B, spec, output_matrix=[[0.0, 1.0]])


def zero_disturbance():
    return _Bounds(W=box_zonotope([0.0, 0.0, 0.0]), V=box_zonotope([0.0, 0.0]))


def make_setup(N=6, s=1000.0, W=None, V=None, u_hi=3.0):
    model = benchmark_model()
    gains = dlqr(model.A, model.B, np.eye(3), np.eye(1))
    X = box_polytope([-5.0, -5.0], [5.0, 5.0])
    U = box_polytope([-u_hi], [u_hi])
    dist = zero_disturbance() if W is None else _Bounds(W=W, V=V or box_zonotope([0.0, 0.0]))
    schedule = tighten_constraints(X, U, dist, model.A, model.B, gains.K, model.C_x, N)
    config = KtmpcConfig(N=N, Q=np.eye(3), R=np.eye(1), s=s, K=gains.K)
    return model, config, schedule


def one_shot_steady(model, schedule, y_t, s):
    """The steady target of ``y_t`` from a problem built for this one solve."""
    K = np.zeros((model.n_u, model.n_z))
    config = KtmpcConfig(N=schedule.horizon, Q=np.eye(model.n_z), R=np.eye(model.n_u), s=s, K=K)
    return solve_steady(TrackingProblem(model, config, schedule), y_t)


def nominal_step(model, x, u):
    z = lift(model, x)
    return model.C_x @ (model.A @ z + model.B @ np.atleast_1d(u))


# --- config validation ------------------------------------------------------------

def test_config_rejects_bad_weights():
    K = np.zeros((1, 3))
    with pytest.raises(ValueError):
        KtmpcConfig(N=0, Q=np.eye(3), R=np.eye(1), s=1.0, K=K)
    with pytest.raises(ValueError):
        KtmpcConfig(N=2, Q=-np.eye(3), R=np.eye(1), s=1.0, K=K)
    with pytest.raises(ValueError):
        KtmpcConfig(N=2, Q=np.eye(3), R=np.eye(1), s=0.0, K=K)
    for s in (np.inf, np.nan):
        with pytest.raises(ValueError, match="offset weight s must be finite and positive"):
            KtmpcConfig(N=2, Q=np.eye(3), R=np.eye(1), s=s, K=K)
    with pytest.raises(ValueError):
        KtmpcConfig(N=2, Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(1), s=1.0, K=np.zeros((1, 2)))


# --- steady-target optimizers ------------------------------------------------------

def test_steady_offline_reachable_reference():
    model, config, schedule = make_setup(N=2)
    target = solve_steady(TrackingProblem(model, config, schedule), [1.0])
    assert np.allclose(target.z_s, [0.0, 1.0, 0.0], atol=1e-6)
    assert np.allclose(target.u_s, [-1.0], atol=1e-6)
    assert np.allclose(target.y_s, [1.0], atol=1e-6)
    assert target.offset_cost == pytest.approx(0.0, abs=1e-9)


def test_steady_offline_capped_by_state_bounds():
    # Wide input bounds so the x2 <= 4.7 tightened state bound is what binds.
    model = benchmark_model()
    K = np.array([[0.0, -2.0, 1.99]])  # places A+BK at diag(-0.1, 0, 0.01)
    X = box_polytope([-5.0, -5.0], [5.0, 5.0])
    U = box_polytope([-50.0], [50.0])
    dist = _Bounds(W=box_zonotope([0.2, 0.2, 0.2]), V=box_zonotope([0.1, 0.1]))
    schedule = tighten_constraints(X, U, dist, model.A, model.B, K, model.C_x, N=1)
    s = 7.0
    target = one_shot_steady(model, schedule, [10.0], s)
    assert target.y_s[0] == pytest.approx(4.7, abs=1e-7)
    assert target.offset_cost == pytest.approx(s * (10.0 - 4.7) ** 2, rel=1e-7)


def test_steady_offline_zero_target():
    model, config, schedule = make_setup(N=2)
    target = solve_steady(TrackingProblem(model, config, schedule), [0.0])
    assert np.allclose(target.z_s, 0.0, atol=1e-8)
    assert np.allclose(target.u_s, 0.0, atol=1e-8)
    assert target.offset_cost == pytest.approx(0.0, abs=1e-10)


def test_steady_offline_optimality_over_manifold(rng):
    model, config, schedule = make_setup(N=3)
    target = solve_steady(TrackingProblem(model, config, schedule), [2.3])
    # The steady manifold of this model is z = (0, -u, 0); sample it directly.
    for _ in range(100):
        u = rng.uniform(-3.0, 3.0)
        z = np.array([0.0, -u, 0.0])
        assert np.allclose(model.A @ z + model.B @ [u], z, atol=1e-12)
        cost = config.s * (model.C_y @ z - 2.3) ** 2
        assert cost[0] >= target.offset_cost - 1e-9


def test_steady_offline_infeasible_manifold():
    model = benchmark_model()
    K = np.array([[0.0, -2.0, 1.99]])
    X = box_polytope([-5.0, -5.0], [5.0, 5.0])
    # Input box that excludes every steady input except |u| <= 0.05... shifted
    # away from zero so that no steady pair remains after tightening.
    U = box_polytope([2.0], [3.0])
    dist = zero_disturbance()
    schedule = tighten_constraints(X, U, dist, model.A, model.B, K, model.C_x, N=1)
    # Steady pairs need z2 = -u with u in [2,3] -> z2 in [-3,-2], all inside X:
    # feasible. Now cap the state box away from that range instead.
    X2 = box_polytope([-5.0, -1.0], [5.0, 1.0])
    schedule2 = tighten_constraints(X2, U, dist, model.A, model.B, K, model.C_x, N=1)
    with pytest.raises(Infeasible):
        one_shot_steady(model, schedule2, [0.0], 1.0)
    # Sanity: the first schedule is feasible and picks the closest output.
    t = one_shot_steady(model, schedule, [0.0], 1.0)
    assert t.y_s[0] == pytest.approx(-2.0, abs=1e-7)


def test_solve_steady_raises_infeasible_on_every_call_and_stores_no_support():
    # The schedule of the test above whose terminal sets hold no steady pair:
    # the problem's steady QP is certified infeasible at every reference, a
    # revisited one included, and neither a support nor a target is stored.
    model = benchmark_model()
    K = np.array([[0.0, -2.0, 1.99]])
    X2 = box_polytope([-5.0, -1.0], [5.0, 1.0])
    schedule = tighten_constraints(X2, box_polytope([2.0], [3.0]), zero_disturbance(),
                                   model.A, model.B, K, model.C_x, N=1)
    config = KtmpcConfig(N=1, Q=np.eye(3), R=np.eye(1), s=1.0, K=K)
    problem = TrackingProblem(model, config, schedule)
    for y in (0.0, 1.0, 0.0):
        with pytest.raises(Infeasible):
            solve_steady(problem, [y])
        assert problem.steady_qp._support is None and problem.steady_targets == {}


class _DuckPlant:
    """Minimal vectorized plant: f and h over row-stacked batches."""

    def __init__(self, f, h):
        self.f = f
        self.h = h


def _benchmark_plant():
    def f(X, U):
        x1, x2 = X[:, 0], X[:, 1]
        return np.column_stack([LAM * x1, MU * x2 + (LAM**2 - MU) * x1**2 + U[:, 0]])

    def h(X):
        return X[:, 1:2]

    return _DuckPlant(f, h)


def test_steady_nonlinear_benchmark_fixed_point():
    grid = GridSpec(
        x_values=(np.linspace(-5, 5, 11), np.linspace(-5, 5, 101)),
        u_values=(np.linspace(-3, 3, 121),),
        fp_tol=1e-9,
    )
    t = solve_steady_nonlinear(_benchmark_plant(), y_t=[1.0], s=2.0, grid_spec=grid)
    assert np.allclose(t.x_s, [0.0, 1.0], atol=1e-12)
    assert np.allclose(t.u_s, [-1.0], atol=1e-12)
    assert t.y_s[0] == pytest.approx(1.0)
    assert t.offset_cost == pytest.approx(0.0, abs=1e-12)


def test_steady_nonlinear_boundary_minimizer():
    # Fixed points of the benchmark need u = -x2, so |x2| <= 3 is reachable.
    grid = GridSpec(
        x_values=(np.linspace(-5, 5, 11), np.linspace(-5, 5, 101)),
        u_values=(np.linspace(-3, 3, 121),),
        fp_tol=1e-9,
    )
    t = solve_steady_nonlinear(_benchmark_plant(), y_t=[10.0], s=2.0, grid_spec=grid)
    assert t.y_s[0] == pytest.approx(3.0)
    assert t.offset_cost == pytest.approx(2.0 * 49.0)


def test_steady_nonlinear_no_fixed_point():
    grid = GridSpec(x_values=(np.array([5.0]), np.array([5.0])), u_values=(np.array([0.0]),))
    with pytest.raises(ValueError):
        solve_steady_nonlinear(_benchmark_plant(), y_t=[0.0], s=1.0, grid_spec=grid)


def test_steady_nonlinear_zero_input_family():
    # Integrator x+ = x + u: every x is steady at u = 0; minimizer hits target.
    plant = _DuckPlant(f=lambda X, U: X + U, h=lambda X: X)
    grid = GridSpec(
        x_values=(np.linspace(-2, 2, 41),), u_values=(np.linspace(-1, 1, 5),), fp_tol=1e-12
    )
    t = solve_steady_nonlinear(plant, y_t=[1.3], s=1.0, grid_spec=grid)
    assert t.x_s[0] == pytest.approx(1.3)
    assert np.allclose(t.u_s, 0.0)


# --- QP assembly ---------------------------------------------------------------------

def test_build_qp_dimensions_horizon_one():
    model, config, schedule = make_setup(N=1)
    qp = build_qp(model, config, schedule)
    assert qp.dim == 1 + 3 + 3 + 3 + 1  # u(0), z(0), z(1), z_s, u_s
    assert qp.A_eq.shape[0] == 12  # initial state 3 + dynamics 3 + steady 3 + terminal 3
    # theta = (psi(x_k), y_t): the first 3 equality rows pin z(0), and y_t sets
    # the linear cost of z_s (variables 7..9) alone.
    z_k = lift(model, [0.5, 0.5])
    b_eq = qp.b_eq + qp.F_eq @ np.concatenate([z_k, [1.0]])
    assert np.array_equal(b_eq[:3], z_k) and not b_eq[3:].any()
    assert not np.delete(qp.F_q, [7, 8, 9], axis=0).any() and not qp.F_q[:, :3].any()
    assert np.array_equal(qp.F_q[7:10, 3:], -2.0 * config.s * model.C_y.T)
    # Inequalities: u(0) box 2, X~(0) box 4, steady state box 4, steady input box 2.
    assert qp.A_in.shape[0] == 12


def test_build_qp_zero_disturbance_keeps_raw_offsets():
    model, config, schedule = make_setup(N=3)
    qp = build_qp(model, config, schedule)
    assert set(np.round(qp.b_in, 12)) == {3.0, 5.0}


def test_build_qp_hessian_psd(rng):
    model, config, schedule = make_setup(N=4)
    M = rng.standard_normal((3, 3))
    Q = M @ M.T + 0.1 * np.eye(3)
    config = KtmpcConfig(N=4, Q=Q, R=2.0 * np.eye(1), s=float(rng.uniform(0.5, 5)), K=config.K)
    qp = build_qp(model, config, schedule)
    assert np.min(np.linalg.eigvalsh(qp.P)) >= -1e-10


def test_build_qp_horizon_mismatch():
    model, config, schedule = make_setup(N=3)
    bad = KtmpcConfig(N=4, Q=config.Q, R=config.R, s=config.s, K=config.K)
    with pytest.raises(ValueError):
        build_qp(model, bad, schedule)


def test_build_qp_rejects_a_tube_gain_of_the_wrong_shape():
    # A gain on the state (1 x 2) in place of the lifted state (1 x 3) used to
    # pass, and the first shifted candidate then failed inside a matmul.
    model, config, schedule = make_setup(N=3)
    bad = KtmpcConfig(N=3, Q=config.Q, R=config.R, s=config.s, K=np.zeros((1, 2)))
    with pytest.raises(ValueError, match=r"tube gain K must be 1x3, got shape \(1, 2\)"):
        build_qp(model, bad, schedule)
    with pytest.raises(ValueError, match="tube gain K"):
        TrackingProblem(model, bad, schedule)


# --- solve_step ------------------------------------------------------------------------

def test_solve_step_at_steady_state():
    model, config, schedule = make_setup(N=3)
    u_k, sol = solve_step(TrackingProblem(model, config, schedule), lift(model, [0.0, 1.0]), [1.0])
    assert np.allclose(u_k, [-1.0], atol=1e-6)
    assert np.allclose(sol.u_bar, -1.0, atol=1e-6)
    assert sol.total_cost <= 1e-9
    assert np.allclose(sol.z_bar[0], [0.0, 1.0, 0.0])
    assert np.allclose(sol.target.y_s, [1.0], atol=1e-6)


def test_solve_step_origin():
    model, config, schedule = make_setup(N=3)
    u_k, sol = solve_step(TrackingProblem(model, config, schedule), np.zeros(3), y_t=[0.0])
    assert np.allclose(u_k, 0.0, atol=1e-8)
    assert sol.total_cost <= 1e-12


def test_solve_step_outside_tightened_initial_set():
    model, config, schedule = make_setup(N=3)
    with pytest.raises(Infeasible):
        solve_step(TrackingProblem(model, config, schedule), lift(model, [0.0, 10.0]), [0.0])


def test_solve_step_solution_invariants():
    model, config, schedule = make_setup(N=5)
    _, sol = solve_step(TrackingProblem(model, config, schedule), lift(model, [0.0, -1.0]), [1.0])
    for j in range(config.N):
        assert np.allclose(
            model.A @ sol.z_bar[j] + model.B @ sol.u_bar[j], sol.z_bar[j + 1], atol=1e-7
        )
        assert np.max(np.abs(sol.u_bar[j])) <= 3.0 + 1e-7
        assert np.max(np.abs(model.C_x @ sol.z_bar[j])) <= 5.0 + 1e-7
    assert np.max(np.abs(sol.z_bar[-1] - sol.target.z_s)) <= 1e-7
    # Steady-pair invariants of the embedded target.
    zs, us = sol.target.z_s, sol.target.u_s
    assert np.max(np.abs(zs - (model.A @ zs + model.B @ us))) <= 1e-7
    assert np.allclose(sol.target.y_s, model.C_y @ zs, atol=1e-9)


def test_solve_step_deterministic():
    model, config, schedule = make_setup(N=4)
    problem = TrackingProblem(model, config, schedule)
    u1, s1 = solve_step(problem, lift(model, [0.0, 0.7]), y_t=[1.5])
    u2, s2 = solve_step(problem, lift(model, [0.0, 0.7]), y_t=[1.5])
    assert np.array_equal(u1, u2)
    assert s1.total_cost == s2.total_cost


def test_total_cost_is_the_per_step_sum(rng):
    model, config, schedule = make_setup(N=5)
    M = rng.normal(size=(3, 3))
    config = KtmpcConfig(N=5, Q=M @ M.T + 0.1 * np.eye(3), R=np.array([[0.7]]),
                         s=config.s, K=config.K)
    _, sol = solve_step(TrackingProblem(model, config, schedule), lift(model, [0.0, -1.0]), [1.0])
    z_s, u_s = sol.target.z_s, sol.target.u_s
    expected = sol.target.offset_cost
    for j in range(config.N):
        dz, du = sol.z_bar[j] - z_s, sol.u_bar[j] - u_s
        expected += dz @ config.Q @ dz + du @ config.R @ du
    assert sol.total_cost == pytest.approx(expected, rel=1e-12)


def test_terminal_equality_needs_decayed_uncontrollable_mode():
    # The first lifted coordinate evolves autonomously (its B row is zero), so
    # the terminal equality z(N) = z_s pins (-0.1)^N x1(0) to zero: with x1 != 0
    # the problem is infeasible until the mode has decayed through the horizon.
    model, config, schedule = make_setup(N=4)
    problem = TrackingProblem(model, config, schedule)
    with pytest.raises(Infeasible):
        solve_step(problem, lift(model, [0.5, 0.0]), y_t=[0.0])
    _, sol = solve_step(problem, np.zeros(3), y_t=[0.0])  # raises unless Optimal
    assert sol.total_cost <= 1e-12


def test_nominal_closed_loop_monotone_cost_and_convergence():
    model, config, schedule = make_setup(N=8)
    x = np.array([0.0, -1.0])
    y_t = [1.0]
    costs, v1s, v2s = [], [], []
    problem = TrackingProblem(model, config, schedule)
    offline = solve_steady(problem, y_t)
    for _ in range(40):
        u_k, sol = solve_step(problem, lift(model, x), y_t)
        d = diagnostics(sol, offline)
        costs.append(sol.total_cost)
        v1s.append(d.V1)
        v2s.append(d.V2)
        x = nominal_step(model, x, u_k)
    assert abs(x[1] - 1.0) <= 1e-3
    for a, b in zip(costs, costs[1:]):
        assert b <= a + 1e-7
    for a, b in zip(v1s[1:], v1s[2:]):
        assert b <= a + 1e-7
    assert all(v >= 0.0 for v in v1s)
    assert all(v >= -1e-7 for v in v2s)
    assert d.J_eq_tilde == pytest.approx(0.0, abs=1e-9)


def test_warm_start_matches_cold_start():
    # The problem a loop keeps, warm from the previous step, solves the next
    # step bit for bit as a cold problem built for it alone.
    model, config, schedule = make_setup(N=6)
    x = np.array([0.0, 0.8])
    problem = TrackingProblem(model, config, schedule)
    u_k, _ = solve_step(problem, lift(model, x), y_t=[2.0])
    z_next = lift(model, nominal_step(model, x, u_k))
    _, warm = solve_step(problem, z_next, y_t=[2.0])
    _, cold = solve_step(TrackingProblem(model, config, schedule), z_next, y_t=[2.0])
    assert warm.total_cost == cold.total_cost
    assert np.array_equal(warm.u_bar, cold.u_bar)


# --- shifted candidate -------------------------------------------------------------------

def test_shifted_candidate_nominal_margins():
    model, config, schedule = make_setup(N=5)
    x = np.array([0.0, -1.0])
    problem = TrackingProblem(model, config, schedule)
    u_k, sol = solve_step(problem, lift(model, x), y_t=[1.0])
    z_next = lift(model, nominal_step(model, x, u_k))
    x_c, margins = shifted_candidate(problem, sol, z_next)
    u_c, z_c, _, _ = problem.layout.split(x_c)
    assert np.array_equal(z_c[0], z_next)
    assert margins.shape == (2 * 5 + 2,)  # one worst margin per inequality block
    assert margins.min() >= -1e-9
    assert np.max(np.abs(z_c[-1] - sol.target.z_s)) <= 1e-9  # the terminal gap
    # With zero disturbance the candidate is exactly the shifted optimum.
    assert np.allclose(u_c[:-1], sol.u_bar[1:], atol=1e-9)
    assert np.allclose(u_c[-1], sol.target.u_s, atol=1e-9)
    assert np.allclose(z_c[0], sol.z_bar[1], atol=1e-9)


def test_shifted_candidate_disturbed_run_stays_feasible(rng):
    W = Zonotope(center=np.zeros(3), generators=np.diag([0.1, 0.1, 0.15]))
    model, config, schedule = make_setup(N=6, W=W)
    # Disturb only the controlled coordinate: the first one is uncontrollable,
    # so exciting it would shrink the exactly-feasible horizon (see the
    # terminal-equality test above).
    x = np.array([0.0, 0.5])
    y_t = [0.8]
    problem = TrackingProblem(model, config, schedule)
    for _ in range(20):
        z = lift(model, x)
        u_k, sol = solve_step(problem, z, y_t)
        w = np.array([0.0, rng.uniform(-0.1, 0.1), 0.0])
        x = model.C_x @ (model.A @ z + model.B @ np.atleast_1d(u_k) + w)
        x_c, margins = shifted_candidate(problem, sol, lift(model, x))
        assert margins.min() >= -1e-9, margins
    # The applied disturbance moves the candidate off the terminal equality.
    assert np.max(np.abs(problem.layout.split(x_c)[1][-1] - sol.target.z_s)) > 0.0


def test_shifted_candidate_detects_excess_disturbance():
    model, config, schedule = make_setup(N=4)
    x = np.array([0.0, 2.8])
    problem = TrackingProblem(model, config, schedule)
    z = lift(model, x)
    u_k, sol = solve_step(problem, z, y_t=[2.8])
    # A process disturbance far beyond the declared (zero) set pushes the
    # successor state outside the tightened initial set.
    x_bad = model.C_x @ (model.A @ z + model.B @ np.atleast_1d(u_k) + np.array([0.0, 3.0, 0.0]))
    _, margins = shifted_candidate(problem, sol, lift(model, x_bad))
    assert margins.min() < -1e-9


# --- diagnostics and the segment inequality ------------------------------------------------

def test_diagnostics_steady_start_zero():
    model, config, schedule = make_setup(N=3)
    problem = TrackingProblem(model, config, schedule)
    offline = solve_steady(problem, [1.0])
    _, sol = solve_step(problem, lift(model, [0.0, 1.0]), [1.0])
    d = diagnostics(sol, offline)
    assert d.V1 == pytest.approx(0.0, abs=1e-9)
    assert d.V2 == pytest.approx(0.0, abs=1e-9)
    assert isinstance(d, LyapunovDiag)


@pytest.mark.parametrize("V2, J_eq_tilde, holds", [
    (-1e-3, 1.0, False),
    (-2e-7, 0.0, False),  # the floor stays -1e-7 when J_eq~ <= 1
    (-0.9e-7, 0.5, True),
    (-3.6e-7, 2.5e4, True),  # rounding of two costs near 2.5e4
    (-3e-3, 2.5e4, False),
])
def test_lyapunov_v2_floor_scales_with_the_offset_cost(V2, J_eq_tilde, holds):
    if holds:
        assert LyapunovDiag(V1=0.0, V2=V2, J_eq_tilde=J_eq_tilde).V2 == V2
    else:
        with pytest.raises(ValueError, match="V2 .* violates its .* lower bound"):
            LyapunovDiag(V1=0.0, V2=V2, J_eq_tilde=J_eq_tilde)


def test_segment_inequality_trivial_endpoints():
    sigmas = np.linspace(0.0, 1.0, 11)
    # y_sr is the constrained-optimal output, y_s* some feasible output that is
    # farther from the target: the inequality must hold along the segment.
    assert segment_inequality_check([2.0], [1.0], [0.0], s=3.0, sigma_samples=sigmas)
    # Reversed roles (y_sr farther than y_s*) must be detected as a violation.
    assert not segment_inequality_check([1.0], [2.0], [0.0], s=3.0, sigma_samples=sigmas)
    # A large weight must not turn solver-tolerance disagreement between the
    # two steady outputs into a violation...
    assert segment_inequality_check(
        [1.861], [1.861 - 5e-10], [2.0], s=1000.0, sigma_samples=sigmas
    )
    # ...while a macroscopic reversal is still caught at the same weight.
    assert not segment_inequality_check(
        [1.861], [1.7], [2.0], s=1000.0, sigma_samples=sigmas
    )


def test_segment_inequality_on_live_controller_data():
    model = benchmark_model()
    K = np.array([[0.0, -2.0, 1.99]])
    X = box_polytope([-5.0, -5.0], [5.0, 5.0])
    U = box_polytope([-50.0], [50.0])
    dist = _Bounds(W=box_zonotope([0.2, 0.2, 0.2]), V=box_zonotope([0.1, 0.1]))
    schedule = tighten_constraints(X, U, dist, model.A, model.B, K, model.C_x, N=4)
    config = KtmpcConfig(N=4, Q=np.eye(3), R=np.eye(1), s=50.0, K=K)
    y_t = [10.0]  # unreachable: optimal steady output is capped by the state box
    problem = TrackingProblem(model, config, schedule)
    offline = solve_steady(problem, y_t)
    x = np.array([0.0, -2.0])
    for _ in range(5):
        u_k, sol = solve_step(problem, lift(model, x), y_t)
        assert segment_inequality_check(
            sol.target.y_s, offline.y_s, y_t, config.s, np.linspace(0, 1, 21)
        )
        x = nominal_step(model, x, u_k)


def test_steady_target_and_report_types():
    model, config, schedule = make_setup(N=3)
    problem = TrackingProblem(model, config, schedule)
    t = solve_steady(problem, [1.0])
    assert (t.z_s.shape, t.u_s.shape, t.y_s.shape) == ((3,), (1,), (1,))
    _, sol = solve_step(problem, lift(model, [0.0, 1.0]), [1.0])
    x_c, margins = shifted_candidate(problem, sol, lift(model, [0.0, 1.0]))
    assert x_c.shape == (problem.layout.dim,)
    assert margins.shape == (problem.block_starts.size,) and margins.dtype == float


def steady_record(cls):
    """A record of ``cls`` as its solver builds it, at an unreachable output."""
    model, config, schedule = make_setup(N=3)
    if cls is SteadyTarget:
        return solve_steady(TrackingProblem(model, config, schedule), [10.0])
    grid = GridSpec(x_values=(np.linspace(-5, 5, 11), np.linspace(-5, 5, 101)),
                    u_values=(np.linspace(-3, 3, 121),), fp_tol=1e-9)
    return solve_steady_nonlinear(_benchmark_plant(), [10.0], config.s, grid)


@pytest.mark.parametrize("cls", [SteadyTarget, NonlinearSteadyTarget])
def test_steady_records_name_every_array_field(cls):
    # The records are plain: each solver hands over arrays and a cost >= 0.
    record = steady_record(cls)
    assert type(record) is cls and not hasattr(cls, "__post_init__")
    for f in dataclasses.fields(cls):
        value = getattr(record, f.name)
        if f.name == "offset_cost":
            assert type(value) is float and value > 0.0
        else:
            assert isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == float
