"""The parametric tracking QP (`TrackingProblem`, a family in theta =
(psi(x_k), y_t)) against its reference assembly (the p = 0 QP of `build_qp`
at theta + `qp.solve`) and against the sparse QP it condenses
(`oracles.sparse_tracking_qp`), the certified halt of the unicycle course,
and the shifted candidate, one product with a precomputed map, against its
step-by-step rollout and its row-read margins against the per-set formula."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmpc import cli, controller, qp as qp_module, sim
from koopmpc.controller import (
    Infeasible,
    TrackingProblem,
    build_qp,
    shifted_candidate,
    solve_steady,
    solve_step,
)
from koopmpc.model import lift
from koopmpc.qp import OPTIMAL, PRIMAL_INFEASIBLE, solve
from koopmpc.sets import TighteningSchedule, margin
from oracles import (
    assert_checks_match_the_dense_check,
    assert_null_basis_and_pinv,
    assert_same_outcome_as_scipys_nnls,
    null_basis_by_pivoted_qr,
    plain_qp,
    shifted_rollout,
    solve_by_both_nnls,
    tracking_cost,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
NAMES = ("a2", "unicycle_square")


@pytest.fixture(scope="module")
def stacks():
    return {name: cli.build_stack(SCENARIOS / f"{name}.json") for name in NAMES}


def fresh(stack, **changes):
    """A copy of ``stack`` (with ``changes``) whose problem is not built yet;
    the shared ``stacks`` have built theirs in an earlier test."""
    return dataclasses.replace(stack, **changes)


@pytest.fixture(scope="module")
def problems(stacks):
    """One problem per model, reused across examples as the closed loop reuses it."""
    return {name: TrackingProblem(s.model, s.config, s.schedule) for name, s in stacks.items()}


@pytest.fixture(scope="module")
def logs(stacks):
    return {name: s.run(s.seed) for name, s in stacks.items()}


@pytest.fixture(scope="module")
def course(stacks, logs):
    return stacks["unicycle_square"], logs["unicycle_square"]


unit = st.floats(0.0, 1.0)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=30, deadline=None)
@given(near=st.booleans(), where=unit, ux=st.tuples(unit, unit, unit),
       uy=st.tuples(unit, unit, unit))
def test_tracking_problem_matches_build_qp(stacks, problems, logs, name, near, where, ux, uy):
    # States near the closed-loop run mostly give feasible QPs; states drawn
    # from the whole box mostly give infeasible ones.
    stack, log = stacks[name], logs[name]
    box = stack.sc["constraints"]["state"]
    lo, hi = np.array(box["lo"]), np.array(box["hi"])
    n = lo.size
    u = np.array(ux[:n])
    if near:
        x_k = log.x[int(where * (log.k.size - 1))] + 0.05 * (u - 0.5) * (hi - lo)
    else:
        x_k = lo + u * (hi - lo)
    y_t = stack.plant.C @ (lo + np.array(uy[:n]) * (hi - lo))
    theta = np.concatenate([lift(stack.model, x_k), y_t])
    ref = solve(plain_qp(build_qp(stack.model, stack.config, stack.schedule), theta))
    got = solve(problems[name].qp, theta)
    assert got.status == ref.status
    if ref.status == OPTIMAL:
        assert np.allclose(got.x_star, ref.x_star, rtol=0.0, atol=1e-8)
        assert got.objective == pytest.approx(ref.objective, rel=1e-8, abs=1e-8)


def test_a_stored_support_that_breaks_a_row_is_refused(stacks):
    # At y_t = 3.75 the cost term -2 s y_t sets the a2 QP's scale, so a primal
    # bound of 1e-8 of that scale would take the stored support {65} alone,
    # with u(9) below its U~(9) bound (row 19) by 1.5e-5. Each row is checked
    # against max(1, |b_in|) of its own instead: the warm solve refuses that
    # support and gives the cold solve's result, bit for bit.
    stack = stacks["a2"]
    problem = TrackingProblem(stack.model, stack.config, stack.schedule)
    theta = np.concatenate([lift(stack.model, [1.19127926, 3.75]), [3.75]])
    qp = problem.qp
    qp._support = qp_module._support(qp, qp.factors, np.array([65]))
    warm = solve(qp, theta)
    cold = solve(build_qp(stack.model, stack.config, stack.schedule), theta)
    assert warm.active_set == cold.active_set == (19, 65)
    assert np.array_equal(warm.x_star, cold.x_star)
    assert warm.kkt_residuals == cold.kkt_residuals
    assert np.max(qp.A_in @ warm.x_star - qp.b_in) <= 1e-9


def test_unicycle_warm_and_cold_solves_agree_along_the_course(course):
    # The loop's problem, warm from every earlier step, against a cold one
    # built for each step: the same inputs as the log, and the same halt.
    stack, log = course
    assert log.halted_at == 29
    model, config, schedule = stack.model, stack.config, stack.schedule
    problem = TrackingProblem(model, config, schedule)
    for k in range(log.halted_at):
        z_k = lift(model, log.x[k])
        u_k, warm = solve_step(problem, z_k, log.y_t[k])
        _, cold = solve_step(TrackingProblem(model, config, schedule), z_k, log.y_t[k])
        for a, b in [(warm.u_bar, cold.u_bar), (warm.z_bar, cold.z_bar),
                     (warm.target.z_s, cold.target.z_s), (warm.target.u_s, cold.target.u_s)]:
            assert np.allclose(a, b, rtol=0.0, atol=1e-8), k
        assert np.array_equal(u_k, log.u[k])
    k = log.halted_at
    for fresh in (problem, TrackingProblem(model, config, schedule)):
        with pytest.raises(Infeasible):
            solve_step(fresh, lift(model, log.x[k]), log.y_t[k])


def test_unicycle_course_halt_is_certified_without_highs(course, problems, monkeypatch,
                                                         farkas_vectors):
    # No HiGHS call anywhere in the loop: every QP, the offline steady target
    # included, is solved in its least-distance form. The step-29 halt is
    # certified by the one vector that passes the solver's Farkas check, and
    # that vector passes the full-space check here from scratch.
    stack, _ = course
    solves = []
    solve_qp = qp_module.solve

    def refused(*args, **kwargs):
        raise AssertionError("HiGHS was called in the closed loop")

    def recorded_solve(qp, theta=()):
        solves.append((qp, theta, solve_qp(qp, theta)))
        return solves[-1][2]

    # sets._empty_rows imports linprog where it runs: the package's one HiGHS call
    monkeypatch.setattr(scipy.optimize, "linprog", refused)
    monkeypatch.setattr(qp_module, "solve", recorded_solve)
    log = stack.run(stack.seed)
    assert log.halted_at == 29
    statuses = [sol.status for _, _, sol in solves]
    assert statuses == [OPTIMAL] * (len(solves) - 1) + [PRIMAL_INFEASIBLE]
    qp, (u,) = plain_qp(*solves[-1][:2]), farkas_vectors
    assert qp.dim == problems["unicycle_square"].qp.dim
    mu = -np.linalg.pinv(qp.A_eq).T @ (qp.A_in.T @ u)
    assert np.min(u) >= 0.0
    assert np.max(np.abs(qp.A_in.T @ u + qp.A_eq.T @ mu)) <= 1e-9
    assert qp.b_in @ u + qp.b_eq @ mu < -0.5


def test_unicycle_halt_ends_nnls_on_a_zero_residual_of_n_plus_1_columns(course, monkeypatch):
    # At the step-29 halt NNLS, warm from the loop's stored support or cold,
    # ends with n + 1 = 38 passive columns: E_P is square, the residual is
    # zero and the weights are a Farkas vector, which passes qp._farkas.
    stack, log = course
    model, config, schedule = stack.model, stack.config, stack.schedule
    problem, runs, nnls = TrackingProblem(model, config, schedule), [], qp_module._nnls
    monkeypatch.setattr(qp_module, "_nnls", lambda *args: runs.append(nnls(*args)) or runs[-1])
    thetas = [np.concatenate([lift(model, log.x[k]), log.y_t[k]])
              for k in range(log.halted_at + 1)]
    for theta in thetas:
        warm = solve(problem.qp, theta)
    warm_run, cold_qp = runs[-1], build_qp(model, config, schedule)
    cold = solve(cold_qp, thetas[-1])
    for qp, sol, (P, _, zero) in ((problem.qp, warm, warm_run), (cold_qp, cold, runs[-1])):
        assert zero and P.size == qp.factors.Y.shape[1] + 1 == 38
        assert sol.status == PRIMAL_INFEASIBLE
        b_eq = qp.factors.QB[qp.dim :] @ np.append(thetas[-1], 1.0)
        assert qp_module._farkas(qp, qp.factors, sol.in_multipliers, b_eq) is not None


# --- the stored support: each solve tries the support of the QP's last Optimal one ---

def assert_same_result(got, want):
    """Every field of two QpSolutions agrees bit for bit (NaN equal to NaN),
    the multipliers included."""
    assert got.status == want.status and got.active_set == want.active_set
    assert np.array_equal(got.x_star, want.x_star, equal_nan=True)
    assert np.array_equal(got.objective, want.objective, equal_nan=True)
    assert got.kkt_residuals == want.kkt_residuals
    for a, b in [(got.in_multipliers, want.in_multipliers),
                 (got.eq_multipliers, want.eq_multipliers)]:
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("name", ("a1",) + NAMES)
def test_stored_support_solves_equal_cold_solves_bit_for_bit(stacks, logs, name):
    # The loop's problem tries the support of its last Optimal solve first; a
    # QP built cold for each step starts from no row and reaches the same
    # support through nnls. Both end in the same support solve, so every step
    # agrees bit for bit in every field of its result, the unicycle's halt
    # included.
    stack = stacks.get(name) or cli.build_stack(SCENARIOS / f"{name}.json")
    log = logs[name] if name in logs else stack.run(stack.seed)
    model, config, schedule = stack.model, stack.config, stack.schedule
    problem = TrackingProblem(model, config, schedule)
    for k in range(log.k.size):
        theta = np.concatenate([lift(model, log.x[k]), log.y_t[k]])
        warm = solve(problem.qp, theta)
        cold = solve(build_qp(model, config, schedule), theta)
        assert warm.status == (PRIMAL_INFEASIBLE if k == log.halted_at else OPTIMAL), k
        # The halt's Farkas pair is NNLS's weights from runs started on other
        # columns (the stored support's rows, and the rows x_0 breaks), which
        # end on the same rows; the weights are refactored in row order, so
        # they agree bit for bit too.
        assert_same_result(warm, cold)


def test_a_result_read_after_later_solves_is_the_one_its_solve_made(stacks, logs):
    # A hit's multipliers and KKT residuals are formed on first read. Read
    # after two more solves of the same QP at other theta (hits on the same
    # support), they are those of a twin problem whose result was read at once.
    stack, log = stacks["a2"], logs["a2"]
    late, twin = (TrackingProblem(stack.model, stack.config, stack.schedule) for _ in range(2))
    thetas = [np.concatenate([lift(stack.model, x), y_t]) for x, y_t in zip(log.x, log.y_t)]
    for theta in thetas[:250]:
        solve(late.qp, theta)
        solve(twin.qp, theta)
    read = solve(late.qp, thetas[250])
    want = solve(twin.qp, thetas[250])
    assert_same_result(want, want)  # forms every field of the twin's result now
    for theta in thetas[251:253]:
        assert solve(late.qp, theta).active_set == read.active_set
    assert len(read.active_set) > 0
    assert_same_result(read, want)


@pytest.mark.parametrize("name, seeds", [("a1", range(5)), ("a2", range(5)),
                                         ("unicycle_square", [None])])
def test_theta_solves_match_the_p0_qp_along_the_closed_loop(stacks, monkeypatch, name, seeds):
    # Every solve the loop makes on its problem's families, warm from the
    # earlier steps and seeds, against a plain (p = 0) QP assembled at the
    # same theta = (psi(x_k), y_t) (or y_t for the steady QP) and solved cold:
    # the same status and active set, x within 1e-9 of max(1, |x|), and at
    # the unicycle's step-29 halt a Farkas pair that passes the check from
    # scratch on both sides.
    stack = fresh(stacks[name]) if name in stacks else cli.build_stack(SCENARIOS / f"{name}.json")
    solve_qp, halts = qp_module.solve, []

    def compared(program, theta=()):
        got = solve_qp(program, theta)
        plain = plain_qp(program, theta)
        ref = solve_qp(plain)
        assert got.status == ref.status and got.active_set == ref.active_set
        if got.status == OPTIMAL:
            scale = max(1.0, float(np.max(np.abs(ref.x_star))))
            assert np.max(np.abs(got.x_star - ref.x_star)) <= 1e-9 * scale
        else:
            for sol in (got, ref):
                u, mu = sol.in_multipliers, sol.eq_multipliers
                a = plain.A_in.T @ u + plain.A_eq.T @ mu
                assert np.min(u) >= 0.0
                assert np.max(np.abs(a)) <= 1e-9 * max(1.0, float(np.max(np.abs(plain.A_in).T @ u)))
                assert plain.b_in @ u + plain.b_eq @ mu < 0.0
            halts.append(program.dim)
        return got

    monkeypatch.setattr(qp_module, "solve", compared)
    for seed in seeds:
        log = stack.run(stack.seed if seed is None else seed)
        assert log.halted_at == (29 if name == "unicycle_square" else None)
    assert halts == ([stack.problem.qp.dim] if name == "unicycle_square" else [])


@pytest.mark.parametrize("name, seeds", [("a1", range(5)), ("a2", range(5)),
                                         ("unicycle_square", [None])])
def test_stored_support_checks_match_the_dense_check_along_the_closed_loop(stacks, monkeypatch,
                                                                           name, seeds):
    # Each solve first tries the support its QP stored (no row at first) and
    # judges it from that support's residual map R_S at [theta; 1]. Along the
    # closed loop, every such check reaches the dense check's verdict at the
    # same theta, with residuals within 1e-12 of the size of their terms.
    stack = fresh(stacks[name]) if name in stacks else cli.build_stack(SCENARIOS / f"{name}.json")
    check, calls = qp_module._checked, []

    def recorded(qp, f, S, *args):
        sol = check(qp, f, S, *args)
        if S is (qp._support or f.empty):
            calls.append(((qp, f, S, *args), sol))
        return sol

    monkeypatch.setattr(qp_module, "_checked", recorded)
    for seed in seeds:
        stack.run(stack.seed if seed is None else seed)
    assert_checks_match_the_dense_check(calls)
    # Most steps are hits: 1503 of 1503 checks on a1 (all on no row), 1492
    # of 1498 on a2 and 27 of 31 on the unicycle course.
    assert sum(sol is not None for _, sol in calls) > 0.8 * len(calls)


def test_each_stored_support_map_is_built_once(course, monkeypatch):
    # A map is built (one _support) only for the final support of a solve that
    # ran NNLS and did not end on a zero residual; every other solve of the
    # course takes a stored map. So a fresh course builds a map for each miss
    # but the certified halt, 3 on the first course and 2 on each later one,
    # while it runs NNLS 4 and 3 times (see the test below).
    stack, counts = fresh(course[0]), {}

    def counted(key, call):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qp_module, "_support", counted("support", qp_module._support))
    monkeypatch.setattr(qp_module, "_nnls", counted("nnls", qp_module._nnls))
    for expected in ({"support": 3, "nnls": 4}, {"support": 2, "nnls": 3}):
        counts.update(support=0, nnls=0)
        assert stack.run(stack.seed).halted_at == 29
        assert counts == expected


@pytest.mark.parametrize("name, seeds, expected", [("a2", range(5), 11),
                                                    ("unicycle_square", [None], 4)])
def test_own_nnls_gives_scipys_result_along_the_closed_loop(
        stacks, monkeypatch, name, seeds, expected):
    # Every solve of the loop (the steady targets' too) is also made from the
    # support the QP holds with scipy's NNLS on every free column from zero.
    # The two agree: the same status, and for an optimum the same active set
    # and bits of x, so the loop runs on as it would have. ``expected``
    # counts the misses.
    stack, solve_, misses = fresh(stacks[name]), qp_module.solve, []

    def both(qp, theta=()):
        want, got, n = solve_by_both_nnls(solve_, qp, theta)
        assert_same_outcome_as_scipys_nnls(qp, theta, want, got)
        misses.append(n)
        if isinstance(got, Exception):
            raise got
        return got

    monkeypatch.setattr(qp_module, "solve", both)
    for seed in seeds:
        log = stack.run(stack.seed if seed is None else seed)
        assert log.halted_at == (29 if name == "unicycle_square" else None)
    assert sum(misses) == expected


@pytest.mark.parametrize("name, rank", [("a2", 7), ("unicycle_square", 15)])
def test_null_basis_and_pinv_of_the_tracking_equalities(stacks, name, rank):
    # The condensed A_eq has 3 n_z rows: z(0), the steady pair and z(N) = z_s.
    # a2's has rank 7 of its 9 rows (its first lifted coordinate, and its
    # square, are uncontrollable), which the SVD finds as the pivoted QR
    # reference does; the unicycle's 15 rows are independent.
    stack = stacks[name]
    A_eq = build_qp(stack.model, stack.config, stack.schedule).A_eq
    assert A_eq.shape[0] == 3 * stack.model.n_z
    assert np.linalg.matrix_rank(A_eq) == rank
    assert_null_basis_and_pinv(A_eq)
    assert null_basis_by_pivoted_qr(A_eq)[0].shape == qp_module._null_basis(A_eq)[0].shape


def test_a2_inconsistent_equalities_are_certified_by_the_least_squares_residual(stacks, logs):
    # a2's A_eq has rank 7 of its 9 rows. One more parameter, along a left
    # null vector of A_eq, makes the equalities inconsistent at 1 and leaves
    # them alone at 0: the first is certified by the residual of x_p, with no
    # multipliers, and the second solves as the loop's family does.
    stack, log = stacks["a2"], logs["a2"]
    family = build_qp(stack.model, stack.config, stack.schedule)
    assert family.A_eq.shape[0] == 9 and np.linalg.matrix_rank(family.A_eq) == 7
    left = np.linalg.svd(family.A_eq)[0][:, -1:]
    qp = dataclasses.replace(family, F_q=np.hstack([family.F_q, np.zeros((family.dim, 1))]),
                             F_eq=np.hstack([family.F_eq, left]))
    theta = np.concatenate([lift(stack.model, log.x[0]), log.y_t[0]])
    consistent = solve(qp, np.append(theta, 0.0))
    assert consistent.status == OPTIMAL
    assert np.allclose(consistent.x_star, solve(family, theta).x_star, rtol=0.0, atol=1e-12)
    inconsistent = solve(qp, np.append(theta, 1.0))
    assert inconsistent.status == PRIMAL_INFEASIBLE
    assert inconsistent.in_multipliers is None and inconsistent.eq_multipliers is None
    b_eq = plain_qp(qp, np.append(theta, 1.0)).b_eq
    x_p = np.linalg.lstsq(family.A_eq, b_eq, rcond=None)[0]
    assert np.max(np.abs(family.A_eq @ x_p - b_eq)) > 0.5
    # Solved before any support is stored, the inconsistent equalities get the
    # same verdict from the factors' head, and the QP stores nothing.
    first = dataclasses.replace(qp)
    inconsistent = solve(first, np.append(theta, 1.0))
    assert inconsistent.status == PRIMAL_INFEASIBLE and first._support is None
    assert inconsistent.in_multipliers is None and inconsistent.eq_multipliers is None
    assert np.array_equal(solve(first, np.append(theta, 0.0)).x_star, consistent.x_star)


@pytest.mark.parametrize("later", ["same theta", "next step's theta"])
def test_a_support_stored_without_a_map_gives_the_cold_result(stacks, logs, monkeypatch, later):
    # A support whose Gram matrix Cholesky refuses is stored without a map, with
    # the result of NNLS's own weights. The next solve takes [q; b_eq] and the
    # residual of the equalities from the factors' head, runs NNLS from that
    # support's rows and gives the cold result, bit for bit.
    stack, log = stacks["a2"], logs["a2"]
    model, config, schedule = stack.model, stack.config, stack.schedule
    probe = TrackingProblem(model, config, schedule).qp
    thetas = [np.concatenate([lift(model, log.x[k]), log.y_t[k]]) for k in range(log.k.size)]
    k = next(k for k, theta in enumerate(thetas) if solve(probe, theta).active_set)
    qp = build_qp(model, config, schedule)
    qp.factors  # factored before the Cholesky of every support's Gram matrix fails

    def refused(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", refused)
        first = solve(qp, thetas[k])
    assert first.status == OPTIMAL and first.active_set
    assert qp._support.M is None and qp._support.rows.tolist() == list(first.active_set)
    theta = thetas[k] if later == "same theta" else thetas[k + 1]
    got, cold = solve(qp, theta), solve(build_qp(model, config, schedule), theta)
    assert got.status == cold.status == OPTIMAL and got.active_set == cold.active_set
    assert np.array_equal(got.x_star, cold.x_star) and qp._support.M is not None


@pytest.mark.parametrize("valid_first", [False, True])
def test_solve_steady_checks_y_t_before_its_stored_targets(stacks, valid_first):
    # A y_t of the wrong shape is refused whether or not the same bytes were
    # stored for a valid one.
    stack = stacks["a2"]
    problem = TrackingProblem(stack.model, stack.config, stack.schedule)
    if valid_first:
        solve_steady(problem, [1.0])
    with pytest.raises(ValueError, match=re.escape("y_t must have shape (1,), got (1, 1)")):
        solve_steady(problem, [[1.0]])
    assert len(problem.steady_targets) == valid_first


def _old_vector(v, n: int, message: str) -> np.ndarray:
    """The conversion the entry points made of every vector before they took a
    float64 (n,) ndarray as it is: a float array, at least 1-D, shape-checked."""
    out = np.atleast_1d(np.asarray(v, dtype=float))
    if out.shape != (n,):
        raise ValueError(message.format(out.shape))
    return out


def _old_point(v, n: int) -> np.ndarray:
    """sets.margin's conversion, which ravels, with its check of the size."""
    out = np.asarray(v, dtype=float).ravel()
    if out.size != n:
        raise ValueError(f"point of dimension {out.size} for a set of dimension {n}")
    return out


def _vector_cases(base: np.ndarray) -> dict:
    """Ways to pass the float vector ``base``."""
    view = np.repeat(base, 2)[::2]
    view.flags.writeable = False
    return {"list": base.tolist(), "tuple": tuple(base.tolist()), "int array": base.astype(int),
            "float32 array": base.astype(np.float32), "0-d array": np.array(base[0]),
            "2-D array": base[None, :], "wrong length": np.append(base, 1.0),
            "read-only view": view}


@pytest.mark.parametrize("case", list(_vector_cases(np.ones(1))))
@pytest.mark.parametrize("target", ["lift x", "solve_step z_k", "solve_step y_t",
                                    "shifted_candidate z_next", "step_plant x", "step_plant u",
                                    "margin x", "solve_steady y_t"])
def test_a_vector_argument_is_taken_as_the_old_conversion_took_it(stacks, target, case):
    # A float64 ndarray of the right shape is taken as it is and anything else
    # is converted as before: each input gives the bits (and dtypes) of its
    # old conversion, or that conversion's ValueError. None of the values is
    # a float32, so an array taken as it is in float32 would round otherwise.
    stack = stacks["a2"]
    model, plant, X0 = stack.model, stack.plant, stack.schedule.state_sets[0]
    x, u, y_t = np.array([1.1, 0.3]), np.array([0.7]), np.array([1.1])
    z = lift(model, x)

    def problem():
        return TrackingProblem(model, stack.config, stack.schedule)

    def step(out):
        return out[0], out[1].x_star, out[1].total_cost

    prev = solve_step(problem(), z, y_t)[1]
    shape = "{} must have shape ({},), got {{}}"
    targets = {
        "lift x": (x, lambda v: (lift(model, v),), "state must have shape (2,), got {}"),
        "solve_step z_k": (z, lambda v: step(solve_step(problem(), v, y_t)), shape.format("z_k", 3)),
        "solve_step y_t": (y_t, lambda v: step(solve_step(problem(), z, v)), shape.format("y_t", 1)),
        "shifted_candidate z_next": (z, lambda v: (shifted_candidate(problem(), prev, v),),
                                     shape.format("z_next", 3)),
        "step_plant x": (x, lambda v: sim.step_plant(plant, v, u), shape.format("x", 2)),
        "step_plant u": (u, lambda v: sim.step_plant(plant, x, v), shape.format("u", 1)),
        "margin x": (x, lambda v: (margin(X0, v),), None),
        "solve_steady y_t": (y_t, lambda v: dataclasses.astuple(solve_steady(problem(), v)),
                             shape.format("y_t", 1)),
    }
    base, call, message = targets[target]
    v = _vector_cases(base)[case]
    try:
        want = _old_point(v, 2) if message is None else _old_vector(v, base.size, message)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            call(v)
        return
    for got, expected in zip(call(v), call(want), strict=True):
        got, expected = np.asarray(got), np.asarray(expected)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", NAMES)
def test_a_stale_or_foreign_support_gives_the_cold_result(stacks, logs, name):
    # Whatever support the QP holds, it is taken only where its solution
    # passes the check of an optimum; otherwise nnls runs. So every row, the
    # support at another reference, and the support held when the loop stops
    # (the unicycle's step-29 halt keeps that of step 28) each give the cold
    # solve's status and x.
    stack, log = stacks[name], logs[name]
    model, config, schedule = stack.model, stack.config, stack.schedule
    problem = TrackingProblem(model, config, schedule)
    qp = problem.qp
    thetas = [np.concatenate([lift(model, log.x[k]), log.y_t[k]]) for k in range(log.k.size)]
    for theta in thetas:
        last = solve(qp, theta)
        if last.status == OPTIMAL:
            held = last.active_set
    assert (last.status == PRIMAL_INFEASIBLE) == (name == "unicycle_square")
    corner = np.array(stack.sc["constraints"]["state"]["lo"])
    elsewhere = solve(qp, np.concatenate([lift(model, log.x[0]), stack.plant.C @ corner]))
    assert elsewhere.status == OPTIMAL and elsewhere.active_set != held
    supports = {"every row": range(qp.A_in.shape[0]), "another y_t": elsewhere.active_set,
                "held at the end": held}
    steps = sorted({*range(0, log.k.size, max(1, log.k.size // 30)), log.k.size - 1})
    for k in steps:
        cold = solve(build_qp(model, config, schedule), thetas[k])
        for label, rows in supports.items():
            qp._support = qp_module._support(qp, qp.factors, np.array(rows, dtype=np.intp))
            got = solve(qp, thetas[k])
            assert got.status == cold.status, (label, k)
            assert np.array_equal(got.x_star, cold.x_star, equal_nan=True), (label, k)


def test_unicycle_course_nnls_runs_take_38_then_31_least_squares_solves(course, monkeypatch):
    # The offline steady target is taken at its unconstrained optimum; NNLS
    # runs for the cold first step, at steps 3 and 23, whose supports change,
    # and for the certified halt. Each run starts from the rows x_0 breaks,
    # whatever support is stored; the first factorization of those rows is
    # one least-squares solve, and each column that enters or leaves after
    # it is one more.
    # - Step 0: 19 rows; one leaves before any enters, then 3 enter and 2
    #   leave, ending on 19 rows: 7 solves.
    # - Step 3: 18 rows, and one enters: 2.
    # - Step 23: 18 rows; 3 enter and 2 leave, ending on 19 rows: 6.
    # - Step 29: 19 rows; one enters and one leaves, then 19 enter until 38
    #   (n + 1) columns give a zero residual: 22, and one more for the
    #   Farkas vector's weights in row order, 23.
    # A later course on the same stack reuses the steady target, and its
    # step 0 takes the support that steps 23-28 stored (steps 0-2 have the
    # same one), so it makes 30 solves, 3 misses and 2 + 6 + 23 = 31
    # least-squares solves, exactly, every time. Each least-squares solve
    # ends in one triangular solve (dtrtrs).
    from scipy.linalg import lapack

    stack, counts = fresh(course[0]), {}

    def counted(key, call):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qp_module, "solve", counted("solve", qp_module.solve))
    monkeypatch.setattr(qp_module, "_nnls", counted("miss", qp_module._nnls))
    monkeypatch.setattr(lapack, "dtrtrs", counted("least_squares", lapack.dtrtrs))
    for expected in ({"solve": 31, "miss": 4, "least_squares": 38},
                     {"solve": 30, "miss": 3, "least_squares": 31},
                     {"solve": 30, "miss": 3, "least_squares": 31}):
        counts.update(solve=0, miss=0, least_squares=0)
        assert stack.run(stack.seed).halted_at == 29
        assert counts == expected


@pytest.mark.parametrize("name, seeds", [("a2", range(5)), ("unicycle_square", [None])])
def test_logged_cost_is_the_summed_tracking_cost_plus_the_offset(stacks, monkeypatch, name, seeds):
    # J_N is the QP's objective plus s |y_t|^2. Summed term by term it agrees
    # to rounding: within 1e-12 of max(1, |J_N|) (at most 6.5e-13 on a1 and a2's
    # runs). The unicycle's course halts, so its last row has no cost.
    stack, step, sums = stacks[name], sim.solve_step, []

    def summed(problem, z, y_t):
        u, sol = step(problem, z, y_t)
        t = sol.target
        sums.append(tracking_cost(problem.config, sol.u_bar, sol.z_bar, t.z_s, t.u_s) + t.offset_cost)
        return u, sol

    monkeypatch.setattr(sim, "solve_step", summed)
    for seed in seeds:
        sums.clear()
        log = stack.run(stack.seed if seed is None else seed)
        J_N, expected = log.J_N[log.feasible], np.array(sums)
        assert J_N.size == expected.size > 0
        assert np.all(np.abs(J_N - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def test_closed_loop_assembles_the_qp_once(stacks, monkeypatch):
    calls = []
    assemble = controller.build_qp

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(controller, "build_qp", counted)
    stack = fresh(stacks["a2"], T=20)
    for seed in range(3):
        assert stack.run(seed).k.size == 20
        assert len(calls) == 1


@pytest.mark.parametrize("name", NAMES)
def test_a_closed_loop_step_runs_the_feedback_path_and_the_logged_values_are_formed_once(
        stacks, monkeypatch, name):
    # A step lifts its state once, for the candidate and the QP alike, takes
    # the candidate's slack once (none at step 0) and makes one solve_step
    # call; the steady target is looked up once per reference (a2 steps its
    # reference twice, the course halts before its first waypoint). The noise
    # points are one stacked call per set before step 0, and the logged
    # margins, V1/V2 and the steps' targets are formed once, after the last
    # step: no step writes y_s or u_s, and no step's KtmpcSolution forms its
    # target or total cost in the run. The controller itself neither lifts
    # nor calls sets.margin.
    assert not any(v is f for v in vars(controller).values() for f in (lift, margin))
    names = ("lift", "_candidate_slack", "solve_step", "solve_steady", "point", "margin",
             "diagnostics", "_finished")
    calls, order, solutions = {attr: [] for attr in names}, [], []
    for attr in names:
        def counted(*args, _attr=attr, _original=getattr(sim, attr)):
            calls[_attr].append(args)
            order.append(_attr)
            if _attr == "_finished":  # args[0] is the log, as the steps left it
                assert np.isnan(args[0].y_s).all() and np.isnan(args[0].u_s).all()
                assert not any({"target", "total_cost"} & set(vars(sol)) for sol in solutions)
            out = _original(*args)
            if _attr == "solve_step":
                solutions.append(out[1])
            return out

        monkeypatch.setattr(sim, attr, counted)
    allocate = sim._allocate

    def allocated(*args):
        log = allocate(*args)
        log.y_s[:] = log.u_s[:] = np.nan  # a step that wrote them would show
        return log

    monkeypatch.setattr(sim, "_allocate", allocated)
    stack = stacks[name]
    log = stack.run(stack.seed)
    assert log.halted_at == (None if name == "a2" else 29)
    steps, feasible = log.k.size, log.feasible.sum()
    assert len(calls["lift"]) == len(calls["solve_step"]) == steps
    assert len(calls["_candidate_slack"]) == steps - 1
    assert len(calls["_finished"]) == 1  # after the last step: only its own calls follow it
    assert sorted(order[order.index("_finished") + 1 :]) == ["diagnostics", "margin", "margin"]
    assert [args[1].tolist() for args in calls["solve_steady"]] == (
        [[1.0], [-1.0], [2.0]] if name == "a2" else [log.y_t[0].tolist()])
    assert [args[1].shape for args in calls["point"]] == (
        [(steps, 3), (steps, 2)] if name == "a2" else [])
    assert [args[1].shape for args in calls["margin"]] == [
        (steps, stack.plant.n_x), (steps - (log.halted_at is not None), stack.plant.n_u)]
    assert [args[0].shape for args in calls["diagnostics"]] == [(feasible,)]
    # Nothing read a target or a total cost until now; read here, they are
    # what the run logged, bit for bit.
    assert len(solutions) == feasible
    assert not any({"target", "total_cost"} & set(vars(sol)) for sol in solutions)
    for column, values in ((log.y_s, [sol.target.y_s for sol in solutions]),
                           (log.u_s, [sol.target.u_s for sol in solutions]),
                           (log.J_N, [sol.total_cost for sol in solutions])):
        assert column[:feasible].tobytes() == np.array(values).tobytes()


@pytest.mark.parametrize("name", NAMES)
def test_closed_loop_builds_the_candidate_map_once(stacks, monkeypatch, name):
    # The candidate map is built with the stack's TrackingProblem, by its
    # first run, and never by the candidate's slack, which only multiplies by it.
    builds, in_candidate, slacks = [], [False], []
    build, slack = controller._candidate_map, sim._candidate_slack

    def counted_build(*args):
        builds.append(in_candidate[0])
        return build(*args)

    def watched_slack(*args):
        in_candidate[0] = True
        slacks.append(1)
        try:
            return slack(*args)
        finally:
            in_candidate[0] = False

    monkeypatch.setattr(controller, "_candidate_map", counted_build)
    monkeypatch.setattr(sim, "_candidate_slack", watched_slack)
    stack = fresh(stacks[name])
    for _ in range(2):
        log = stack.run(stack.seed)
        assert log.halted_at == (None if name == "a2" else 29)
        assert builds == [False]
    assert len(slacks) == 2 * (log.k.size - 1)


@pytest.mark.parametrize("name", ["a1", *NAMES])
def test_a_solutions_target_and_total_cost_are_formed_on_first_read_as_the_eager_forms(
        monkeypatch, name):
    # solve_step returns u_k and x*; its KtmpcSolution forms the artificial
    # target and J_N only when read, and bit for bit as a step formed them
    # before: y_s = C_y z_s, offset s ||y_s - y_t||^2 and J_N = objective +
    # s ||y_t||^2. A second read returns the object the first one made.
    stack, step, solutions = cli.build_stack(SCENARIOS / f"{name}.json"), sim.solve_step, []

    def recorded(*args):
        out = step(*args)
        solutions.append(out[1])
        return out

    monkeypatch.setattr(sim, "solve_step", recorded)
    stack.run(stack.seed)
    model, s, lay = stack.model, stack.config.s, stack.problem.layout
    assert len(solutions) > 20
    for sol in solutions:
        x, y_t = sol.x_star, sol.y_t
        z_s, u_s = x[lay.z_s], x[lay.u_s]
        y_s = model.C_y @ z_s
        e = y_s - y_t
        eager = (z_s, u_s, y_s, s * float(e @ e), sol.objective + s * float(y_t @ y_t))
        lazy = (sol.target.z_s, sol.target.u_s, sol.target.y_s, sol.target.offset_cost,
                sol.total_cost)
        for a, b in zip(lazy, eager):
            assert np.shape(a) == np.shape(b) and np.array(a).tobytes() == np.array(b).tobytes()
        assert sol.target is sol.target and sol.total_cost is sol.total_cost


def pushed_out_of_initial_set(stack, log, face, by, k=0):
    """State k of the closed loop moved across ``face`` of X~(0) by ``by``."""
    X0 = stack.schedule.state_sets[0]
    a, b = X0.normals[face], X0.offsets[face]
    x = log.x[k] + (b + by - a @ log.x[k]) / (a @ a) * a
    assert a @ x - b == pytest.approx(by, rel=1e-6)
    return x


@pytest.mark.parametrize("by", [1e-6, 1.0])
@pytest.mark.parametrize("name", NAMES)
def test_a_state_outside_the_initial_set_is_certified_by_the_qp(
        stacks, problems, logs, monkeypatch, farkas_vectors, name, by):
    # x(0) in X~(0) is a block of the QP's rows, so a state across any face
    # makes the QP infeasible, certified by the vector that passes the
    # solver's Farkas check, checked here again from scratch; the solver
    # never fails on it.
    stack, log = stacks[name], logs[name]
    solve_qp = qp_module.solve
    solves = []

    def recorded_solve(qp, theta=()):
        solves.append((plain_qp(qp, theta), solve_qp(qp, theta)))
        return solves[-1][1]

    monkeypatch.setattr(qp_module, "solve", recorded_solve)
    family = build_qp(stack.model, stack.config, stack.schedule)
    for face in range(stack.schedule.state_sets[0].offsets.size):
        solves.clear()
        farkas_vectors.clear()
        z = lift(stack.model, pushed_out_of_initial_set(stack, log, face, by))
        with pytest.raises(Infeasible):
            solve_step(problems[name], z, log.y_t[0])
        # The reference assembly agrees: build_qp at theta + qp.solve.
        qp_module.solve(plain_qp(family, np.concatenate([z, log.y_t[0]])))
        assert [sol.status for _, sol in solves] == [PRIMAL_INFEASIBLE] * 2
        assert len(farkas_vectors) == 2
        for (qp, _), u in zip(solves, farkas_vectors):
            mu = -np.linalg.pinv(qp.A_eq).T @ (qp.A_in.T @ u)
            scale = max(1.0, float(np.max(np.abs(qp.A_in).T @ u)))
            assert np.min(u) >= 0.0
            assert np.max(np.abs(qp.A_in.T @ u + qp.A_eq.T @ mu)) <= 1e-9 * scale
            assert qp.b_in @ u + qp.b_eq @ mu < -0.5


@pytest.mark.parametrize("k, face", [(10, 0), (10, 4), (20, 0)])
def test_a_state_on_a_face_of_the_initial_set_is_solved(stacks, problems, logs, k, face):
    # On a face, the X~(0) row that z(0) = psi(x) pins is met to rounding. The
    # solver keeps the pinned rows out of NNLS, so these steps are solved and
    # checked like any other, warm and cold alike.
    stack, log = stacks["unicycle_square"], logs["unicycle_square"]
    theta = np.concatenate([lift(stack.model, pushed_out_of_initial_set(stack, log, face, 0.0, k)),
                            log.y_t[k]])
    warm = solve(problems["unicycle_square"].qp, theta)
    cold = solve(plain_qp(build_qp(stack.model, stack.config, stack.schedule), theta))
    assert warm.status == cold.status == OPTIMAL
    assert np.allclose(warm.x_star, cold.x_star, rtol=0.0, atol=1e-8)


# --- the shifted candidate against its rollout, and its margins read off the QP's rows -----

def per_set_margins(problem, prev, u_c, z_c) -> np.ndarray:
    """The reference: one ``sets.margin`` call per schedule set, on the inputs
    u_c and through C_x on the lifted states z_c, in the block order of
    ``shifted_candidate``'s margins: U~(0..N-1), X~(0..N-1), X~(N), U~(N)."""
    model, schedule, N = problem.model, problem.schedule, problem.config.N
    return np.array([margin(schedule.input_sets[j], u_c[j]) for j in range(N)]
                    + [margin(schedule.state_sets[j], model.C_x @ z_c[j]) for j in range(N)]
                    + [margin(schedule.state_sets[N], model.C_x @ prev.target.z_s),
                       margin(schedule.input_sets[N], prev.target.u_s)])


def checked_candidate(problem, prev, x_next):
    """Check that the candidate starts at the lifted state, that its
    predictions match the step-by-step rollout (1e-12 relative), and that
    ``shifted_candidate``'s margins equal the per-set reference's on both to
    1e-12. The margins are read off the QP's rows through one product with
    ``candidate_rows``, whose rounding differs from the predictions' own."""
    model, N, lay = problem.model, problem.config.N, problem.layout
    z_next = lift(model, x_next)
    margins = shifted_candidate(problem, prev, z_next)
    x_c = problem.candidate_map @ np.concatenate((prev.x_star, z_next))
    u_c, z_c = lay.U @ x_c, lay.Z @ x_c
    assert np.array_equal(x_c[lay.z0], z_next) and np.array_equal(z_c[0], z_next)

    u_r, z_r = shifted_rollout(model.A, model.B, problem.config.K, N, prev.u_bar, prev.z_bar,
                               prev.target.z_s, prev.target.u_s, z_next)
    x_r = np.concatenate([u_r.ravel(), z_r.ravel()])
    x_p = np.concatenate([u_c.ravel(), z_c.ravel()])
    assert np.max(np.abs(x_p - x_r)) <= 1e-12 * max(1.0, np.max(np.abs(x_r)))
    for u, z in ((u_c, z_c), (u_r, z_r)):
        want = per_set_margins(problem, prev, u, z)
        np.testing.assert_allclose(margins, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", NAMES)
def test_row_margins_equal_the_per_set_margins_along_the_closed_loop(stacks, logs, name):
    # a2 runs disturbed for its whole length; the unicycle up to its halt,
    # whose candidate is built before the step is certified infeasible.
    stack, log = stacks[name], logs[name]
    problem = TrackingProblem(stack.model, stack.config, stack.schedule)
    last = log.k.size - 1 if log.halted_at is None else log.halted_at
    _, prev = solve_step(problem, lift(stack.model, log.x[0]), log.y_t[0])
    for k in range(1, last + 1):
        checked_candidate(problem, prev, log.x[k])
        if k == log.halted_at:
            with pytest.raises(Infeasible):
                solve_step(problem, lift(stack.model, log.x[k]), log.y_t[k])
        else:
            u_k, prev = solve_step(problem, lift(stack.model, log.x[k]), log.y_t[k])
            assert np.array_equal(u_k, log.u[k])
    assert last == (299 if name == "a2" else 29)


def test_row_margins_equal_the_per_set_margins_at_horizon_one(stacks):
    # N = 1 has no X~(1..N-1) block, only X~(0). Tightening is a forward recursion, so the
    # first two sets of a longer schedule are the N = 1 schedule.
    stack = stacks["a2"]
    model, full = stack.model, stack.schedule
    schedule = TighteningSchedule(full.state_sets[:2], full.input_sets[:2], full.error_sets[:1])
    problem = TrackingProblem(model, dataclasses.replace(stack.config, N=1), schedule)
    assert problem.block_starts.size == 4
    rng = np.random.default_rng(0)
    x, y_t = np.array([0.0, 0.5]), np.array([1.0])
    u_k, prev = solve_step(problem, lift(model, x), y_t)
    for _ in range(10):
        # Disturb only x_2: the uncontrollable x_1 must be 0 for N = 1 to be feasible.
        w = np.array([0.0, rng.uniform(-0.05, 0.05), 0.0])
        x = model.C_x @ (model.A @ lift(model, x) + model.B @ u_k + w)
        checked_candidate(problem, prev, x)
        u_k, prev = solve_step(problem, lift(model, x), y_t)


def test_tracking_problem_rejects_a_set_with_no_rows(stacks):
    stack = stacks["a2"]
    full = stack.schedule
    empty = dataclasses.replace(full.input_sets[3], normals=np.zeros((0, 1)), offsets=[])
    inputs = full.input_sets[:3] + [empty] + full.input_sets[4:]
    schedule = TighteningSchedule(full.state_sets, inputs, full.error_sets)
    with pytest.raises(ValueError, match="at least one row"):
        TrackingProblem(stack.model, stack.config, schedule)


# --- the steady-target QP, built and factored once per problem -------------------------

def _factored(monkeypatch):
    """The list of every QP that ``qp._factor`` is called on from now on."""
    programs, factor = [], qp_module._factor

    def recorded(program):
        programs.append(program)
        return factor(program)

    monkeypatch.setattr(qp_module, "_factor", recorded)
    return programs


def test_steady_program_equals_the_one_shot_solve_and_is_factored_once(stacks, monkeypatch):
    # Steps that move the support, an unreachable reference and a revisited
    # one: each reuse of the stored factors and support gives the target of a
    # problem built for that reference alone, bit for bit, and a revisited
    # reference gets its stored target back without a solve.
    stack = stacks["a2"]
    problem = TrackingProblem(stack.model, stack.config, stack.schedule)
    factored = _factored(monkeypatch)
    supports, targets = [], {}
    for y in (1.0, -1.0, 2.0, 10.0):
        got = targets[y] = solve_steady(problem, [y])
        want = solve_steady(TrackingProblem(stack.model, stack.config, stack.schedule), [y])
        for field in ("z_s", "u_s", "y_s"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (y, field)
        assert got.offset_cost == want.offset_cost
        supports.append(tuple(problem.steady_qp._support.rows.tolist()))
    assert len(set(supports)) > 1, supports
    assert sum(program is problem.steady_qp for program in factored) == 1
    monkeypatch.setattr(qp_module, "solve", None)  # a solve would raise
    for y in (1.0, 10.0):
        assert solve_steady(problem, np.array([y])) is targets[y]


def test_closed_loop_factors_each_program_once(stacks, monkeypatch):
    # a2 switches its reference twice; its first run factors its tracking QP
    # and its steady QP once each, and a later run factors neither. A one-shot
    # steady solve would factor one more.
    factored = _factored(monkeypatch)
    stack = fresh(stacks["a2"])
    for seed in (stack.seed, stack.seed + 1):
        log = stack.run(seed)
    assert len(np.unique(log.y_t, axis=0)) == 3
    N, n_z, n_u = stack.config.N, stack.model.n_z, stack.model.n_u
    dims = sorted(program.dim for program in factored)
    assert dims == [n_z + n_u, N * n_u + 2 * n_z + n_u]


def test_one_simulate_call_builds_factors_and_solves_each_target_once(stacks, monkeypatch,
                                                                      tmp_path):
    # Seeds 0..4 of a2 share their stack's problem: one build_qp, one factoring
    # of the tracking QP and of the steady QP, and one steady solve for each of
    # a2's three references. tighten never builds the problem.
    stack = stacks["a2"]
    model, N, s = stack.model, stack.config.N, stack.config.s
    n_z, n_u = model.n_z, model.n_u
    built, steady = [], []
    build, solve_qp = controller.build_qp, qp_module.solve
    monkeypatch.setattr(controller, "build_qp", lambda *args: built.append(1) or build(*args))

    def recorded(program, theta=()):
        if program.dim == n_z + n_u:  # the steady QP, at theta = y_t
            steady.append(np.array(theta))
        return solve_qp(program, theta)

    monkeypatch.setattr(qp_module, "solve", recorded)
    factored = _factored(monkeypatch)
    assert cli.cmd_tighten(SCENARIOS / "a2.json", tmp_path / "schedule.json") == 0
    assert built == factored == steady == []
    assert cli.cmd_simulate(SCENARIOS / "a2.json", seeds=list(range(5)), out=tmp_path) == 0
    assert len(built) == 1
    assert sorted(program.dim for program in factored) == [n_z + n_u, N * n_u + 2 * n_z + n_u]
    want = [np.array([y]) for y in (1.0, -1.0, 2.0)]
    assert len(steady) == len(want)
    assert all(np.array_equal(got, q) for got, q in zip(steady, want))
