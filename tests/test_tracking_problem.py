"""The parametric tracking QP (`TrackingProblem`, a family in theta =
(psi(x_k), y_t)) against its reference assembly (the p = 0 QP of `build_qp`
at theta + `qp.solve`), the certified halt of the unicycle course,
and the shifted candidate, one product with a precomputed map, against its
step-by-step rollout and its row-read margins against the per-set formula."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmpc import cli, controller, model as model_module, qp as qp_module, sets, sim
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
from oracles import plain_qp, shifted_rollout, tracking_cost

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
    qp._support = qp_module._support(qp.factors, np.array([65]))
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

    for module in (sets, model_module):  # the package's only linprog bindings
        monkeypatch.setattr(module, "linprog", refused)
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


# --- the stored support: each solve tries the support of the QP's last Optimal one ---

@pytest.mark.parametrize("name", NAMES)
def test_stored_support_solves_equal_cold_solves_bit_for_bit(stacks, logs, name):
    # The loop's problem tries the support of its last Optimal solve first; a
    # QP built cold for each step starts from no row and reaches the same
    # support through nnls. Both end in the same support solve, so every step
    # agrees bit for bit, the unicycle's halt included.
    stack, log = stacks[name], logs[name]
    model, config, schedule = stack.model, stack.config, stack.schedule
    problem = TrackingProblem(model, config, schedule)
    for k in range(log.k.size):
        theta = np.concatenate([lift(model, log.x[k]), log.y_t[k]])
        warm = solve(problem.qp, theta)
        cold = solve(build_qp(model, config, schedule), theta)
        assert warm.status == cold.status == (
            PRIMAL_INFEASIBLE if k == log.halted_at else OPTIMAL)
        assert np.array_equal(warm.x_star, cold.x_star, equal_nan=True), k
        assert warm.active_set == cold.active_set
        if warm.status == OPTIMAL:
            assert np.array_equal(warm.in_multipliers, cold.in_multipliers)


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


def test_each_stored_support_map_is_built_once(course, monkeypatch):
    # A map is built (one dposv) only for the support of a solve that ran
    # NNLS; every other solve of the course takes a stored map. So a fresh
    # course builds as many maps as it runs NNLS, 4 on the first course and 3
    # on each later one (see the test below).
    stack, counts = fresh(course[0]), {}

    def counted(key, call):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qp_module, "dposv", counted("dposv", qp_module.dposv))
    monkeypatch.setattr(qp_module, "nnls", counted("nnls", qp_module.nnls))
    for expected in (4, 3):
        counts.update(dposv=0, nnls=0)
        assert stack.run(stack.seed).halted_at == 29
        assert counts == {"dposv": expected, "nnls": expected}


def test_a2_inconsistent_equalities_are_certified_by_the_least_squares_residual(stacks, logs):
    # a2's A_eq has rank 37 of its 39 rows. One more parameter, along a left
    # null vector of A_eq, makes the equalities inconsistent at 1 and leaves
    # them alone at 0: the first is certified by the residual of x_p, with no
    # multipliers, and the second solves as the loop's family does.
    stack, log = stacks["a2"], logs["a2"]
    family = build_qp(stack.model, stack.config, stack.schedule)
    assert family.A_eq.shape[0] == 39 and np.linalg.matrix_rank(family.A_eq) == 37
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
            qp._support = qp_module._support(qp.factors, np.array(rows, dtype=np.intp))
            got = solve(qp, thetas[k])
            assert got.status == cold.status, (label, k)
            assert np.array_equal(got.x_star, cold.x_star, equal_nan=True), (label, k)


def test_unicycle_course_calls_nnls_on_four_of_its_31_solves(course, monkeypatch):
    # The offline steady target is taken at its unconstrained optimum; nnls
    # runs for the cold first step, at steps 3 and 23, whose supports change,
    # and for the certified halt. A later course on the same stack reuses the
    # steady target, and its step 0 takes the support that steps 23-28 stored
    # (steps 0-2 have the same one), so it makes 30 solves and 3 nnls calls,
    # exactly, every time.
    stack, counts = fresh(course[0]), {}

    def counted(key, call):
        def wrapper(*args):
            counts[key] += 1
            return call(*args)
        return wrapper

    monkeypatch.setattr(qp_module, "solve", counted("solve", qp_module.solve))
    monkeypatch.setattr(qp_module, "nnls", counted("nnls", qp_module.nnls))
    for expected in ({"solve": 31, "nnls": 4}, {"solve": 30, "nnls": 3}, {"solve": 30, "nnls": 3}):
        counts.update(solve=0, nnls=0)
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
def test_closed_loop_lifts_once_and_takes_two_margins_per_step(stacks, monkeypatch, name):
    # The loop lifts each measured state once, for the candidate and the QP
    # alike; the log's state and input margins are one sets.margin call each,
    # and the halted step logs only the state margin. The controller itself
    # neither lifts nor calls sets.margin.
    assert not any(v is f for v in vars(controller).values() for f in (lift, margin))
    counts = {"lift": 0, "margin": 0}
    for attr in counts:
        def counted(*args, _attr=attr, _original=getattr(sim, attr)):
            counts[_attr] += 1
            return _original(*args)

        monkeypatch.setattr(sim, attr, counted)
    stack = stacks[name]
    log = stack.run(stack.seed)
    halted = log.halted_at is not None
    assert log.halted_at == (None if name == "a2" else 29)
    assert counts["lift"] == log.k.size
    assert counts["margin"] == 2 * (log.k.size - halted) + halted


@pytest.mark.parametrize("name", NAMES)
def test_closed_loop_builds_the_candidate_map_once(stacks, monkeypatch, name):
    # The candidate map is built with the stack's TrackingProblem, by its
    # first run, and never by shifted_candidate, which only multiplies by it.
    builds, in_candidate = [], [False]
    build, candidate = controller._candidate_map, sim.shifted_candidate

    def counted_build(*args):
        builds.append(in_candidate[0])
        return build(*args)

    def watched_candidate(*args):
        in_candidate[0] = True
        try:
            return candidate(*args)
        finally:
            in_candidate[0] = False

    monkeypatch.setattr(controller, "_candidate_map", counted_build)
    monkeypatch.setattr(sim, "shifted_candidate", watched_candidate)
    stack = fresh(stacks[name])
    for _ in range(2):
        log = stack.run(stack.seed)
        assert log.halted_at == (None if name == "a2" else 29)
        assert builds == [False]


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

def per_set_margins(problem, prev, x_c) -> np.ndarray:
    """The reference: one ``sets.margin`` call per schedule set, through C_x, in the
    block order of ``shifted_candidate``'s margins: U~(0..N-1), X~(0..N-1), X~(N), U~(N)."""
    model, schedule, N = problem.model, problem.schedule, problem.config.N
    u_c, z_c, _, _ = problem.layout.split(x_c)
    return np.array([margin(schedule.input_sets[j], u_c[j]) for j in range(N)]
                    + [margin(schedule.state_sets[j], model.C_x @ z_c[j]) for j in range(N)]
                    + [margin(schedule.state_sets[N], model.C_x @ prev.target.z_s),
                       margin(schedule.input_sets[N], prev.target.u_s)])


def checked_candidate(problem, prev, x_next):
    """Check that ``shifted_candidate``'s margins equal the per-set reference's,
    that the candidate starts at the lifted state, and that it matches the
    step-by-step rollout (1e-12 relative) with the same margins (1e-12 absolute)."""
    model, N = problem.model, problem.config.N
    z_next = lift(model, x_next)
    x_c, margins = shifted_candidate(problem, prev, z_next)
    assert np.array_equal(problem.layout.split(x_c)[1][0], z_next)
    assert np.array_equal(margins, per_set_margins(problem, prev, x_c))

    u_r, z_r = shifted_rollout(model.A, model.B, problem.config.K, N, prev.u_bar, prev.z_bar,
                               prev.target.z_s, prev.target.u_s, z_next)
    x_r = np.concatenate([u_r.ravel(), z_r.ravel(), prev.target.z_s, prev.target.u_s])
    assert np.max(np.abs(x_c - x_r)) <= 1e-12 * max(1.0, np.max(np.abs(x_r)))
    np.testing.assert_allclose(margins, per_set_margins(problem, prev, x_r), rtol=0, atol=1e-12)


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
    assert dims == [n_z + n_u, controller._Layout(N, n_z, n_u).dim]


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
    assert sorted(program.dim for program in factored) == [n_z + n_u,
                                                           controller._Layout(N, n_z, n_u).dim]
    want = [np.array([y]) for y in (1.0, -1.0, 2.0)]
    assert len(steady) == len(want)
    assert all(np.array_equal(got, q) for got, q in zip(steady, want))
