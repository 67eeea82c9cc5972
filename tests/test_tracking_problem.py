"""The parametric tracking QP (`TrackingProblem`) against its reference
assembly (`build_qp` + `qp.solve`), its warm start on the unicycle course, and
the shifted candidate's row-read margins against the per-set formula."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmpc import cli, controller, qp as qp_module, sim
from koopmpc.controller import (
    FeasibilityReport,
    Infeasible,
    TrackingProblem,
    build_qp,
    shifted_candidate,
    solve_step,
)
from koopmpc.model import lift
from koopmpc.qp import OPTIMAL, solve
from koopmpc.sets import TighteningSchedule, margin

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
NAMES = ("a2", "unicycle_square")


@pytest.fixture(scope="module")
def stacks():
    return {name: cli.build_stack(SCENARIOS / f"{name}.json") for name in NAMES}


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
    ref = solve(build_qp(stack.model, stack.config, stack.schedule, x_k, y_t), max_iter=2000)
    got = solve(problems[name].at(lift(stack.model, x_k), y_t), max_iter=2000)
    assert got.status == ref.status
    if ref.status == OPTIMAL:
        assert np.allclose(got.x_star, ref.x_star, rtol=0.0, atol=1e-8)
        assert got.objective == pytest.approx(ref.objective, rel=1e-8, abs=1e-8)


def test_unicycle_warm_and_cold_solves_agree_along_the_course(course):
    stack, log = course
    assert log.halted_at == 29
    model, config, schedule = stack.model, stack.config, stack.schedule
    problem = TrackingProblem(model, config, schedule)
    prev = None
    for k in range(log.halted_at):
        _, cold = solve_step(problem, log.x[k], log.y_t[k])
        x0 = None if prev is None else shifted_candidate(problem, prev, log.x[k])[0]
        u_k, warm = solve_step(problem, log.x[k], log.y_t[k], x0=x0)
        for a, b in [(warm.u_bar, cold.u_bar), (warm.z_bar, cold.z_bar),
                     (warm.target.z_s, cold.target.z_s), (warm.target.u_s, cold.target.u_s)]:
            assert np.allclose(a, b, rtol=0.0, atol=1e-8), k
        assert np.array_equal(u_k, log.u[k])
        prev = warm
    k = log.halted_at
    for x0 in (None, shifted_candidate(problem, prev, log.x[k])[0]):
        with pytest.raises(Infeasible):
            solve_step(problem, log.x[k], log.y_t[k], x0=x0)


def test_unicycle_course_runs_phase1_only_at_the_cold_start_and_the_halt(
    course, problems, monkeypatch
):
    stack, _ = course
    steps, phase1_at = [], []
    step, phase1 = sim.solve_step, qp_module._phase1

    def counted_step(*args, **kwargs):
        steps.append(len(steps))
        return step(*args, **kwargs)

    def counted_phase1(qp, f):
        phase1_at.append((steps[-1] if steps else None, qp.dim))
        return phase1(qp, f)

    monkeypatch.setattr(sim, "solve_step", counted_step)
    monkeypatch.setattr(qp_module, "_phase1", counted_phase1)
    log = stack.run(stack.seed)
    assert log.halted_at == 29
    tracking_dim = problems["unicycle_square"].qp.dim
    assert [k for k, dim in phase1_at if dim == tracking_dim] == [0, 29]
    # The rest is the one offline steady target, solved cold before step 0.
    assert [k for k, dim in phase1_at if dim != tracking_dim] == [None]


@pytest.mark.parametrize("name", NAMES)
def test_rows_held_by_the_warm_start_are_not_added_again(stacks, name, monkeypatch):
    # The rows the projection holds are the iterations' first working set:
    # seeding adds only the other rows active at the start, and no add, then
    # or later, is of a row the set already holds.
    held, seed_adds, repeats = [], [], []
    seeding = False
    add, active_set, direction = (qp_module._WorkingSet.add, qp_module._active_set,
                                  qp_module._eqp_direction)

    def spied_active_set(qp, f, x, working, max_iter):
        nonlocal seeding
        seeding = True
        held.append(list(working.index))
        return active_set(qp, f, x, working, max_iter)

    def spied_add(self, i):
        if i in self.index or (seeding and i in held[-1]):
            repeats.append(int(i))
        if seeding:
            seed_adds.append(int(i))
        return add(self, i)

    def spied_direction(*args):
        nonlocal seeding
        seeding = False
        return direction(*args)

    monkeypatch.setattr(qp_module, "_active_set", spied_active_set)
    monkeypatch.setattr(qp_module._WorkingSet, "add", spied_add)
    monkeypatch.setattr(qp_module, "_eqp_direction", spied_direction)
    stack = stacks[name]
    log = stack.run(stack.seed)
    assert log.halted_at == (29 if name == "unicycle_square" else None)
    assert sum(map(len, held)) > len(seed_adds) > 0
    assert not repeats


def test_closed_loop_assembles_the_qp_once(stacks, monkeypatch):
    calls = []
    assemble = controller.build_qp

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(controller, "build_qp", counted)
    log = dataclasses.replace(stacks["a2"], T=20).run(0)
    assert log.k.size == 20
    assert len(calls) == 1


def test_solve_step_lifts_the_state_once(stacks, problems, monkeypatch):
    model = stacks["a2"].model
    x, y_t = np.array([0.0, 0.5]), np.array([1.0])
    u_k, prev = solve_step(problems["a2"], x, y_t)
    x_next = model.C_x @ (model.A @ lift(model, x) + model.B @ u_k)
    x_c, _ = shifted_candidate(problems["a2"], prev, x_next)
    lifts = []
    lift_once = controller.lift

    def counted(*args):
        lifts.append(1)
        return lift_once(*args)

    monkeypatch.setattr(controller, "lift", counted)
    _, sol = solve_step(problems["a2"], x_next, y_t, x0=x_c)
    assert len(lifts) == 1
    assert np.array_equal(sol.z_bar[0], lift_once(model, x_next))


# --- the shifted candidate's margins, read off the QP's rows -------------------------------

def per_set_report(problem, prev, x_next, x_c) -> FeasibilityReport:
    """The reference: one ``sets.margin`` call per schedule set, through C_x."""
    model, schedule, N = problem.model, problem.schedule, problem.config.N
    u_c, z_tail, _, _ = problem.layout.split(x_c)
    z_c = np.vstack([lift(model, x_next), z_tail])
    z_s, u_s = prev.target.z_s, prev.target.u_s
    state = np.array([margin(schedule.state_sets[j], model.C_x @ z_c[j]) for j in range(N)])
    inputs = np.array([margin(schedule.input_sets[j], u_c[j]) for j in range(N)])
    steady_state = margin(schedule.state_sets[N], model.C_x @ z_s)
    steady_input = margin(schedule.input_sets[N], u_s)
    min_margin = float(min(state.min(), inputs.min(), steady_state, steady_input))
    return FeasibilityReport(
        state_margins=state,
        input_margins=inputs,
        steady_state_margin=steady_state,
        steady_input_margin=steady_input,
        terminal_gap=float(np.max(np.abs(z_c[N] - z_s))),
        min_margin=min_margin,
        feasible=bool(min_margin >= -1e-9),
    )


def checked_candidate(problem, prev, x_next):
    """``shifted_candidate``'s vector, after its report equals the reference's."""
    x_c, report = shifted_candidate(problem, prev, x_next)
    ref = per_set_report(problem, prev, x_next, x_c)
    for f in dataclasses.fields(FeasibilityReport):
        assert np.array_equal(getattr(report, f.name), getattr(ref, f.name)), f.name
    return x_c


@pytest.mark.parametrize("name", NAMES)
def test_row_margins_equal_the_per_set_margins_along_the_closed_loop(stacks, logs, name):
    # a2 runs disturbed for its whole length; the unicycle up to its halt,
    # whose candidate is built before the step is certified infeasible.
    stack, log = stacks[name], logs[name]
    problem = TrackingProblem(stack.model, stack.config, stack.schedule)
    last = log.k.size - 1 if log.halted_at is None else log.halted_at
    _, prev = solve_step(problem, log.x[0], log.y_t[0])
    for k in range(1, last + 1):
        x_c = checked_candidate(problem, prev, log.x[k])
        if k == log.halted_at:
            with pytest.raises(Infeasible):
                solve_step(problem, log.x[k], log.y_t[k], x0=x_c)
        else:
            u_k, prev = solve_step(problem, log.x[k], log.y_t[k], x0=x_c)
            assert np.array_equal(u_k, log.u[k])
    assert last == (299 if name == "a2" else 29)


def test_row_margins_equal_the_per_set_margins_at_horizon_one(stacks):
    # N = 1 has no X~(1..N-1) block. Tightening is a forward recursion, so the
    # first two sets of a longer schedule are the N = 1 schedule.
    stack = stacks["a2"]
    model, full = stack.model, stack.schedule
    schedule = TighteningSchedule(full.state_sets[:2], full.input_sets[:2], full.error_sets[:1])
    problem = TrackingProblem(model, dataclasses.replace(stack.config, N=1), schedule)
    assert problem.block_starts.size == 3
    rng = np.random.default_rng(0)
    x, y_t = np.array([0.0, 0.5]), np.array([1.0])
    u_k, prev = solve_step(problem, x, y_t)
    for _ in range(10):
        # Disturb only x_2: the uncontrollable x_1 must be 0 for N = 1 to be feasible.
        w = np.array([0.0, rng.uniform(-0.05, 0.05), 0.0])
        x = model.C_x @ (model.A @ lift(model, x) + model.B @ u_k + w)
        u_k, prev = solve_step(problem, x, y_t, x0=checked_candidate(problem, prev, x))


def test_tracking_problem_rejects_a_set_with_no_rows(stacks):
    stack = stacks["a2"]
    full = stack.schedule
    empty = dataclasses.replace(full.input_sets[3], normals=np.zeros((0, 1)), offsets=[])
    inputs = full.input_sets[:3] + [empty] + full.input_sets[4:]
    schedule = TighteningSchedule(full.state_sets, inputs, full.error_sets)
    with pytest.raises(ValueError, match="at least one row"):
        TrackingProblem(stack.model, stack.config, schedule)
