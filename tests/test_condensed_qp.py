"""The condensed tracking QP (`controller.build_qp`, over u(j) = K z(j) + c(j))
against the sparse QP it replaced (`oracles.sparse_tracking_qp`, over
u(0..N-1) and z(0..N)), step by step along the shipped closed loops and at
longer horizons on the unstable a2 model, and the tube gain's change of
variables, which must not move the optimum."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from koopmpc import cli, sim
from koopmpc.controller import Infeasible, TrackingProblem, shifted_candidate, solve_step
from koopmpc.model import lift
from koopmpc.qp import OPTIMAL, PRIMAL_INFEASIBLE, solve
from oracles import SparseLayout, sparse_candidate_map, sparse_from_condensed, sparse_tracking_qp

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def close(got, want, tol):
    """|got - want| <= tol * max(1, |want|), entry by entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


class Sparse:
    """The sparse QP of a problem's (model, config, schedule), kept warm as
    the problem is, with its layout and candidate map."""

    def __init__(self, problem):
        model, config = problem.model, problem.config
        self.qp = sparse_tracking_qp(model, config, problem.schedule)
        self.lay = SparseLayout(config.N, model.n_z, model.n_u)
        self.rows = self.qp.A_in @ sparse_candidate_map(model, config.K, self.lay)

    def margins(self, problem, x_prev, z_next):
        """The candidate's worst margin on each block, from the sparse rows."""
        rows = self.rows @ np.concatenate((x_prev, z_next))
        return np.minimum.reduceat(self.qp.b_in - rows, problem.block_starts)


@pytest.mark.parametrize("name, seeds", [("a1", [0]), ("a2", [0, 1, 2]),
                                         ("unicycle_square", [None])])
def test_condensed_steps_match_the_sparse_qp_along_the_closed_loop(name, seeds):
    # Each step of the loop's log solved by both forms, each warm from its
    # earlier steps: the same status; u_k, z_s and u_s, J_N and the shifted
    # candidate's block margins within 1e-9 of max(1, |v|); and at the
    # unicycle's step 29 a Farkas vector from each. The sparse optimum mapped
    # through the condensed layout's predictions is the sparse one.
    stack = cli.build_stack(SCENARIOS / f"{name}.json")
    model, s = stack.model, stack.config.s
    halts = []
    for seed in seeds:
        log = stack.run(stack.seed if seed is None else seed)
        problem = TrackingProblem(model, stack.config, stack.schedule)
        sparse, T = Sparse(problem), sparse_from_condensed(problem.layout)
        prev = None
        for k in range(log.k.size):
            z, y_t = lift(model, log.x[k]), log.y_t[k]
            ref = solve(sparse.qp, np.concatenate((z, y_t)))
            if prev is not None:
                assert close(shifted_candidate(problem, prev[0], z),
                             sparse.margins(problem, prev[1], z), 1e-9), k
            try:
                u_k, sol = solve_step(problem, z, y_t)
            except Infeasible:
                got = solve(problem.qp, np.concatenate((z, y_t)))
                assert got.status == ref.status == PRIMAL_INFEASIBLE, k
                assert got.in_multipliers is not None and ref.in_multipliers is not None
                halts.append(k)
                break
            assert ref.status == OPTIMAL, k
            x = ref.x_star
            assert np.array_equal(u_k, log.u[k])
            assert close(u_k, x[sparse.lay.u(0)], 1e-9), k
            assert close(sol.target.z_s, x[sparse.lay.z_s], 1e-9), k
            assert close(sol.target.u_s, x[sparse.lay.u_s], 1e-9), k
            assert close(sol.total_cost, ref.objective + s * float(y_t @ y_t), 1e-9), k
            assert close(T @ sol.x_star, x, 1e-9), k
            prev = sol, x
    assert halts == ([29] if name == "unicycle_square" else [])


def scenario_with_horizon(tmp_path, name, N):
    """A copy of a shipped scenario with ``controller.N`` = N, as a file."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc["controller"]["N"] = N
    path = tmp_path / f"{name}_N{N}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("N", [20, 30, 40])
def test_a2_long_horizons_simulate_and_match_the_sparse_qp(tmp_path, monkeypatch, N):
    # a2's model is unstable (mu = 2), so a prediction of u(j) alone grows as
    # 2^j; the tube gain's predictions do not, and seeds 0..1 run to the end
    # at N = 20, 30 and 40, each step's u_k within 1e-8 of max(1, |u|) of the
    # sparse QP's at the same theta.
    step, sparse, steps = sim.solve_step, {}, []

    def compared(problem, z, y_t):
        u_k, sol = step(problem, z, y_t)
        ref = sparse.setdefault(id(problem), Sparse(problem))
        want = solve(ref.qp, np.concatenate((z, y_t)))
        assert want.status == OPTIMAL
        assert close(u_k, want.x_star[ref.lay.u(0)], 1e-8)
        steps.append(1)
        return u_k, sol

    monkeypatch.setattr(sim, "solve_step", compared)
    path = scenario_with_horizon(tmp_path, "a2", N)
    assert cli.cmd_simulate(path, seeds=[0, 1], out=tmp_path / "out") == 0
    assert len(steps) == 600 and len(sparse) == 1
    for seed in (0, 1):
        metrics = json.loads((tmp_path / "out" / f"metrics_seed{seed}.json").read_text())
        assert metrics["halted_at"] is None


def test_the_tube_gain_does_not_move_the_optimum():
    # u = K z + c is a change of variables: along a1's log at N = 10 the
    # optimum's u_k with the shipped tube gain and with K = 0 agree to 1e-9
    # of max(1, |u|), and so do their costs.
    stack = cli.build_stack(SCENARIOS / "a1.json")
    model, config, schedule = stack.model, stack.config, stack.schedule
    assert config.N == 10 and np.any(config.K)
    log = stack.run(stack.seed)
    with_K = TrackingProblem(model, config, schedule)
    without = TrackingProblem(model, dataclasses.replace(config, K=np.zeros_like(config.K)),
                              schedule)
    for k in range(log.k.size):
        z = lift(model, log.x[k])
        u_K, sol_K = solve_step(with_K, z, log.y_t[k])
        u_0, sol_0 = solve_step(without, z, log.y_t[k])
        assert np.array_equal(u_K, log.u[k])
        assert close(u_0, u_K, 1e-9), k
        assert close(sol_0.total_cost, sol_K.total_cost, 1e-9), k
