"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Every test funnels through :func:`_report`, so ``pytest -v`` (or ``-rA``)
shows a single ``[acceptance] <name>: PASS/FAIL`` line per guarantee with the
measured numbers inline.  The disturbed 20-seed batches dominate the runtime,
so they are produced once by module-scoped fixtures and shared by the
feasibility, disturbance-scaling and diagnostics tests.
"""

import copy
import dataclasses
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from koopmpc import cli
from koopmpc.model import DisturbanceModel, _lifting_from_doc, fit_edmd
from koopmpc.qp import OPTIMAL, PRIMAL_INFEASIBLE, QuadraticProgram, solve
from koopmpc.sets import (
    Zonotope,
    box_polytope,
    box_zonotope,
    margin,
    pontryagin_diff,
    tighten_constraints,
)
from koopmpc.sim import generate_training_data, tracking_metrics
from oracles import grid_membership_diff, numerical_example_matrices, segment_inequality_check

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
A2_SEEDS = range(20)


def _report(name: str, ok: bool, detail: str) -> None:
    """Print the one-line verdict, then assert it."""
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def _segments(y_t: np.ndarray):
    """Half-open [lo, hi) index ranges of constant reference."""
    changed = np.any(y_t[1:] != y_t[:-1], axis=1)
    bounds = [0] + list(np.nonzero(changed)[0] + 1) + [len(y_t)]
    return list(zip(bounds, bounds[1:]))


@pytest.fixture(scope="module")
def a1_run():
    stack = cli.build_stack(SCENARIOS / "a1.json")
    t0 = time.perf_counter()
    log = stack.run(stack.seed)
    return SimpleNamespace(stack=stack, log=log, runtime=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def a2_batch():
    stack = cli.build_stack(SCENARIOS / "a2.json")
    half_injected = DisturbanceModel(
        W=Zonotope(0.5 * stack.injected.W.center, 0.5 * stack.injected.W.generators),
        V=Zonotope(0.5 * stack.injected.V.center, 0.5 * stack.injected.V.generators),
    )
    full = [stack.run(seed) for seed in A2_SEEDS]
    half_stack = dataclasses.replace(stack, injected=half_injected)
    half = [half_stack.run(seed) for seed in A2_SEEDS]
    window = stack.settle_window
    return SimpleNamespace(
        stack=stack,
        full=full,
        half=half,
        full_metrics=[tracking_metrics(lg, settle_window=window) for lg in full],
        half_metrics=[tracking_metrics(lg, settle_window=window) for lg in half],
    )


def test_exact_model_recovery():
    """Noise-free identification returns the analytic lifted matrices."""
    sc = cli._load_json(SCENARIOS / "a1.json")
    plant = cli._build_plant(sc["plant"])
    lifting = _lifting_from_doc(sc["lifting"], n_x=plant.n_x)
    t0 = time.perf_counter()
    data = generate_training_data(
        plant,
        n_traj=125,
        traj_len=4,  # 125 x 4 = 500 transitions
        input_box=box_zonotope([3.0]),
        state_box=box_zonotope([2.0, 2.0]),
        seed=0,
    )
    model = fit_edmd(data, lifting, ridge=0.0, output_matrix=plant.C)
    elapsed = time.perf_counter() - t0
    A_true, B_true = numerical_example_matrices(-0.1, 2.0)
    err = max(np.abs(model.A - A_true).max(), np.abs(model.B - B_true).max())
    _report(
        "exact model recovery",
        err <= 1e-8 and elapsed < 1.0,
        f"max-abs error {err:.2e} (<=1e-8), fit {elapsed:.3f}s (<1s) on "
        f"{len(data.inputs)} transitions",
    )


def test_nominal_convergence(a1_run):
    """Disturbance-free tracking settles onto each piecewise-constant target."""
    log = a1_run.log
    worst = 0.0
    for lo, hi in _segments(log.y_t):
        tail = slice(max(lo, hi - 20), hi)
        worst = max(worst, float(np.abs(log.y[tail] - log.y_t[tail]).max()))
    _report(
        "nominal convergence",
        log.halted_at is None and worst <= 1e-4 and a1_run.runtime < 10.0,
        f"worst |y - y_t| over each segment's last 20 steps {worst:.2e} "
        f"(<=1e-4), runtime {a1_run.runtime:.2f}s (<10s)",
    )


def test_recursive_feasibility(a2_batch):
    """Disturbed runs never go infeasible, never violate the raw constraints,
    and every shifted candidate stays inside the tightened sets."""
    halted = [lg.halted_at for lg in a2_batch.full if lg.halted_at is not None]
    infeasible_steps = sum(int((~lg.feasible).sum()) for lg in a2_batch.full)
    raw_violation = max(m["max_constraint_violation"] for m in a2_batch.full_metrics)
    candidate_margin = min(
        float(np.nanmin(lg.margin_min)) for lg in a2_batch.full
    )  # k = 0 has no predecessor and logs NaN
    ok = (
        not halted
        and infeasible_steps == 0
        and raw_violation == 0.0
        and candidate_margin >= -1e-9
    )
    _report(
        "recursive feasibility",
        ok,
        f"{len(a2_batch.full)} seeds x 300 steps: halts {halted}, "
        f"infeasible steps {infeasible_steps}, raw violation {raw_violation:.2e}, "
        f"min candidate margin {candidate_margin:.2e} (>=-1e-9)",
    )


def test_disturbance_scaling(a2_batch):
    """Settled error is bounded, and halving the injected sets does not make
    the median settled error worse."""
    full = np.array([m["final_error"] for m in a2_batch.full_metrics])
    half = np.array([m["final_error"] for m in a2_batch.half_metrics])
    bounded = np.isfinite(full).all() and np.isfinite(half).all()
    med_full, med_half = float(np.median(full)), float(np.median(half))
    _report(
        "disturbance scaling",
        bounded and med_half <= med_full + 1e-6,
        f"settled error max {full.max():.4f} / median {med_full:.4f} at full "
        f"amplitude; median {med_half:.4f} at half amplitude "
        f"(must not exceed full + 1e-6)",
    )


def test_lyapunov_diagnostics(a1_run, a2_batch):
    """Certified decrease of the tracking value function and the offset-cost
    segment inequality at every logged step."""
    log = a1_run.log
    v1_rise = j_rise = 0.0
    for lo, hi in _segments(log.y_t):
        if hi - lo >= 2:
            v1_rise = max(v1_rise, float(np.diff(log.V1[lo:hi]).max()))
            j_rise = max(j_rise, float(np.diff(log.J_N[lo:hi]).max()))
    v2_min = float(log.V2.min())

    sigmas = np.linspace(0.1, 0.9, 9)
    s = a1_run.stack.config.s
    segment_ok = True
    for lg in [log] + a2_batch.full:
        for k in range(lg.k.size):
            if not segment_inequality_check(lg.y_s[k], lg.y_sr[k], lg.y_t[k],
                                            s=s, sigma_samples=sigmas):
                segment_ok = False
                break
        if not segment_ok:
            break
    ok = v1_rise <= 1e-7 and j_rise <= 1e-7 and v2_min >= -1e-7 and segment_ok
    _report(
        "lyapunov diagnostics",
        ok,
        f"per-segment max rise V1 {v1_rise:.2e}, J_N {j_rise:.2e} (<=1e-7); "
        f"min V2 {v2_min:.2e} (>=-1e-7); segment inequality "
        f"{'holds' if segment_ok else 'violated'} at every step of both scenarios",
    )


def test_set_algebra_matches_grid_oracle(rng):
    """Support-function erosion agrees with exhaustive vertex-sweep membership
    on a 0.01-pitch grid; disagreements may only hug the boundary."""
    pitch, cell = 0.01, 0.01 * np.sqrt(2.0)
    worst_gap, n_mismatch = 0.0, 0
    for _ in range(200):
        lo = -rng.uniform(0.2, 0.6, size=2)
        hi = rng.uniform(0.2, 0.6, size=2)
        X = box_polytope(lo, hi)
        g = int(rng.integers(1, 4))
        Z = Zonotope(rng.uniform(-0.05, 0.05, size=2),
                     rng.uniform(-0.1, 0.1, size=(2, g)))

        xs = np.arange(lo[0], hi[0] + pitch / 2, pitch)
        ys = np.arange(lo[1], hi[1] + pitch / 2, pitch)
        pts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
        truth = grid_membership_diff(X.normals, X.offsets, Z.center,
                                     Z.generators, pts)

        # Same erosion through both public paths: directly, and as the first
        # tightened state set of a one-step schedule (A + BK stable, V = 0).
        direct = pontryagin_diff(X, Z)
        noise = SimpleNamespace(W=Z, V=Zonotope(np.zeros(2), np.zeros((2, 0))))
        schedule = tighten_constraints(
            X, box_polytope([-1.0, -1.0], [1.0, 1.0]), noise,
            A=0.2 * np.eye(2), B=np.eye(2), K=np.zeros((2, 2)),
            C_x=np.eye(2), N=1,
        )
        for P in (direct, schedule.state_sets[1]):
            mine = np.all(pts @ P.normals.T <= P.offsets + 1e-12, axis=1)
            for p in pts[mine != truth]:
                n_mismatch += 1
                worst_gap = max(worst_gap, abs(margin(P, p)))
    _report(
        "set-algebra oracle equivalence",
        worst_gap <= cell,
        f"200 instances, {n_mismatch} boundary-cell mismatches, worst distance "
        f"to boundary {worst_gap:.4f} (<= one grid cell {cell:.4f})",
    )


def test_tightening_monotone_and_emptiness(tmp_path):
    """Tightened state sets shrink rowwise along the horizon, and a wildly
    inflated disturbance makes the CLI exit with the empty-set code."""
    max_growth = -np.inf
    for name in ("a1.json", "a2.json", "unicycle_square.json"):
        sets = cli.build_stack(SCENARIOS / name).schedule.state_sets
        for prev, cur in zip(sets, sets[1:]):
            assert np.array_equal(prev.normals, cur.normals)
            max_growth = max(max_growth, float((cur.offsets - prev.offsets).max()))

    sc = copy.deepcopy(cli._load_json(SCENARIOS / "a2.json"))
    w = sc["disturbance"]["declared"]["W"]
    w["half_extents"] = [50.0 * h for h in w["half_extents"]]
    inflated = tmp_path / "a2_inflated.json"
    inflated.write_text(json.dumps(sc))
    rc = cli.main(["tighten", str(inflated), str(tmp_path / "schedule.json")])
    _report(
        "tightening monotonicity and emptiness",
        max_growth <= 1e-12 and rc == 4,
        f"max rowwise offset growth {max_growth:.2e} over three scenarios "
        f"(<=0), 50x inflated disturbance exits {rc} (want 4)",
    )


def test_qp_certification(rng):
    """A batch of random strictly convex QPs solves to certified optimality;
    the three contradiction fixtures are certified infeasible."""
    worst_kkt, statuses = 0.0, set()
    for _ in range(500):
        d = int(rng.integers(1, 13))
        M = rng.normal(size=(d, d))
        x_feas = rng.normal(size=d)
        m = int(rng.integers(1, 2 * d + 1))
        A_in = rng.normal(size=(m, d))
        n_eq = int(rng.integers(0, min(d, 3) + 1))
        A_eq = rng.normal(size=(n_eq, d)) if n_eq else None
        qp = QuadraticProgram(
            P=M @ M.T + 0.1 * np.eye(d),
            q=rng.normal(size=d),
            A_eq=A_eq,
            b_eq=A_eq @ x_feas if n_eq else None,
            A_in=A_in,
            b_in=A_in @ x_feas + rng.uniform(0.0, 1.0, size=m),
        )
        sol = solve(qp)
        statuses.add(sol.status)
        worst_kkt = max(worst_kkt, max(sol.kkt_residuals.values()))

    infeasible = [
        QuadraticProgram(P=np.eye(1), q=[0.0], A_in=[[1.0], [-1.0]],
                         b_in=[0.0, -1.0]),
        QuadraticProgram(P=np.eye(2), q=np.zeros(2), A_eq=[[1.0, 1.0]],
                         b_eq=[4.0], A_in=np.vstack([np.eye(2), -np.eye(2)]),
                         b_in=[1.0, 1.0, 0.0, 0.0]),
        QuadraticProgram(P=np.eye(1), q=[0.0], A_eq=[[1.0], [1.0]],
                         b_eq=[0.0, 1.0]),
    ]
    inf_statuses = {solve(qp).status for qp in infeasible}
    _report(
        "qp certification",
        statuses == {OPTIMAL} and worst_kkt <= 1e-8
        and inf_statuses == {PRIMAL_INFEASIBLE},
        f"500 random QPs (d<=12): statuses {sorted(statuses)}, worst KKT "
        f"residual {worst_kkt:.2e} (<=1e-8); infeasible fixtures -> "
        f"{sorted(inf_statuses)}",
    )


def test_unicycle_waypoint_course():
    """Identified unicycle model drives a square waypoint course.

    Known red: with a state-plus-heading dictionary the identified model's
    input coupling is an averaged, heading-independent map, and the tightened
    terminal equality admits no steady pose the lifted model can reach once
    the vehicle must turn.  The run below halts infeasible after ~30 steps
    with zero waypoints reached; see README for the analysis.
    """
    stack = cli.build_stack(SCENARIOS / "unicycle_square.json")
    n_waypoints = len(stack.sc["references"]["waypoints"]["points"])
    t0 = time.perf_counter()
    log = stack.run(stack.seed)
    elapsed = time.perf_counter() - t0

    U = stack.schedule.input_sets[0]  # U~(0) = U, the raw input box
    executed = log.u[np.isfinite(log.u).all(axis=1)]  # halt row logs NaN input
    input_ok = all(margin(U, u) >= -1e-9 for u in executed)
    reached = list(log.reached_steps)
    gaps = np.diff([0, *reached]) if reached else np.array([])
    all_reached = len(reached) == n_waypoints and (gaps <= 400).all()
    _report(
        "unicycle waypoint course",
        log.halted_at is None and all_reached and input_ok and elapsed < 60.0,
        f"reached {len(reached)}/{n_waypoints} waypoints "
        f"(each within 400 steps: {bool(all_reached)}), halted_at="
        f"{log.halted_at}, inputs in bounds {input_ok}, runtime {elapsed:.1f}s",
    )
