import re

import numpy as np
import pytest

from koopmpc import sim as sim_module
from koopmpc.controller import KtmpcConfig, TrackingProblem
from koopmpc.gains import dlqr
from koopmpc.model import DisturbanceModel, LiftingSpec, make_model
from koopmpc.sets import Zonotope, box_polytope, box_zonotope, sample, tighten_constraints
from koopmpc.sim import (
    ReferenceSchedule,
    SimLog,
    _RefCursor,
    generate_training_data,
    numerical_example_plant,
    run_closed_loop,
    save_log_csv,
    step_plant,
    tracking_metrics,
    unicycle_plant,
)
from oracles import numerical_example_matrices


def exact_model():
    A, B = numerical_example_matrices(-0.1, 2.0)
    spec = LiftingSpec(kind="explicit", n_x=2, exponents=[[2, 0]])
    return make_model(A, B, spec, output_matrix=[[0.0, 1.0]])


def make_loop_setup(W=None, V=None, N=10, s=1000.0):
    model = exact_model()
    gains = dlqr(model.A, model.B, np.eye(3), np.eye(1))
    X = box_polytope([-5.0, -5.0], [5.0, 5.0])
    U = box_polytope([-3.0], [3.0])
    dist = DisturbanceModel(
        W=W if W is not None else box_zonotope([0.0, 0.0, 0.0]),
        V=V if V is not None else box_zonotope([0.0, 0.0]),
    )
    schedule = tighten_constraints(X, U, dist, model.A, model.B, gains.K, model.C_x, N)
    config = KtmpcConfig(N=N, Q=np.eye(3), R=np.eye(1), s=s, K=gains.K)
    return TrackingProblem(model, config, schedule)


# --- plants ---------------------------------------------------------------------

def test_step_plant_numerical_example():
    plant = numerical_example_plant()
    x_next, y, w, v = step_plant(plant, [1.0, 0.0], [0.0])
    assert np.allclose(x_next, [-0.1, -1.99])
    assert y[0] == pytest.approx(-1.99)
    assert np.allclose(w, 0.0) and np.allclose(v, 0.0)
    x_next, _, _, _ = step_plant(plant, [0.0, 0.0], [0.0])
    assert np.allclose(x_next, 0.0)


def test_step_plant_injects_in_lifted_coordinates():
    plant = numerical_example_plant()
    W = box_zonotope([0.2, 0.2, 0.2])
    V = box_zonotope([0.1, 0.1])
    r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
    xa, ya, wa, va = step_plant(plant, [1.0, 0.5], [0.3], rng=r1, W=W, V=V)
    xb, yb, wb, vb = step_plant(plant, [1.0, 0.5], [0.3], rng=r2, W=W, V=V)
    assert np.array_equal(xa, xb) and np.array_equal(wa, wb) and np.array_equal(va, vb)
    assert np.all(np.abs(wa) <= 0.2) and np.all(np.abs(va) <= 0.1)
    nominal = np.array([-0.1, 2.0 * 0.5 - 1.99 * 1.0 + 0.3])
    assert np.allclose(xa, nominal + wa[:2] + va)
    assert ya[0] == pytest.approx(xa[1])


def test_step_plant_unicycle():
    plant = unicycle_plant(dt=0.1)
    x_next, y, w, v = step_plant(plant, [0.0, 0.0, 0.0], [1.0, 0.0])
    assert np.allclose(x_next, [0.1, 0.0, 0.0])
    assert np.allclose(y, [0.1, 0.0])
    assert w.size == 0 and v.size == 0
    x_next, _, _, _ = step_plant(plant, [0.0, 0.0, 0.0], [0.0, 1.0])
    assert np.allclose(x_next, [0.0, 0.0, 0.1])
    with pytest.raises(ValueError):
        step_plant(plant, [0.0, 0.0, 0.0], [1.0, 0.0], rng=np.random.default_rng(0),
                   W=box_zonotope([0.1, 0.1, 0.1]))


@pytest.mark.parametrize("x, u, kwargs, named", [
    ([1.0, 0.0, 0.0], [0.0], {}, "expected shapes (2,) and (1,)"),
    ([1.0, 0.0], [0.0, 0.0], {}, "expected shapes (2,) and (1,)"),
    ([1.0, 0.0], [0.0], {"W": box_zonotope([0.1] * 3)}, "disturbance injection requires an rng"),
    ([1.0, 0.0], [0.0], {"V": box_zonotope([0.1] * 2)}, "disturbance injection requires an rng"),
    ([1.0, 0.0], [0.0], {"W": box_zonotope([0.1] * 2)}, "W must be 3-dimensional and V 2-dimensional"),
    ([1.0, 0.0], [0.0], {"V": box_zonotope([0.1] * 3)}, "W must be 3-dimensional and V 2-dimensional"),
], ids=["x-length", "u-length", "W-without-rng", "V-without-rng", "W-size", "V-size"])
def test_step_plant_rejects_bad_shapes_and_injections(x, u, kwargs, named):
    if "rng" not in named:
        kwargs = kwargs | {"rng": np.random.default_rng(0)}
    with pytest.raises(ValueError, match=re.escape(named)):
        step_plant(numerical_example_plant(), x, u, **kwargs)


def test_plant_invariants():
    p = numerical_example_plant()
    assert (p.n_x, p.n_u) == (2, 1)
    assert np.array_equal(p.C, [[0.0, 1.0]])
    u = unicycle_plant(dt=0.05)
    assert (u.n_x, u.n_u) == (3, 2)
    assert np.array_equal(u.C, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # Batched maps agree with single steps.
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    U = np.array([[0.0], [0.0]])
    assert np.allclose(p.f(X, U), [[-0.1, -1.99], [0.0, 0.0]])


def test_numerical_example_f_is_its_exact_lifted_step(rng):
    # One map for batches and single rows: x+ = first two coordinates of
    # A_lift (x1, x2, x1^2) + B_lift u, bit for bit, which is the closed form.
    p = numerical_example_plant(lam=-0.3, mu=1.5)
    X, U = rng.uniform(-5.0, 5.0, (200, 2)), rng.uniform(-3.0, 3.0, (200, 1))
    lifted = np.column_stack([X, X[:, 0] ** 2]) @ p.A_lift.T + U @ p.B_lift.T
    assert np.array_equal(p.f(X, U), lifted[:, :2])
    for x, u, row in zip(X, U, p.f(X, U)):
        assert np.array_equal(p.f(x, u), row)
    closed = np.column_stack([-0.3 * X[:, 0], 1.5 * X[:, 1] + (0.09 - 1.5) * X[:, 0] ** 2 + U[:, 0]])
    assert np.allclose(p.f(X, U), closed, rtol=1e-14, atol=1e-14)


# --- training data ----------------------------------------------------------------

def test_generate_training_data_counts_and_bounds():
    plant = unicycle_plant(dt=0.1)
    state_box = Zonotope(center=[3.0, 3.0, 0.0], generators=np.diag([2.5, 2.5, np.pi]))
    input_box = Zonotope(center=[0.5, 0.0], generators=np.diag([0.5, 2.0]))
    data = generate_training_data(plant, n_traj=3, traj_len=7, input_box=input_box,
                                  state_box=state_box, seed=11)
    assert len(data.trajectories) == 3
    for states, inputs in data.trajectories:
        assert states.shape == (8, 3)
        assert inputs.shape == (7, 2)
        assert np.all(inputs[:, 0] >= 0.0) and np.all(inputs[:, 0] <= 1.0)
        assert np.all(np.abs(inputs[:, 1]) <= 2.0)
    assert np.all(np.abs(data.trajectories[0][0][0] - [3.0, 3.0, 0.0]) <= [2.5, 2.5, np.pi])


def test_generate_training_data_deterministic():
    plant = numerical_example_plant()
    kw = dict(
        n_traj=4,
        traj_len=3,
        input_box=box_zonotope([3.0]),
        state_box=box_zonotope([2.0, 2.0]),
    )
    a = generate_training_data(plant, seed=5, **kw)
    b = generate_training_data(plant, seed=5, **kw)
    c = generate_training_data(plant, seed=6, **kw)
    for (sa, ua), (sb, ub) in zip(a.trajectories, b.trajectories):
        assert np.array_equal(sa, sb) and np.array_equal(ua, ub)
    assert not np.array_equal(a.trajectories[0][0], c.trajectories[0][0])


def spread_boxes(n_x, n_u):
    """State and input boxes with a different center and half-extent per axis."""
    return (box_zonotope(np.linspace(1.0, 2.0, n_x), center=np.linspace(-0.5, 0.5, n_x)),
            box_zonotope(np.linspace(0.5, 3.0, n_u), center=np.linspace(0.2, 0.4, n_u)))


@pytest.mark.parametrize("plant, boxes, n_traj, seed", [
    (numerical_example_plant(), spread_boxes(2, 1), 5, 3),
    (unicycle_plant(dt=0.1), spread_boxes(3, 2), 5, 3),
    # scenarios/a1.json's own generation, 800 steps: enough for a step that
    # squared x1 one way in the batch and another in step_plant to show.
    (numerical_example_plant(), (box_zonotope([2.0, 2.0]), box_zonotope([3.0])), 200, 0),
], ids=["numerical_example", "unicycle", "a1_scenario"])
def test_generate_training_data_matches_one_rollout_at_a_time(plant, boxes, n_traj, seed):
    """Stepping all trajectories together gives the bits of a per-trajectory
    rollout through sample() and step_plant(), draw for draw."""
    state_box, input_box = boxes
    data = generate_training_data(plant, n_traj=n_traj, traj_len=4, input_box=input_box,
                                  state_box=state_box, seed=seed)
    rng = np.random.default_rng(seed)
    assert len(data.trajectories) == n_traj
    for states, inputs in data.trajectories:
        x = sample(state_box, rng)
        assert np.array_equal(states[0], x)
        for t in range(4):
            u = sample(input_box, rng)
            x = step_plant(plant, x, u)[0]
            assert np.array_equal(inputs[t], u) and np.array_equal(states[t + 1], x)


def test_generate_training_data_steps_the_lifted_model_in_one_batch(monkeypatch):
    """a1's generation makes no step_plant call: each time index is one
    batched lifted step of all 200 trajectories."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return step_plant(*args, **kwargs)

    monkeypatch.setattr(sim_module, "step_plant", counted)
    data = generate_training_data(numerical_example_plant(), n_traj=200, traj_len=4,
                                  input_box=box_zonotope([3.0]),
                                  state_box=box_zonotope([2.0, 2.0]), seed=0)
    assert calls == []
    assert data.states.shape == (1000, 2) and data.inputs.shape == (800, 1)


# --- reference schedules --------------------------------------------------------------

def test_reference_schedule_validation():
    ReferenceSchedule.timed([(0, [1.0]), (100, [-1.0])])
    with pytest.raises(ValueError):
        ReferenceSchedule.timed([(5, [1.0])])  # must start at step 0
    with pytest.raises(ValueError):
        ReferenceSchedule.timed([(0, [1.0]), (0, [2.0])])  # strictly increasing
    with pytest.raises(ValueError):
        ReferenceSchedule.waypoints([[1.0, 1.0]], switch_radius=0.0)


@pytest.mark.parametrize("entries, named", [
    ([(0, [1.0]), (2.5, [2.0])], "timed[1] start step must be an integer >= 0, got 2.5"),
    ([(0, [1.0]), (True + 3, [2.0])], None),  # an int, from a bool sum, is a start step
    ([(True, [1.0])], "timed[0] start step must be an integer >= 0, got True"),
    ([(np.bool_(False), [1.0])], "timed[0] start step must be an integer >= 0"),
    ([(0, [1.0]), (-2, [2.0])], "timed[1] start step must be an integer >= 0, got -2"),
    ([(0, [1.0]), ("3", [2.0])], "timed[1] start step must be an integer >= 0, got '3'"),
    ([(np.int64(0), [1.0]), (np.int32(4), [2.0])], None),
    ([(0, [1.0]), (2, [2.0]), (4, [1.0, 2.0, 3.0])],
     "timed targets must all have one length, got lengths [1, 1, 3]"),
])
def test_timed_schedule_rejects_what_it_would_truncate(entries, named):
    # int(k) used to run a start of 2.5 as step 2 and True as step 1.
    if named is None:
        refs = ReferenceSchedule.timed(entries)
        assert [k for k, _ in refs.entries] == [int(k) for k, _ in entries]
        assert all(type(k) is int for k, _ in refs.entries)
    else:
        with pytest.raises(ValueError, match=re.escape(named)):
            ReferenceSchedule.timed(entries)


@pytest.mark.parametrize("points, radius, named", [
    ([[1.0, 1.0]], True, "switch_radius must be a finite positive number, got True"),
    ([[1.0, 1.0]], np.bool_(True), "switch_radius must be a finite positive number"),
    ([[1.0, 1.0]], float("inf"), "switch_radius must be a finite positive number, got inf"),
    ([[1.0, 1.0]], float("nan"), "switch_radius must be a finite positive number, got nan"),
    ([[1.0, 1.0]], -0.3, "switch_radius must be a finite positive number, got -0.3"),
    ([[1.0, 1.0]], "0.3", "switch_radius must be a finite positive number, got '0.3'"),
    ([[1.0, 1.0], [2.0]], 0.3, "waypoints must all have one length, got lengths [2, 1]"),
])
def test_waypoint_schedule_rejects_a_bad_radius_or_ragged_points(points, radius, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        ReferenceSchedule.waypoints(points, switch_radius=radius)


def test_waypoint_schedule_takes_a_numpy_radius():
    refs = ReferenceSchedule.waypoints([[1.0, 1.0]], switch_radius=np.float32(0.25))
    assert refs.switch_radius == 0.25 and type(refs.switch_radius) is float


def test_timed_cursor_lookup():
    refs = ReferenceSchedule.timed([(0, [1.0]), (3, [2.0]), (7, [-1.0])])
    cur = _RefCursor(refs)
    got = [cur.advance(k, position=None)[0] for k in range(9)]
    assert got == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, -1.0, -1.0]
    assert cur.reached_steps == []


def test_waypoint_cursor_switching():
    refs = ReferenceSchedule.waypoints([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], switch_radius=0.3)
    cur = _RefCursor(refs)
    y0 = cur.advance(0, position=np.array([0.9, -0.9]))  # far from (0,0)
    assert np.allclose(y0, [0.0, 0.0])
    y1 = cur.advance(1, position=np.array([0.1, 0.1]))  # inside radius of wp0
    assert np.allclose(y1, [1.0, 0.0])
    y2 = cur.advance(2, position=np.array([0.95, 0.05]))  # inside radius of wp1
    assert np.allclose(y2, [1.0, 1.0])
    y3 = cur.advance(3, position=np.array([1.0, 0.95]))  # arrival at last wp
    assert np.allclose(y3, [1.0, 1.0])
    assert cur.reached_steps == [1, 2, 3]
    # Arrival at the last waypoint is recorded once.
    cur.advance(4, position=np.array([1.0, 1.0]))
    assert cur.reached_steps == [1, 2, 3]


# --- closed loop -----------------------------------------------------------------------

def test_nominal_closed_loop_converges():
    problem = make_loop_setup()
    plant = numerical_example_plant()
    refs = ReferenceSchedule.timed([(0, [1.0])])
    log = run_closed_loop(plant, problem, refs, T=101, seed=0)
    assert log.k.size == 101
    assert abs(log.y[-1, 0] - 1.0) <= 1e-4
    assert abs(log.u[-1, 0] + 1.0) <= 1e-4
    assert np.all(log.feasible)
    assert np.all(np.diff(log.J_N) <= 1e-7)
    assert np.all(log.y[:, 0] == log.x[:, 1])
    # margin_min is the shifted-candidate margin; undefined at the first step.
    assert np.isnan(log.margin_min[0])
    assert np.nanmin(log.margin_min) >= -1e-9


def test_closed_loop_deterministic():
    W = box_zonotope([0.31, 0.31, 0.125])
    problem = make_loop_setup(W=W)
    plant = numerical_example_plant()
    inject = DisturbanceModel(W=box_zonotope([0.2, 0.2, 0.2]), V=box_zonotope([0.1, 0.1]))
    refs = ReferenceSchedule.timed([(0, [1.0])])
    a = run_closed_loop(plant, problem, refs, disturbances=inject, T=40, seed=3)
    # The second run starts from the first one's stored support and steady targets.
    b = run_closed_loop(plant, problem, refs, disturbances=inject, T=40, seed=3)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.u, b.u)
    assert np.array_equal(a.w_inj, b.w_inj) and np.array_equal(a.v_inj, b.v_inj)


def test_disturbed_closed_loop_stays_feasible():
    # Controller declares the effective lifted disturbance bounds; the plant is
    # driven with the raw injected boxes those bounds were derived from.
    W_ctl = box_zonotope([0.31, 0.31, 0.125])
    problem = make_loop_setup(W=W_ctl)
    plant = numerical_example_plant()
    inject = DisturbanceModel(W=box_zonotope([0.2, 0.2, 0.2]), V=box_zonotope([0.1, 0.1]))
    refs = ReferenceSchedule.timed([(0, [1.0]), (30, [-1.0])])
    log = run_closed_loop(plant, problem, refs, disturbances=inject, T=60, seed=1)
    assert np.all(log.feasible)
    assert np.nanmin(log.margin_min) >= -1e-9
    assert np.all(np.abs(log.x) <= 5.0 + 1e-9)
    assert np.all(np.abs(log.u) <= 3.0 + 1e-9)
    assert np.all(np.abs(log.w_inj) <= 0.2) and np.all(np.abs(log.v_inj) <= 0.1)


def test_infeasible_initial_state():
    problem = make_loop_setup()
    plant = numerical_example_plant()
    refs = ReferenceSchedule.timed([(0, [1.0])])
    log = run_closed_loop(plant, problem, refs, T=10, seed=0, x0=[0.0, 10.0])
    assert log.halted_at == 0
    assert log.k.tolist() == [0]
    assert log.feasible[-1] == False  # noqa: E712


def test_undeclared_disturbance_can_halt_run():
    # Declare zero disturbance but inject the full boxes: the run either halts
    # with a retained log or survives with some negative candidate margin.
    problem = make_loop_setup()
    plant = numerical_example_plant()
    inject = DisturbanceModel(W=box_zonotope([0.2, 0.2, 0.2]), V=box_zonotope([0.1, 0.1]))
    refs = ReferenceSchedule.timed([(0, [4.0])])
    log = run_closed_loop(plant, problem, refs, disturbances=inject, T=80, seed=2)
    if log.halted_at is None:
        assert log.k.size == 80
        assert np.nanmin(log.margin_min) < 0
    else:
        assert log.halted_at > 0
        assert log.k.size == log.halted_at + 1
        assert log.feasible[log.halted_at] == False  # noqa: E712
        assert np.sum(~log.feasible) == 1


# --- metrics and persistence -------------------------------------------------------------

def test_tracking_metrics_nominal():
    problem = make_loop_setup()
    plant = numerical_example_plant()
    refs = ReferenceSchedule.timed([(0, [1.0]), (60, [-1.0])])
    log = run_closed_loop(plant, problem, refs, T=120, seed=0)
    m = tracking_metrics(log, settle_window=10)
    assert m["final_error"] <= 1e-4
    assert m["mean_settled_error"] <= 1e-4
    assert m["max_constraint_violation"] == 0.0
    assert m["steps_to_waypoints"] == []


def test_tracking_metrics_empty_log():
    problem = make_loop_setup()
    plant = numerical_example_plant()
    refs = ReferenceSchedule.timed([(0, [1.0])])
    log = run_closed_loop(plant, problem, refs, T=0, seed=0)
    assert log.k.size == 0 and log.halted_at is None
    with pytest.raises(ValueError):
        tracking_metrics(log, 10)


def _log_with_margins(state_margin):
    """Three identical on-target steps with a prescribed worst state margin."""
    n = 3
    col = lambda v: np.full((n, 1), float(v))
    return SimLog(
        k=np.arange(n), x=np.zeros((n, 2)), u=np.zeros((n, 1)),
        y=col(1.0), y_t=col(1.0), y_s=col(1.0), u_s=col(0.0), y_sr=col(1.0),
        J_N=np.zeros(n), V1=np.zeros(n), V2=np.zeros(n),
        feasible=np.ones(n, dtype=bool), margin_min=np.zeros(n),
        state_margin=np.full(n, float(state_margin)), input_margin=np.ones(n),
        w_inj=np.zeros((n, 3)), v_inj=np.zeros((n, 2)),
    )


def test_tracking_metrics_violation_respects_membership_tolerance():
    # An active bound solved to machine precision is not a violation...
    assert tracking_metrics(_log_with_margins(-5e-16), 2)["max_constraint_violation"] == 0.0
    # ...but anything beyond the membership tolerance reports its magnitude.
    assert tracking_metrics(_log_with_margins(-0.5), 2)["max_constraint_violation"] == 0.5


def test_save_log_csv(tmp_path):
    problem = make_loop_setup()
    plant = numerical_example_plant()
    refs = ReferenceSchedule.timed([(0, [1.0])])
    log = run_closed_loop(plant, problem, refs, T=5, seed=0)
    path = tmp_path / "log.csv"
    save_log_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,x_0,x_1,u_0,y_0,yt_0,ys_0,us_0,JN,V1,V2,feasible,margin_min"
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[-2] == "1"
    assert float(cells[4]) == log.y[0, 0]
    save_log_csv(log, tmp_path / "log2.csv")
    assert (tmp_path / "log2.csv").read_bytes() == path.read_bytes()
