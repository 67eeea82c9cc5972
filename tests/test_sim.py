import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from koopmpc import cli
from koopmpc import sim as sim_module
from koopmpc.controller import KtmpcConfig, TrackingProblem, solve_steady
from koopmpc.gains import dlqr
from koopmpc.model import (
    DisturbanceModel, LiftingSpec, TrajectoryData, load_trajectories, make_model, save_trajectories,
)
from koopmpc.sets import (
    Zonotope, box_polytope, box_zonotope, margin, sample, tighten_constraints,
)
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
from oracles import (
    numerical_example_matrices,
    reference_closed_loop,
    save_log_csv_with_csv_writer,
    training_data_by_list,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def exact_model():
    A, B = numerical_example_matrices(-0.1, 2.0)
    spec = LiftingSpec(n_x=2, exponents=[[2, 0]])
    return make_model(A, B, spec, output_matrix=[[0.0, 1.0]])


def make_loop_setup(W=None, V=None, N=10, s=1000.0, C_y=None):
    model = exact_model() if C_y is None else dataclasses.replace(exact_model(), C_y=C_y)
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


@pytest.mark.parametrize("make, named", [
    (lambda: unicycle_plant(dt=float("inf")), "dt must be a finite positive number, got inf"),
    (lambda: unicycle_plant(dt=True), "dt must be a finite positive number, got True"),
    (lambda: unicycle_plant(dt=-0.1), "dt must be a finite positive number, got -0.1"),
    (lambda: numerical_example_plant(lam="-0.1"), "lambda must be a finite number, got '-0.1'"),
    (lambda: numerical_example_plant(mu=math.nan), "mu must be a finite number, got nan"),
    (lambda: numerical_example_plant(lam=10**400), "lambda must be a finite number, got 1000"),
    (lambda: numerical_example_plant(lam=-1e200), "lambda must have a finite square, got -1e+200"),
], ids=["dt-inf", "dt-bool", "dt-negative", "lambda-string", "mu-nan", "lambda-big-int",
        "lambda-square-overflow"])
def test_plants_check_their_parameters(make, named):
    # unicycle_plant(dt=inf) used to build a plant whose every step is inf or
    # nan; a scenario's plant.params is checked here, the key named after it.
    with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
        make()


def test_step_plant_injects_in_lifted_coordinates():
    # The caller draws the noise; step_plant adds w's first two lifted
    # coordinates and v to the nominal step and returns the noise it added.
    plant = numerical_example_plant()
    rng = np.random.default_rng(7)
    w, v = sample(box_zonotope([0.2, 0.2, 0.2]), rng), sample(box_zonotope([0.1, 0.1]), rng)
    xa, ya, wa, va = step_plant(plant, [1.0, 0.5], [0.3], w, v)
    xb, yb, wb, vb = step_plant(plant, [1.0, 0.5], [0.3], w=w.copy(), v=v.copy())
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    assert np.array_equal(wa, w) and np.array_equal(va, v) and np.array_equal(wb, w)
    assert np.all(np.abs(wa) <= 0.2) and np.all(np.abs(va) <= 0.1)
    nominal = step_plant(plant, [1.0, 0.5], [0.3])[0]
    assert np.allclose(nominal, [-0.1, 2.0 * 0.5 - 1.99 * 1.0 + 0.3])
    assert np.array_equal(xa, nominal + w[:2] + v)
    assert np.array_equal(ya, plant.C @ xa)
    # Either noise left out is zero.
    assert np.array_equal(step_plant(plant, [1.0, 0.5], [0.3], w=w)[0], nominal + w[:2] + 0.0)
    x_v, _, w_v, _ = step_plant(plant, [1.0, 0.5], [0.3], v=v)
    assert np.array_equal(x_v, nominal + 0.0 + v) and np.array_equal(w_v, np.zeros(3))


def test_step_plant_unicycle():
    plant = unicycle_plant(dt=0.1)
    x_next, y, w, v = step_plant(plant, [0.0, 0.0, 0.0], [1.0, 0.0])
    assert np.allclose(x_next, [0.1, 0.0, 0.0])
    assert np.allclose(y, [0.1, 0.0])
    assert w.size == 0 and v.size == 0
    x_next, _, _, _ = step_plant(plant, [0.0, 0.0, 0.0], [0.0, 1.0])
    assert np.allclose(x_next, [0.0, 0.0, 0.1])
    for noise in ({"w": np.zeros(3)}, {"v": np.zeros(3)}):
        with pytest.raises(ValueError, match="the unicycle plant takes no injected disturbance"):
            step_plant(plant, [0.0, 0.0, 0.0], [1.0, 0.0], **noise)


@pytest.mark.parametrize("x, u, kwargs, named", [
    ([1.0, 0.0, 0.0], [0.0], {}, "x must have shape (2,), got (3,)"),
    ([1.0, 0.0], [0.0, 0.0], {}, "u must have shape (1,), got (2,)"),
    ([1.0, 0.0], [0.0], {"w": [0.1] * 2}, "w must have shape (3,), got (2,)"),
    ([1.0, 0.0], [0.0], {"v": [0.1] * 3}, "v must have shape (2,), got (3,)"),
    ([1.0, 0.0], [0.0], {"w": [[0.1] * 3]}, "w must have shape (3,), got (1, 3)"),
    ([1.0, 0.0], [0.0], {"w": [0.1] * 3, "v": 0.1}, "v must have shape (2,), got (1,)"),
], ids=["x-length", "u-length", "W-size", "V-size", "w-row", "v-scalar"])
def test_step_plant_rejects_bad_shapes_and_injections(x, u, kwargs, named):
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


@pytest.mark.parametrize("plant", [numerical_example_plant(), unicycle_plant(dt=0.1)],
                         ids=["numerical_example", "unicycle"])
@pytest.mark.parametrize("n_traj, traj_len", [(1, 1), (1, 6), (7, 1), (40, 5)])
@pytest.mark.parametrize("seed", range(4))
def test_training_data_matches_the_list_and_stack_rollout_bit_for_bit(plant, n_traj, traj_len,
                                                                      seed):
    # Boxes of odd seeds have dense generator matrices with more generators
    # than dimensions; the others are axis-aligned.
    rng = np.random.default_rng(seed)

    def box(n):
        if seed % 2:
            return Zonotope(rng.standard_normal(n), rng.standard_normal((n, n + 2)))
        return box_zonotope(rng.uniform(0.5, 3.0, n), center=rng.standard_normal(n))

    boxes = {"state_box": box(plant.n_x), "input_box": box(plant.n_u)}
    data = generate_training_data(plant, n_traj, traj_len, seed=seed, **boxes)
    states, inputs = training_data_by_list(plant, n_traj, traj_len, seed=seed, **boxes)
    assert data.states.tobytes() == states.reshape(-1, plant.n_x).tobytes()
    assert data.inputs.tobytes() == inputs.reshape(-1, plant.n_u).tobytes()
    assert data.lengths.tolist() == [traj_len + 1] * n_traj


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


@pytest.mark.parametrize("source", ["generate", "from_pairs", "load"])
def test_generated_training_data_keeps_its_stacks_without_a_second_copy(tmp_path, monkeypatch,
                                                                        source):
    """generate_training_data, TrajectoryData.from_pairs and load_trajectories
    (of a save_trajectories CSV) hand the stacks they allocated to
    TrajectoryData, which keeps them read-only as they are: the copying
    constructor is never entered, and no caller's array is aliased. The
    stacks equal those the copying constructor makes of the generated ones."""
    box_kwargs = {"input_box": box_zonotope([1.0, 1.0]), "state_box": box_zonotope([1.0] * 3)}
    made = generate_training_data(unicycle_plant(), n_traj=6, traj_len=4, seed=5, **box_kwargs)
    batch = TrajectoryData(made.states, made.inputs, made.lengths)
    save_trajectories(made, tmp_path / "data.csv")
    monkeypatch.setattr(TrajectoryData, "__post_init__", lambda self: pytest.fail("copied"))
    data = {"generate": lambda: generate_training_data(unicycle_plant(), n_traj=6, traj_len=4,
                                                       seed=5, **box_kwargs),
            "from_pairs": lambda: TrajectoryData.from_pairs(made.trajectories),
            "load": lambda: load_trajectories(tmp_path / "data.csv")}[source]()
    for kept, copied in ((data.states, batch.states), (data.inputs, batch.inputs),
                         (data.lengths, batch.lengths)):
        assert not kept.flags.writeable and copied.flags.owndata
        assert kept.dtype == copied.dtype and kept.tobytes() == copied.tobytes()
        assert not np.shares_memory(kept, made.states) and not np.shares_memory(kept, made.inputs)


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


@pytest.mark.parametrize("radius", [0.3, 1.0, 2.5e-3])
def test_a_waypoint_switches_where_the_norm_falls_below_the_radius(radius):
    # The cursor takes the distance as sqrt(d . d), the form np.linalg.norm
    # computes for a float vector, so the two agree bit for bit. Along an axis
    # the distance is exact: one ulp inside switch_radius switches, the radius
    # itself and one ulp outside do not. Off the axes, near the radius, each
    # switch is the one that np.linalg.norm(d) < switch_radius gives.
    refs = ReferenceSchedule.waypoints([[0.0, 0.0], [5.0, 5.0]], switch_radius=radius)

    def switches(position):
        cursor = _RefCursor(refs)
        cursor.advance(0, position=position)
        return cursor.reached_steps == [0]

    inside, outside = np.nextafter(radius, 0.0), np.nextafter(radius, np.inf)
    for sign, axis in itertools.product((1.0, -1.0), np.eye(2)):
        got = [switches(sign * r * axis) for r in (inside, radius, outside)]
        assert got == [True, False, False]
    rng = np.random.default_rng(17)
    wp, outcomes = refs.points[0], set()
    for direction in rng.standard_normal((500, 2)):
        d = direction * (radius / np.linalg.norm(direction))
        for position in (d, np.nextafter(d, 0.0), np.nextafter(d, np.inf)):
            norm = np.linalg.norm(position - wp)
            assert math.sqrt((position - wp).dot(position - wp)) == norm
            assert switches(position) == (norm < radius)
            outcomes.add(norm < radius)
    assert outcomes == {True, False}


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


def assert_same_log(a: SimLog, b: SimLog) -> None:
    """Every SimLog field equal, each column to the bit (dtype, shape, NaNs and -0.0)."""
    for f in dataclasses.fields(SimLog):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and va.shape == vb.shape, f.name
            assert np.array_equal(va, vb, equal_nan=True), f.name
            assert va.tobytes() == vb.tobytes(), f.name
        else:
            assert va == vb, f.name


@pytest.fixture(scope="module")
def scenario_stacks():
    return {name: cli.build_stack(SCENARIOS / f"{name}.json") for name in ("a2", "unicycle_square")}


def random_zonotope(rng, n, g, row_sum):
    """A zonotope with g random (non-box) generators whose rows have |G| sums of
    ``row_sum``, around a center near the origin (so it holds the origin)."""
    G = rng.uniform(-1.0, 1.0, (n, g))
    G *= row_sum / np.abs(G).sum(axis=1, keepdims=True)
    return Zonotope(center=G @ rng.uniform(-0.1, 0.1, g), generators=G)


def loop_case(name, stacks):
    """(plant, a fresh-problem factory, refs, injected, T, x0, seeds, halted_at)."""
    if name in stacks:
        st = stacks[name]
        return (st.plant, lambda: dataclasses.replace(st).problem, st.refs, st.injected, st.T,
                st.x0, (0, 1, 2) if name == "a2" else (st.seed,),
                None if name == "a2" else 29)
    declared = box_zonotope([0.31, 0.31, 0.125])
    rng = np.random.default_rng(2028)
    injected = {
        "random_generators": DisturbanceModel(W=random_zonotope(rng, 3, 5, 0.15),
                                              V=random_zonotope(rng, 2, 3, 0.08)),
        "W_without_generators": DisturbanceModel(
            W=Zonotope(center=[0.0, -0.0, 0.0], generators=np.zeros((3, 0))),
            V=box_zonotope([0.1, 0.1])),
        "V_without_generators": DisturbanceModel(
            W=box_zonotope([0.2, 0.2, 0.2]),
            V=Zonotope(center=[-0.0, -0.0], generators=np.zeros((2, 0)))),
    }.get(name)
    T, x0, halted_at = {"halt_at_step_0": (10, [0.0, 10.0], 0), "T_0": (0, None, None)}.get(
        name, (60, None, None))
    refs = ReferenceSchedule.timed([(0, [1.0]), (30, [-1.0])])
    plant, C_y = numerical_example_plant(), None
    if name == "dense_output_matrix":  # two outputs, each a mix of both states
        plant = dataclasses.replace(plant, C=np.array([[0.7, 0.9], [-0.4, 1.3]]))
        C_y = plant.C @ exact_model().C_x
        refs = ReferenceSchedule.timed([(0, [1.0, 0.5]), (30, [-1.0, 0.25])])
    return (plant, lambda: make_loop_setup(W=declared, C_y=C_y), refs, injected, T, x0, (0, 1),
            halted_at)


@pytest.mark.parametrize("name", ["a2", "random_generators", "W_without_generators",
                                  "V_without_generators", "halt_at_step_0", "unicycle_square",
                                  "T_0", "dense_output_matrix"])
def test_run_closed_loop_matches_the_step_by_step_loop(scenario_stacks, name):
    """The run with its noise drawn once and its log preallocated gives every
    SimLog field of the loop that samples each step and keeps rows in lists,
    bit for bit. Each side runs its seeds in turn on a problem of its own, so
    both see the same stored supports and steady targets. The run forms its
    targets' y_s and offset costs after the last step, by per-row products;
    a plant with a dense two-row C checks them where C_y is not a selector."""
    plant, make_problem, refs, injected, T, x0, seeds, halted_at = loop_case(name, scenario_stacks)
    reference_problem, problem = make_problem(), make_problem()
    for seed in seeds:
        expected = reference_closed_loop(plant, reference_problem, refs, disturbances=injected,
                                         T=T, seed=seed, x0=x0)
        log = run_closed_loop(plant, problem, refs, disturbances=injected, T=T, seed=seed, x0=x0)
        assert_same_log(log, expected)
        assert log.halted_at == halted_at
        assert log.k.size == (T if halted_at is None else halted_at + 1)
    if name == "unicycle_square":
        assert log.reached_steps == ()
    if name == "dense_output_matrix":  # the targets miss y_t in both outputs: e is dense too
        assert np.all(plant.C != 0.0) and np.all(log.y_s != log.y_t)
    if name == "random_generators":
        # A batched xi G' would not pass here: it differs in bits from the
        # per-step G xi on some of this run's rows.
        W, V = injected.W, injected.V
        xi = np.random.default_rng(seeds[-1]).uniform(-1.0, 1.0, (T, 8))
        per_step = np.array([W.center + W.generators @ row for row in xi[:, :5]])
        assert not np.array_equal(per_step, W.center + xi[:, :5] @ W.generators.T)
        assert np.any(log.v_inj != 0.0) and V.generators.shape == (2, 3)


@pytest.mark.parametrize("name", ["a2", "unicycle_square", "declared_W", "no_disturbance"])
def test_margin_of_a_stack_is_the_per_point_margin_bit_for_bit_on_the_loop_sets(
        scenario_stacks, name):
    # The run forms its state and input margins with one stacked call each.
    # Every set the loop tests build is a box, whose slacks are exact, so each
    # entry has the bits of the per-point call: on every tightened set of the
    # schedule, at a run's logged rows, at random points and on the planes of
    # its upper and lower bounds.
    if name in scenario_stacks:
        stack = scenario_stacks[name]
        problem, log = stack.problem, stack.run(stack.seed)
    else:
        problem = make_loop_setup(W=box_zonotope([0.31, 0.31, 0.125]) if name == "declared_W"
                                  else None)
        log = run_closed_loop(numerical_example_plant(), problem,
                              ReferenceSchedule.timed([(0, [1.0]), (30, [-1.0])]), T=60)
    rng = np.random.default_rng(11)
    for sets, logged in ((problem.schedule.state_sets, log.x), (problem.schedule.input_sets,
                                                                   log.u[np.isfinite(log.u[:, 0])])):
        for S in sets:
            X = np.concatenate([logged, rng.uniform(-8.0, 8.0, (50, S.dim)),
                                np.diag(S.offsets[: S.dim]), -np.diag(S.offsets[S.dim :])])
            stacked = margin(S, X)
            assert stacked.shape == (X.shape[0],)
            assert stacked.tobytes() == np.array([margin(S, x) for x in X]).tobytes()


def test_a_run_whose_cost_falls_below_the_offline_offset_still_raises_naming_v2_and_the_step(
        monkeypatch):
    # V2 = J_N - J_eq~ is checked once per run, after the last step; a step
    # whose J_N, its QP objective plus s |y_t|^2, falls below the offline
    # offset cost by more than V2's floor still fails the run, and the error
    # names V2 and that step. The run forms J_N from the objective, so step 4's
    # objective is lowered, and V2 is -0.001 to the rounding of that sum.
    problem = make_loop_setup()
    refs = ReferenceSchedule.timed([(0, [1.0])])
    J_eq, c = solve_steady(problem, [1.0]).offset_cost, problem.config.s * 1.0
    objective = J_eq - 1e-3 * max(1.0, J_eq) - c
    V2 = (objective + c) - J_eq
    assert V2 == pytest.approx(-1e-3, rel=1e-9)
    solve, calls = sim_module.solve_step, []

    def low_objective_at_step_4(*args):
        u_k, sol = solve(*args)
        calls.append(1)
        if len(calls) == 5:
            sol = dataclasses.replace(sol, objective=objective)
        return u_k, sol

    monkeypatch.setattr(sim_module, "solve_step", low_objective_at_step_4)
    with pytest.raises(ValueError, match=rf"^V2 = {re.escape(repr(V2))} violates its -1e-07 "
                                         r"lower bound at step 4$"):
        run_closed_loop(numerical_example_plant(), problem, refs, T=8)
    assert len(calls) == 8


@pytest.mark.parametrize("kwargs, named", [
    ({"T": -3}, "T must be an integer >= 0, got -3"),
    ({"T": True}, "T must be an integer >= 0, got True"),
    ({"T": 2.5}, "T must be an integer >= 0, got 2.5"),
    ({"T": "3"}, "T must be an integer >= 0, got '3'"),
    ({"T": np.bool_(False)}, "T must be an integer >= 0"),
    ({"x0": [0.0, 0.0, 1.0]}, "x0 must be a vector of 2 finite numbers, got [0.0, 0.0, 1.0]"),
    ({"x0": [0.0, float("nan")]}, "x0 must be a vector of 2 finite numbers, got [0.0, nan]"),
    ({"x0": np.array([np.inf, 0.0])}, "x0 must be a vector of 2 finite numbers"),
    ({"x0": [True, False]}, "x0 must be a vector of 2 finite numbers, got [True, False]"),
    ({"x0": ["0", "1"]}, "x0 must be a vector of 2 finite numbers, got ['0', '1']"),
    ({"x0": [10**400, 0]}, "x0 must be a vector of 2 finite numbers"),
    ({"x0": [[0.0, 0.0]]}, "x0 must be a vector of 2 finite numbers"),
], ids=["T-negative", "T-bool", "T-float", "T-string", "T-numpy-bool", "x0-length", "x0-nan",
        "x0-inf", "x0-bools", "x0-strings", "x0-huge-int", "x0-row"])
def test_run_closed_loop_rejects_a_bad_T_or_x0_before_drawing(monkeypatch, kwargs, named):
    # Seed commit: T=-3 returned an empty log, T=True ran one step, T=2.5
    # raised TypeError from range, and a 3-entry x0 failed in a matmul.
    def refused(*args, **kw):
        raise AssertionError("nothing may be drawn or lifted for a rejected run")

    monkeypatch.setattr(np.random, "default_rng", refused)
    monkeypatch.setattr(sim_module, "lift", refused)
    refs = ReferenceSchedule.timed([(0, [1.0])])
    with pytest.raises(ValueError, match=re.escape(named)):
        run_closed_loop(numerical_example_plant(), make_loop_setup(), refs,
                        **({"T": 5} | kwargs))


def test_mismatched_run_and_data_arguments_are_refused_by_name():
    refs = ReferenceSchedule.timed([(0, [1.0])])
    with pytest.raises(ValueError, match=re.escape("the numerical_example plant takes injected W "
                                                   "and V of sizes (3, 2)")):
        run_closed_loop(numerical_example_plant(), make_loop_setup(), refs, T=2,
                        disturbances=DisturbanceModel(W=box_zonotope([0.1] * 2),
                                                      V=box_zonotope([0.1] * 2)))
    with pytest.raises(ValueError, match="^state_box/input_box dimensions do not match the plant$"):
        generate_training_data(numerical_example_plant(), n_traj=2, traj_len=2,
                               input_box=box_zonotope([1.0]), state_box=box_zonotope([1.0] * 3),
                               seed=0)
    log = run_closed_loop(numerical_example_plant(), make_loop_setup(), refs, T=2)
    with pytest.raises(ValueError, match="^settle_window must be at least 1$"):
        tracking_metrics(log, settle_window=0)
    with pytest.raises(ValueError, match="^waypoint schedule needs at least one point$"):
        ReferenceSchedule.waypoints([], switch_radius=0.3)


@pytest.mark.parametrize("refs", [
    ReferenceSchedule.timed([(0, [0.0, 1.0])]),
    ReferenceSchedule.waypoints([[1.0, 1.0]], switch_radius=0.1),
], ids=["timed", "waypoints"])
def test_run_closed_loop_refuses_a_model_that_tracks_another_number_of_outputs(refs):
    # A two-output model on the one-output plant. Run, its waypoint cursor
    # would broadcast the plant's y against the waypoint (1, 1) and mark it
    # reached at step 3, with the state at (0, 0.943), 1.0 away from it.
    problem = make_loop_setup(C_y=np.eye(2, 3))
    with pytest.raises(ValueError, match=re.escape(
            "the model's C_y (2, 3) and the plant's C (1, 2) must have as many rows")):
        run_closed_loop(numerical_example_plant(), problem, refs, T=60)
    assert problem.steady_targets == {}  # refused before step 0


def test_run_closed_loop_takes_numpy_integers_and_integer_states():
    refs = ReferenceSchedule.timed([(0, [1.0])])
    log = run_closed_loop(numerical_example_plant(), make_loop_setup(), refs, T=np.int64(3),
                          x0=(1, 0))
    assert log.k.tolist() == [0, 1, 2] and log.x[0].tolist() == [1.0, 0.0]
    assert log.x.dtype == float


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


def test_save_log_csv_of_an_empty_run_writes_the_header(tmp_path):
    # Seed commit: an empty run's columns had shape (0,), and saving it
    # raised IndexError. Its columns are (0, n) now.
    log = run_closed_loop(numerical_example_plant(), make_loop_setup(),
                          ReferenceSchedule.timed([(0, [1.0])]), T=0, seed=0)
    assert log.x.shape == (0, 2) and log.u.shape == (0, 1) and log.w_inj.shape == (0, 3)
    save_log_csv(log, tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_bytes() == (
        b"k,x_0,x_1,u_0,y_0,yt_0,ys_0,us_0,JN,V1,V2,feasible,margin_min\r\n")
    save_log_csv_with_csv_writer(log, tmp_path / "reference.csv")
    assert (tmp_path / "reference.csv").read_bytes() == (tmp_path / "log.csv").read_bytes()


def special_values_log():
    """Four rows of doubles that a float formatter can get wrong: -0.0, the
    smallest subnormal, 1e300, infinities and NaN."""
    special = np.array([-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 0.1, -2.5e-17])
    col = lambda i, n: np.resize(np.roll(special, i), (4, n))
    return SimLog(
        k=np.arange(4), x=col(0, 2), u=col(1, 1), y=col(2, 1), y_t=col(3, 1), y_s=col(4, 1),
        u_s=col(5, 1), y_sr=col(6, 1), J_N=special[:4], V1=special[4:], V2=special[2:6],
        feasible=np.array([True, False, True, False]), margin_min=special[1:5],
        state_margin=np.zeros(4), input_margin=np.zeros(4), w_inj=np.zeros((4, 3)),
        v_inj=np.zeros((4, 2)),
    )


@pytest.mark.parametrize("which", ["halted", "unicycle", "special_values"])
def test_save_log_csv_matches_the_csv_writer(scenario_stacks, tmp_path, which):
    """Whole rows formatted from one tolist() give the bytes of csv.writer fed
    one numpy scalar at a time."""
    if which == "halted":
        log = run_closed_loop(numerical_example_plant(), make_loop_setup(),
                              ReferenceSchedule.timed([(0, [1.0])]), T=10, seed=0,
                              x0=[0.0, 10.0])
        assert np.isnan(log.u).all()
    elif which == "unicycle":
        stack = dataclasses.replace(scenario_stacks["unicycle_square"])
        log = stack.run(stack.seed)
        assert log.u.shape[1] == log.y.shape[1] == 2
    else:
        log = special_values_log()
    save_log_csv(log, tmp_path / "log.csv")
    save_log_csv_with_csv_writer(log, tmp_path / "reference.csv")
    written = (tmp_path / "log.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\r\n") == log.k.size + 1
    if which == "special_values":
        assert b"-0.0" in written and b"5e-324" in written and b"1e+300" in written
        assert b"inf" in written and b"nan" in written
