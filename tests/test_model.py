import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmpc import cli
from koopmpc import model as model_module
from koopmpc.model import (
    DisturbanceModel,
    KoopmanModel,
    LiftingSpec,
    TrajectoryData,
    UnderdeterminedData,
    fit_edmd,
    lift,
    lift_many,
    load_model,
    load_trajectories,
    make_model,
    save_model,
    save_trajectories,
)
from koopmpc.sets import Zonotope, box_zonotope
from oracles import (
    fit_edmd_two_lifts,
    monomials_by_pow,
    numerical_example_matrices,
    transitions,
)

LAM, MU = -0.1, 2.0
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def benchmark_lifting():
    # psi(x) = (x1, x2, x1^2): one explicit monomial beyond the raw state.
    return LiftingSpec(kind="explicit", n_x=2, exponents=[[2, 0]])


def benchmark_model():
    A, B = numerical_example_matrices(LAM, MU)
    return make_model(A, B, benchmark_lifting(), output_matrix=[[0.0, 1.0]])


def step_benchmark(x, u):
    x1, x2 = x
    return np.array([LAM * x1, MU * x2 + (LAM**2 - MU) * x1**2 + float(u)])


def make_benchmark_data(rng, n_traj=100, traj_len=4):
    # Short rollouts from random restarts: the open-loop plant is unstable
    # (x2 doubles each step), so long trajectories overflow any useful scale.
    trajs = []
    for _ in range(n_traj):
        x = rng.uniform(-2.0, 2.0, size=2)
        states = [x]
        inputs = rng.uniform(-3.0, 3.0, size=(traj_len, 1))
        for u in inputs:
            x = step_benchmark(x, u[0])
            states.append(x)
        trajs.append((np.array(states), inputs))
    return TrajectoryData.from_pairs(trajs)


# --- lifting -----------------------------------------------------------------

def test_lift_benchmark_example():
    m = benchmark_model()
    assert np.allclose(lift(m, [2.0, 3.0]), [2.0, 3.0, 4.0])


def test_lift_zero_state_polynomial():
    # The monomials of degree 2 and 3 over two states, as explicit exponents.
    spec = LiftingSpec(kind="explicit", n_x=2, exponents=[
        [2, 0], [1, 1], [0, 2], [3, 0], [2, 1], [1, 2], [0, 3]])
    m = make_model(np.eye(spec.n_z), np.zeros((spec.n_z, 1)), spec)
    assert np.allclose(lift(m, [0.0, 0.0]), np.zeros(spec.n_z))


def test_explicit_monomial_count_and_values():
    # The degree-2 monomials over two raw states: x1^2, x1 x2, x2^2.
    spec = LiftingSpec(kind="explicit", n_x=2, exponents=[[2, 0], [1, 1], [0, 2]])
    assert spec.n_z == 2 + 3
    z = lift_many(make_model(np.eye(5), np.zeros((5, 1)), spec), np.array([[2.0, 3.0]]))
    assert np.allclose(z[0], [2.0, 3.0, 4.0, 6.0, 9.0])


def test_planar_heading_products():
    spec = LiftingSpec(
        kind="explicit",
        n_x=3,
        pre="planar_heading",
        exponents=[[1, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 1, 0]],
    )
    assert spec.n_z == 7
    m = make_model(np.eye(7), np.zeros((7, 2)), spec, output_matrix=np.eye(3)[:2])
    x = np.array([2.0, 3.0, np.pi / 2])
    z = lift(m, x)
    s, c = np.sin(x[2]), np.cos(x[2])
    assert np.allclose(z, [2.0, 3.0, np.pi / 2, 2 * c, 2 * s, 3 * c, 3 * s])


PLANAR_DEGREE_TWO = [
    [0, 0, 1, 0], [0, 0, 0, 1],
    [2, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [0, 2, 0, 0],
    [0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 2, 0], [0, 0, 1, 1], [0, 0, 0, 2],
]


def test_planar_heading_polynomial_degree_two():
    # Pre-features (p_x, p_y, s, c): s and c of degree one, then the ten
    # degree-2 monomials.
    spec = LiftingSpec(kind="explicit", n_x=3, pre="planar_heading",
                       exponents=PLANAR_DEGREE_TWO)
    assert spec.n_z == 3 + 2 + 10
    m = make_model(np.eye(15), np.zeros((15, 2)), spec, output_matrix=np.eye(3)[:2])
    px, py, th = 2.0, -3.0, 0.7
    s, c = np.sin(th), np.cos(th)
    expected = [px, py, th, s, c,
                px * px, px * py, px * s, px * c, py * py, py * s, py * c, s * s, s * c, c * c]
    assert np.allclose(lift(m, [px, py, th]), expected, rtol=1e-15, atol=0.0)


# Each of LiftingSpec's refusals, with the key it names. A bool, a string or a
# float where an integer belongs used to be cast: [[2.5, 0]] fitted as [[2, 0]]
# and [[true, 0]] as [[1, 0]].
LIFTING_REFUSALS = {
    "kind": ({"kind": "chebyshev"}, "unknown lifting kind 'chebyshev'"),
    "pre": ({"kind": "explicit", "pre": "polar", "exponents": [[2, 0]]}, "unknown pre-map 'polar'"),
    "n_x-bool": ({"kind": "explicit", "n_x": True, "exponents": [[2, 0]]},
                 "n_x must be a positive integer, got True"),
    "n_x-zero": ({"kind": "explicit", "n_x": 0, "exponents": [[2, 0]]},
                 "n_x must be a positive integer, got 0"),
    "planar-n_x": ({"kind": "explicit", "pre": "planar_heading", "exponents": [[2, 0]]},
                   "planar_heading pre-map requires n_x == 3"),
    "exponents-shape": ({"kind": "explicit", "exponents": [[2, 0, 0]]},
                        "exponents must have shape (k, 2)"),
    "exponents-fraction": ({"kind": "explicit", "exponents": [[2.5, 0]]},
                           "exponents must be integers in [0, 2**63), got 2.5"),
    "exponents-float": ({"kind": "explicit", "exponents": [[2.0, 0]]},
                        "exponents must be integers in [0, 2**63), got 2.0"),
    "exponents-bool": ({"kind": "explicit", "exponents": [[True, 0]]},
                       "exponents must be integers in [0, 2**63), got True"),
    "exponents-string": ({"kind": "explicit", "exponents": [["2", 0]]},
                         "exponents must be integers in [0, 2**63), got '2'"),
    "exponents-negative": ({"kind": "explicit", "exponents": [[0, -1]]},
                           "exponents must be integers in [0, 2**63), got -1"),
    "exponents-huge": ({"kind": "explicit", "exponents": [[10**29, 0]]},
                       f"exponents must be integers in [0, 2**63), got {10**29}"),
    "exponents-vector": ({"kind": "explicit", "exponents": [2, 0]},
                         "exponents must have shape (k, 2)"),
    "exponents-ragged": ({"kind": "explicit", "exponents": [[2, 0], [1]]},
                         "exponents must have shape (k, 2)"),
    "planar-exponents-shape": ({"kind": "explicit", "n_x": 3, "pre": "planar_heading",
                                "exponents": [[1, 0, 0]]},
                               "exponents must have shape (k, 4)"),
    # The removed dictionary kinds are unknown kinds, named before their parameters.
    "kind-polynomial": ({"kind": "polynomial", "max_degree": 2}, "unknown lifting kind 'polynomial'"),
    "kind-rbf": ({"kind": "rbf", "centers": [[0.0, 0.0]], "width": 1.0},
                 "unknown lifting kind 'rbf'"),
}


@pytest.mark.parametrize("spec, named", LIFTING_REFUSALS.values(), ids=LIFTING_REFUSALS)
def test_lifting_spec_refuses_a_malformed_parameter_by_name(tmp_path, spec, named):
    removed = {"max_degree", "centers", "width"}  # parameters LiftingSpec no longer takes
    with pytest.raises(ValueError, match=re.escape(named)):
        LiftingSpec(**{"n_x": 2} | {k: v for k, v in spec.items() if k not in removed})
    if "n_x" in spec:  # a model file's n_x is its own field
        return
    # A model file's lifting goes through the same checks.
    path = tmp_path / "model.json"
    save_model(benchmark_model(), path)
    doc = json.loads(path.read_text())
    kind, params = spec["kind"], {k: v for k, v in spec.items() if k != "kind"}
    path.write_text(json.dumps(doc | {"lifting": {"kind": kind, "params": params}}))
    with pytest.raises(ValueError, match=re.escape(named)):
        load_model(path)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31))
def test_decode_inverts_lift(seed):
    r = np.random.default_rng(seed)
    m = benchmark_model()
    x = r.uniform(-5.0, 5.0, size=2)
    assert np.array_equal(m.C_x @ lift(m, x), x)


# --- the lifted dynamics and projections -----------------------------------------

def test_predict_steady_fixed_point():
    m = benchmark_model()
    z_next = m.A @ np.array([0.0, 1.0, 0.0]) + m.B @ np.array([-1.0])
    assert np.allclose(z_next, [0.0, 1.0, 0.0], atol=1e-12)


def test_predict_linearity_and_first_mode():
    m = benchmark_model()
    assert np.allclose(m.A @ np.zeros(3) + m.B @ np.zeros(1), np.zeros(3))
    assert np.allclose(m.A @ np.array([1.0, 0.0, 0.0]), [LAM, 0.0, 0.0])


def test_output_matrix_composition(rng):
    m = benchmark_model()
    assert np.array_equal(m.C_y, np.array([[0.0, 1.0]]) @ m.C_x)
    assert (m.C_y @ np.array([0.0, 1.0, 0.0]))[0] == pytest.approx(1.0)
    z = rng.standard_normal(3)
    assert np.allclose(m.C_y @ z, np.array([[0.0, 1.0]]) @ (m.C_x @ z))


# --- fit_edmd -------------------------------------------------------------------

def test_fit_recovers_exact_benchmark(rng):
    data = make_benchmark_data(rng)
    model = fit_edmd(data, benchmark_lifting(), ridge=0.0, output_matrix=[[0.0, 1.0]])
    A_true, B_true = numerical_example_matrices(LAM, MU)
    assert np.max(np.abs(model.A - A_true)) <= 1e-8
    assert np.max(np.abs(model.B - B_true)) <= 1e-8
    assert np.array_equal(model.C_x, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    assert np.array_equal(model.C_y, np.array([[0.0, 1.0, 0.0]]))


def test_fit_zero_data_with_ridge():
    states = np.zeros((20, 2))
    inputs = np.zeros((19, 1))
    data = TrajectoryData.from_pairs([(states, inputs)])
    model = fit_edmd(data, benchmark_lifting(), ridge=1e-6)
    assert np.allclose(model.A, 0.0)
    assert np.allclose(model.B, 0.0)


def test_fit_underdetermined_raises(rng):
    data = make_benchmark_data(rng, n_traj=1, traj_len=2)  # 2 transitions < 3 + 1
    with pytest.raises(UnderdeterminedData):
        fit_edmd(data, benchmark_lifting(), ridge=0.0)


def test_fit_rank_deficient_raises():
    # Plenty of rows but the x1^2 feature never varies: column rank deficiency.
    states = np.zeros((40, 2))
    states[:, 1] = np.linspace(-1, 1, 40)
    inputs = np.zeros((39, 1))
    data = TrajectoryData.from_pairs([(states, inputs)])
    with pytest.raises(UnderdeterminedData):
        fit_edmd(data, benchmark_lifting(), ridge=0.0)


def test_fit_residual_is_locally_optimal(rng):
    data = make_benchmark_data(rng, n_traj=30, traj_len=2)
    # Perturb the states so the fit has a nonzero residual to defend.
    data = TrajectoryData.from_pairs(
        [(s + 0.01 * rng.standard_normal(s.shape), u) for s, u in data.trajectories]
    )
    model = fit_edmd(data, benchmark_lifting(), ridge=1e-10)

    X, U, Xp = transitions(data)
    Phi = np.hstack([lift_many(model, X), U])
    Zp = lift_many(model, Xp)
    Theta = np.hstack([model.A, model.B])
    base = np.linalg.norm(Phi @ Theta.T - Zp) ** 2 + 1e-10 * np.linalg.norm(Theta) ** 2
    for _ in range(100):
        D = 1e-4 * rng.standard_normal(Theta.shape)
        pert = (
            np.linalg.norm(Phi @ (Theta + D).T - Zp) ** 2
            + 1e-10 * np.linalg.norm(Theta + D) ** 2
        )
        assert pert >= base - 1e-12


# --- disturbance sets ------------------------------------------------------------

def test_disturbance_model_must_contain_origin():
    with pytest.raises(ValueError):
        DisturbanceModel(
            W=Zonotope(center=[1.0], generators=[[0.1]]),
            V=box_zonotope([0.1]),
        )


# --- persistence -----------------------------------------------------------------

def test_model_json_roundtrip_is_bit_faithful(tmp_path, rng):
    data = make_benchmark_data(rng)
    model = fit_edmd(data, benchmark_lifting(), ridge=1e-8, output_matrix=[[0.0, 1.0]])
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.A, model.A)
    assert np.array_equal(loaded.B, model.B)
    assert np.array_equal(loaded.C_x, model.C_x)
    assert np.array_equal(loaded.C_y, model.C_y)
    assert loaded.lifting.kind == model.lifting.kind
    assert np.array_equal(loaded.lifting.exponents, model.lifting.exponents)
    doc = json.loads(path.read_text())
    assert set(doc) == {"n_x", "n_u", "n_y", "n_z", "lifting", "A", "B", "C_x", "C_y"}


@pytest.mark.parametrize("edit, named", [
    (lambda doc: "{not json", "is not valid JSON"),
    (lambda doc: {k: v for k, v in doc.items() if k != "B"}, "is missing required model fields"),
    (lambda doc: {k: v for k, v in doc.items() if k != "n_y"}, "is missing required model fields"),
    (lambda doc: doc | {"n_u": 2}, "declared n_u=2 does not match matrices"),
    (lambda doc: doc | {"n_z": 4}, "declared n_z=4 does not match matrices"),
    (lambda doc: doc | {"n_x": 2.5}, "n_x must be an integer, got 2.5"),
    (lambda doc: doc | {"n_x": "2"}, "n_x must be an integer, got '2'"),
    (lambda doc: doc | {"n_u": 1.9}, "n_u must be an integer, got 1.9"),
    (lambda doc: doc | {"n_z": "3"}, "n_z must be an integer, got '3'"),
    (lambda doc: doc | {"A": [[10**400] + doc["A"][0][1:]] + doc["A"][1:]},
     "A holds an integer too large for a float"),
    (lambda doc: doc | {"C_y": [[0.0, 10**400, 0.0]]}, "C_y holds an integer too large for a float"),
    (lambda doc: doc | {"lifting": {"kind": "explicit", "params": {"exponents": [[10**400, 0]]}}},
     "exponents must be integers in [0, 2**63), got 1000"),
    (lambda doc: doc | {"lifting": {"kind": "explicit", "params": {"pre": "identity"}}},
     "lifting.params of kind 'explicit' needs key 'exponents'"),
    (lambda doc: doc | {"lifting": {"params": {"exponents": [[2, 0]]}}},
     "unknown lifting kind None"),
], ids=["invalid-json", "missing-B", "missing-n_y", "n_u-mismatch", "n_z-mismatch",
        "n_x-fraction", "n_x-string", "n_u-fraction", "n_z-string", "A-big-int", "C_y-big-int",
        "exponents-big-int", "lifting-missing-exponents", "lifting-missing-kind"])
def test_load_model_refuses_a_malformed_file_by_name(tmp_path, edit, named):
    # A declared size used to be cast with int(): "n_x": 2.5 or "2" loaded as 2,
    # and an integer too large for a float raised OverflowError.
    path = tmp_path / "model.json"
    save_model(benchmark_model(), path)
    doc = edit(json.loads(path.read_text()))
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(named)):
        load_model(path)


def test_planar_heading_polynomial_model_json_roundtrip(tmp_path):
    spec = LiftingSpec(kind="explicit", n_x=3, pre="planar_heading", exponents=PLANAR_DEGREE_TWO)
    m = make_model(0.5 * np.eye(15), np.ones((15, 2)), spec, output_matrix=np.eye(3)[:2])
    save_model(m, tmp_path / "m.json")
    assert json.loads((tmp_path / "m.json").read_text())["lifting"] == {
        "kind": "explicit", "params": {"pre": "planar_heading", "exponents": PLANAR_DEGREE_TWO}
    }
    loaded = load_model(tmp_path / "m.json")
    assert loaded.lifting.pre == "planar_heading"
    assert np.array_equal(loaded.lifting.exponents, spec.exponents)
    for name in ("A", "B", "C_x", "C_y"):
        assert np.array_equal(getattr(loaded, name), getattr(m, name))
    x = [1.5, -0.5, 2.0]
    assert np.array_equal(lift(loaded, x), lift(m, x))


def test_trajectory_csv_roundtrip(tmp_path, rng):
    data = make_benchmark_data(rng, n_traj=3, traj_len=5)
    path = tmp_path / "train.csv"
    save_trajectories(data, path)
    loaded = load_trajectories(path)
    assert len(loaded.trajectories) == 3
    for (s0, u0), (s1, u1) in zip(data.trajectories, loaded.trajectories):
        assert np.array_equal(s0, s1)
        assert np.array_equal(u0, u1)
    header = path.read_text().splitlines()[0]
    assert header == "traj_id,t,x_0,x_1,u_0"


def test_trajectory_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense,columns\n1,2\n")
    with pytest.raises(ValueError):
        load_trajectories(bad)
    # Empty input cell in a non-terminal row.
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("traj_id,t,x_0,x_1,u_0\n0,0,1.0,2.0,\n0,1,1.0,2.0,0.5\n0,2,1.0,2.0,\n")
    with pytest.raises(ValueError):
        load_trajectories(bad2)


def ragged_trajectories(rng):
    """Trajectories of 1, 4 and 2 states: one with no transition at all."""
    return [(rng.standard_normal((n, 2)), rng.standard_normal((n - 1, 1))) for n in (1, 4, 2)]


@pytest.mark.parametrize("source", ["list", "csv"])
def test_stacked_trajectories_equal_the_per_trajectory_vstack(tmp_path, rng, source):
    trajs = ragged_trajectories(rng)
    data = TrajectoryData.from_pairs(trajs)
    if source == "csv":
        save_trajectories(data, tmp_path / "ragged.csv")
        data = load_trajectories(tmp_path / "ragged.csv")
    assert np.array_equal(data.states, np.vstack([s for s, _ in trajs]))
    assert np.array_equal(data.inputs, np.vstack([u for _, u in trajs]))
    assert data.lengths.tolist() == [len(s) for s, _ in data.trajectories] == [1, 4, 2]
    rows = data._transition_rows()  # the x rows of the fit; x+ is the row after each
    assert np.array_equal(data.states[rows], np.vstack([s[:-1] for s, _ in trajs]))
    assert np.array_equal(data.states[rows + 1], np.vstack([s[1:] for s, _ in trajs]))
    for (s0, u0), (s1, u1) in zip(data.trajectories, trajs):
        assert np.array_equal(s0, s1) and np.array_equal(u0, u1)


def test_stacked_trajectories_are_read_only(rng):
    data = TrajectoryData.from_pairs(ragged_trajectories(rng))
    states, inputs = data.trajectories[1]
    for array in (data.states, data.inputs, data.lengths, states, inputs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_empty_trajectory_data_constructs_and_cannot_be_fitted():
    data = TrajectoryData.from_pairs([])
    assert data.trajectories == []
    with pytest.raises(UnderdeterminedData, match="no trajectories provided"):
        fit_edmd(data, benchmark_lifting(), ridge=0.0)


def test_ragged_trajectory_finiteness_names_the_first_offending_trajectory(rng):
    trajs = ragged_trajectories(rng)
    trajs[2][0][1, 1] = np.nan
    trajs[1][0][3, 0] = -np.inf
    with pytest.raises(ValueError, match=r"^trajectory 1 states must be a finite 2-D array"):
        TrajectoryData.from_pairs(trajs)
    trajs[0] = (np.full((1, 2), np.inf), np.zeros((0, 1)))
    with pytest.raises(ValueError, match=r"^trajectory 0 states must be a finite 2-D array"):
        TrajectoryData.from_pairs(trajs)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        TrajectoryData.from_pairs([(np.zeros((3, 2)), np.zeros((3, 1)))])  # lengths mismatch


@pytest.mark.parametrize("second, named", [
    ((np.zeros((3, 2)), np.zeros((3, 1))),
     "trajectory 1: expected one more state than input, got 3 states and 3 inputs"),
    ((np.zeros((3, 3)), np.zeros((2, 1))), "all trajectories must share state/input dimensions"),
    ((np.zeros((3, 2)), np.zeros((2, 2))), "all trajectories must share state/input dimensions"),
    ((np.zeros((3, 2)), np.zeros(2)), "trajectory 1 inputs must be a finite 2-D array"),
], ids=["one-state-too-few", "state-dimension", "input-dimension", "one-dimensional-inputs"])
def test_trajectory_shape_checks_name_the_fault(second, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
        TrajectoryData.from_pairs([(np.zeros((2, 2)), np.zeros((1, 1))), second])


def test_trajectory_finiteness_names_the_first_offending_trajectory():
    trajs = [(np.zeros((4, 2)), np.zeros((3, 1))) for _ in range(6)]
    trajs[2][1][1, 0] = np.inf
    trajs[4][0][0, 1] = np.nan
    with pytest.raises(ValueError, match=r"^trajectory 2 inputs must be a finite 2-D array"):
        TrajectoryData.from_pairs(trajs)
    trajs[2][1][1, 0] = 0.0
    with pytest.raises(ValueError, match=r"^trajectory 4 states must be a finite 2-D array"):
        TrajectoryData.from_pairs(trajs)
    trajs[4][0][0, 1] = 0.0
    assert len(TrajectoryData.from_pairs(trajs).trajectories) == 6
    with pytest.raises(ValueError, match=r"^trajectory 0 states must be a finite 2-D array"):
        TrajectoryData.from_pairs([(np.zeros(4), np.zeros((3, 1)))])  # 1-D: a shape failure


@pytest.mark.parametrize("states, inputs, lengths", [
    (np.zeros((4, 2)), np.zeros((3, 1)), [2, 2]),
    (np.zeros((4, 2)), np.zeros((4, 1)), [0, 4]),
    (np.zeros((4, 2)), np.zeros((3, 1)), [5]),
    (np.zeros(4), np.zeros((3, 1)), [4]),
    (np.zeros((4, 2)), np.zeros((3, 1)), [[4]]),
], ids=["inputs-count", "empty-trajectory", "lengths-sum", "one-dimensional-states",
        "two-dimensional-lengths"])
def test_the_stacked_form_checks_that_its_lengths_split_the_stack(states, inputs, lengths):
    with pytest.raises(ValueError, match=r"^lengths .* do not split .* into trajectories$"):
        TrajectoryData(states, inputs, lengths)
    assert TrajectoryData(np.zeros((4, 2)), np.zeros((3, 1)), [4]).lengths.tolist() == [4]


# --- trajectory batches ----------------------------------------------------------------

def batch_arrays(rng, n_traj=5, traj_len=3):
    return rng.standard_normal((n_traj, traj_len + 1, 2)), rng.standard_normal((n_traj, traj_len, 1))


def test_batch_equals_the_list_form(rng):
    S, U = batch_arrays(rng)
    batch, listed = TrajectoryData.batch(S, U), TrajectoryData.from_pairs(list(zip(S, U)))
    assert (batch.n_x, batch.n_u, len(batch.trajectories)) == (2, 1, 5)
    assert len(listed.trajectories) == 5
    for (s0, u0), (s1, u1) in zip(batch.trajectories, listed.trajectories):
        for a, b in ((s0, s1), (u0, u1)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable and not b.flags.writeable
    for a, b in ((batch.states, listed.states), (batch.inputs, listed.inputs),
                 (batch.lengths, listed.lengths)):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not a.flags.writeable and not b.flags.writeable
    # Both forms stack a copy: an edit of the caller's arrays does not reach it.
    S[0, 0, 0] = U[0, 0, 0] = 99.0
    assert batch.states[0, 0] != 99.0 and batch.inputs[0, 0] != 99.0


@pytest.mark.parametrize("bad, named", [
    ("states", "trajectory 3 states must be a finite 2-D array"),
    ("inputs", "trajectory 1 inputs must be a finite 2-D array"),
    ("both", "trajectory 1 inputs must be a finite 2-D array"),
], ids=["states", "inputs", "both"])
def test_a_non_finite_batch_fails_with_the_list_forms_message(rng, bad, named):
    S, U = batch_arrays(rng)
    if bad in ("states", "both"):
        S[3, 2, 1] = np.nan
    if bad in ("inputs", "both"):
        U[1, 0, 0] = -np.inf
    with pytest.raises(ValueError) as listed:
        TrajectoryData.from_pairs(list(zip(S, U)))
    assert str(listed.value).startswith(named)
    with pytest.raises(ValueError, match=f"^{re.escape(str(listed.value))}$"):
        TrajectoryData.batch(S, U)


@pytest.mark.parametrize("states, inputs", [
    (np.zeros((4, 2)), np.zeros((3, 1))),
    (np.zeros((2, 4, 2)), np.zeros((2, 4, 1))),
    (np.zeros((2, 4, 2)), np.zeros((3, 3, 1))),
], ids=["one-trajectory", "one-state-too-few", "trajectory-count"])
def test_batch_shape_checks_name_both_shapes(states, inputs):
    with pytest.raises(ValueError, match=re.escape(f"got shapes {states.shape} and {inputs.shape}")):
        TrajectoryData.batch(states, inputs)


# --- one lift per state ------------------------------------------------------------------

def scenario_fit_inputs(name):
    """The training data, lifting and fit options of a shipped scenario."""
    sc = json.loads((SCENARIOS / f"{name}.json").read_text())
    plant = cli._build_plant(sc["plant"])
    data = cli._training_data(sc, plant, SCENARIOS)
    options = {"ridge": sc.get("ridge", 1e-8), "output_matrix": sc.get("output_matrix")}
    return data, cli._lifting(sc["lifting"], plant.n_x), options


def ragged_explicit_fit_inputs():
    # Exponents above 1 keep the lift on its pow path.
    rng = np.random.default_rng(7)
    trajs = [(rng.standard_normal((n, 2)), rng.standard_normal((n - 1, 1))) for n in (1, 9, 2, 6)]
    lifting = LiftingSpec(kind="explicit", n_x=2, exponents=[[2, 1], [0, 3], [1, 1]])
    return TrajectoryData.from_pairs(trajs), lifting, {"ridge": 1e-6, "output_matrix": None}


FIT_INPUTS = {"a1": lambda: scenario_fit_inputs("a1"),
              "a2": lambda: scenario_fit_inputs("a2"),
              "unicycle_square": lambda: scenario_fit_inputs("unicycle_square"),
              "ragged-explicit": ragged_explicit_fit_inputs}


@pytest.mark.parametrize("name", ["a1", "a2", "unicycle_square"])
def test_a_shipped_lifting_round_trips_through_a_model_file(tmp_path, name):
    """Each shipped scenario's lifting is written as its explicit exponents and
    pre-map, and reads back to the same dictionary, lifting bit for bit."""
    sc = json.loads((SCENARIOS / f"{name}.json").read_text())
    plant = cli._build_plant(sc["plant"])
    spec = cli._lifting(sc["lifting"], plant.n_x)
    m = make_model(np.eye(spec.n_z), np.zeros((spec.n_z, plant.n_u)), spec)
    save_model(m, tmp_path / "m.json")
    params = sc["lifting"]["params"]
    assert json.loads((tmp_path / "m.json").read_text())["lifting"] == {
        "kind": "explicit",
        "params": {"pre": params.get("pre", "identity"), "exponents": params["exponents"]},
    }
    loaded = load_model(tmp_path / "m.json")
    assert (loaded.lifting.kind, loaded.lifting.pre) == (spec.kind, spec.pre)
    assert np.array_equal(loaded.lifting.exponents, spec.exponents)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, plant.n_x))
    assert lift_many(loaded, x).tobytes() == lift_many(m, x).tobytes()


@pytest.mark.parametrize("source", sorted(FIT_INPUTS))
def test_one_lift_fit_matches_the_two_lift_oracle_bit_for_bit(source):
    data, lifting, options = FIT_INPUTS[source]()
    model = fit_edmd(data, lifting, **options)
    A, B = fit_edmd_two_lifts(data, lifting, **options)
    assert model.A.tobytes() == A.tobytes() and model.B.tobytes() == B.tobytes()


# --- monomials: exponents 0 and 1 without pow ------------------------------------------------

def scenario_lifting(name):
    sc = json.loads((SCENARIOS / f"{name}.json").read_text())
    return cli._lifting(sc["lifting"], cli._build_plant(sc["plant"]).n_x)


LIFTINGS = {name: (lambda name=name: scenario_lifting(name))
            for name in ("a1", "a2", "unicycle_square")}
LIFTINGS["mixed"] = lambda: LiftingSpec(kind="explicit", n_x=4, exponents=[
    [2, 1, 0, 3], [0, 0, 0, 0], [1, 0, 1, 1], [1, 1, 1, 1], [0, 5, 2, 0], [0, 1, 0, 0]])
LIFTINGS["linear"] = lambda: LiftingSpec(kind="explicit", n_x=4, exponents=[
    [1, 1, 1, 1], [1, 0, 1, 1], [0, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]])
LIFTINGS["none"] = lambda: LiftingSpec(kind="explicit", n_x=2, exponents=np.zeros((0, 2), int))


@pytest.mark.parametrize("name", sorted(LIFTINGS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
def test_monomials_match_pow_bit_for_bit(name, seed, n):
    # Exponents 0 and 1 select a column or give 1.0; the others keep pow. States
    # hold 0, -0, negatives, +-inf and NaN of either sign.
    spec = LIFTINGS[name]()
    rng = np.random.default_rng(seed)
    X = 3.0 * rng.standard_normal((n, spec.n_x))
    special = rng.uniform(size=X.shape) < 0.3
    X[special] = rng.choice([0.0, -0.0, -2.5, np.inf, -np.inf, np.nan, -np.nan], size=special.sum())
    with np.errstate(all="ignore"):
        expected = monomials_by_pow(model_module._pre_map(spec, X), spec.exponents)
        got = model_module._features(spec, X)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# --- the trajectory CSV's t column ----------------------------------------------------------

HEADER = "traj_id,t,x_0,x_1,u_0\n"


def test_trajectory_csv_needs_t_counting_from_zero(tmp_path):
    path = tmp_path / "skips.csv"
    path.write_text(HEADER + "0,0,0.0,0.0,1.0\n0,5,1.0,1.0,1.0\n1,0,2.0,2.0,\n0,1,3.0,3.0,\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: trajectory 0 needs t = 1 "
                                         "here, got '5'$"):
        load_trajectories(path)
    path.write_text(HEADER + "0,1,0.0,0.0,1.0\n0,2,1.0,1.0,\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: trajectory 0 needs t = 0"):
        load_trajectories(path)


def test_trajectory_csv_needs_each_trajectorys_rows_together(tmp_path):
    path = tmp_path / "interleaved.csv"
    path.write_text(HEADER + "0,0,0.0,0.0,1.0\n1,0,5.0,5.0,1.0\n0,1,1.0,1.0,\n1,1,6.0,6.0,\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: the rows of trajectory 0 "
                                         "are not contiguous$"):
        load_trajectories(path)
    path.write_text(HEADER + "0,0,0.0,0.0,1.0\n0,1,1.0,1.0,\n1,0,5.0,5.0,1.0\n1,1,6.0,6.0,\n")
    assert [len(s) for s, _ in load_trajectories(path).trajectories] == [2, 2]
