import json
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

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
    load_trajectories,
    make_model,
    save_trajectories,
)
from koopmpc.sets import Zonotope, box_zonotope
from oracles import (
    fit_edmd_two_lifts,
    lift_by_pow,
    numerical_example_matrices,
    training_data_by_list,
    transitions,
)

LAM, MU = -0.1, 2.0
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def benchmark_lifting():
    # psi(x) = (x1, x2, x1^2): one explicit monomial beyond the raw state.
    return LiftingSpec(n_x=2, exponents=[[2, 0]])


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
    spec = LiftingSpec(n_x=2, exponents=[
        [2, 0], [1, 1], [0, 2], [3, 0], [2, 1], [1, 2], [0, 3]])
    m = make_model(np.eye(spec.n_z), np.zeros((spec.n_z, 1)), spec)
    assert np.allclose(lift(m, [0.0, 0.0]), np.zeros(spec.n_z))


def test_explicit_monomial_count_and_values():
    # The degree-2 monomials over two raw states: x1^2, x1 x2, x2^2.
    spec = LiftingSpec(n_x=2, exponents=[[2, 0], [1, 1], [0, 2]])
    assert spec.n_z == 2 + 3
    z = lift_many(make_model(np.eye(5), np.zeros((5, 1)), spec), np.array([[2.0, 3.0]]))
    assert np.allclose(z[0], [2.0, 3.0, 4.0, 6.0, 9.0])


def test_planar_heading_products():
    spec = LiftingSpec(
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
    spec = LiftingSpec(n_x=3, pre="planar_heading",
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
    "pre": ({"pre": "polar", "exponents": [[2, 0]]}, "unknown pre-map 'polar'"),
    "n_x-bool": ({"n_x": True, "exponents": [[2, 0]]},
                 "n_x must be a positive integer, got True"),
    "n_x-zero": ({"n_x": 0, "exponents": [[2, 0]]},
                 "n_x must be a positive integer, got 0"),
    "n_x-fraction": ({"n_x": 2.5, "exponents": [[2, 0]]},
                     "n_x must be a positive integer, got 2.5"),
    "n_x-string": ({"n_x": "2", "exponents": [[2, 0]]},
                   "n_x must be a positive integer, got '2'"),
    "n_x-none": ({"n_x": None, "exponents": [[2, 0]]},
                 "n_x must be a positive integer, got None"),
    "planar-n_x": ({"pre": "planar_heading", "exponents": [[2, 0]]},
                   "planar_heading pre-map requires n_x == 3"),
    "exponents-shape": ({"exponents": [[2, 0, 0]]},
                        "exponents must have shape (k, 2)"),
    "exponents-fraction": ({"exponents": [[2.5, 0]]},
                           "exponents must be integers in [0, 2**63), got 2.5"),
    "exponents-float": ({"exponents": [[2.0, 0]]},
                        "exponents must be integers in [0, 2**63), got 2.0"),
    "exponents-bool": ({"exponents": [[True, 0]]},
                       "exponents must be integers in [0, 2**63), got True"),
    "exponents-string": ({"exponents": [["2", 0]]},
                         "exponents must be integers in [0, 2**63), got '2'"),
    "exponents-negative": ({"exponents": [[0, -1]]},
                           "exponents must be integers in [0, 2**63), got -1"),
    "exponents-huge": ({"exponents": [[10**29, 0]]},
                       f"exponents must be integers in [0, 2**63), got {10**29}"),
    "exponents-vector": ({"exponents": [2, 0]},
                         "exponents must have shape (k, 2)"),
    "exponents-ragged": ({"exponents": [[2, 0], [1]]},
                         "exponents must have shape (k, 2)"),
    "planar-exponents-shape": ({"n_x": 3, "pre": "planar_heading",
                                "exponents": [[1, 0, 0]]},
                               "exponents must have shape (k, 4)"),
}


def assert_a_scenario_refuses(tmp_path, lifting, named):
    """Building a1 with ``lifting`` as its ``lifting`` block raises ValueError naming ``named``."""
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(json.loads((SCENARIOS / "a1.json").read_text())
                               | {"lifting": lifting}))
    with pytest.raises(ValueError, match=re.escape(named)):
        cli.build_stack(path)


@pytest.mark.parametrize("spec, named", LIFTING_REFUSALS.values(), ids=LIFTING_REFUSALS)
def test_lifting_spec_refuses_a_malformed_parameter_by_name(tmp_path, spec, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        LiftingSpec(**{"n_x": 2} | spec)
    if "n_x" in spec:  # a scenario's n_x is its plant's
        return
    # A scenario's lifting goes through the same checks.
    assert_a_scenario_refuses(tmp_path, {"kind": "explicit", "params": spec}, named)


# The one kind, "explicit", is a key of the documents, not a field of
# LiftingSpec: the doc reader names any other kind before reading its params,
# the removed kinds and their parameters among them.
KIND_REFUSALS = {
    "kind": {"kind": "chebyshev"},
    "kind-polynomial": {"kind": "polynomial", "params": {"max_degree": 2}},
    "kind-rbf": {"kind": "rbf", "params": {"centers": [[0.0, 0.0]], "width": 1.0}},
    "kind-rbf-params-list": {"kind": "rbf", "params": [1.0]},
}


@pytest.mark.parametrize("doc", KIND_REFUSALS.values(), ids=KIND_REFUSALS)
def test_a_lifting_document_of_another_kind_is_refused_by_name(tmp_path, doc):
    named = f"unknown lifting kind {doc['kind']!r}"
    with pytest.raises(ValueError, match=re.escape(named)):
        model_module._lifting_from_doc(doc, n_x=2)
    assert_a_scenario_refuses(tmp_path, doc, named)
    with pytest.raises(TypeError, match="kind"):
        LiftingSpec(kind=doc["kind"], n_x=2, exponents=[[2, 0]])


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


# --- a model's arguments ------------------------------------------------------------

@pytest.mark.parametrize("key, value, named", [
    ("A", np.eye(2), "A must be 3x3, got (2, 2)"),
    ("B", [[0.0], [1.0]], "B must have 3 rows, got (2, 1)"),
    ("C_y", [[0.0, 1.0]], "C_y must have 3 columns, got (1, 2)"),
    ("A", [[10**400, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
     "A holds an integer too large for a float"),
    ("C_y", [[0.0, 10**400, 0.0]], "C_y holds an integer too large for a float"),
], ids=["A", "B", "C_y", "A-big-int", "C_y-big-int"])
def test_a_model_with_a_malformed_matrix_is_refused_by_name(key, value, named):
    m = benchmark_model()
    matrices = {"A": m.A, "B": m.B, "C_y": m.C_y} | {key: value}
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        KoopmanModel(**matrices, lifting=m.lifting)


@pytest.mark.parametrize("make, named", [
    (lambda: make_model(np.eye(3), np.zeros((3, 1)), benchmark_lifting(), output_matrix=[[1.0]]),
     "output_matrix must have 2 columns"),
    (lambda: lift_many(benchmark_model(), np.zeros((4, 3))),
     "states must have shape (n, 2), got (4, 3)"),
    (lambda: fit_edmd(TrajectoryData.from_pairs([(np.zeros((9, 2)), np.zeros((8, 1)))]),
                      benchmark_lifting(), ridge=-1e-3), "ridge must be non-negative"),
    (lambda: fit_edmd(TrajectoryData.from_pairs([(np.zeros((9, 3)), np.zeros((8, 1)))]),
                      benchmark_lifting()), "data has n_x=3 but lifting expects 2"),
], ids=["output_matrix-columns", "lift_many-shape", "ridge-negative", "data-n_x"])
def test_mismatched_model_arguments_are_refused_by_name(make, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
        make()


# --- training-data files ------------------------------------------------------------

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


# --- one lift per state ------------------------------------------------------------------

def scenario_fit_inputs(name):
    """The training data, lifting and fit options of a shipped scenario."""
    sc = json.loads((SCENARIOS / f"{name}.json").read_text())
    plant = cli._build_plant(sc["plant"])
    data = cli._training_data(sc, plant, SCENARIOS)()
    options = {"ridge": sc.get("ridge", 1e-8), "output_matrix": plant.C}
    return data, cli._lifting(sc["lifting"], plant.n_x), options


def ragged_explicit_fit_inputs():
    # Exponents above 1 keep the lift on its pow path.
    rng = np.random.default_rng(7)
    trajs = [(rng.standard_normal((n, 2)), rng.standard_normal((n - 1, 1))) for n in (1, 9, 2, 6)]
    lifting = LiftingSpec(n_x=2, exponents=[[2, 1], [0, 3], [1, 1]])
    return TrajectoryData.from_pairs(trajs), lifting, {"ridge": 1e-6, "output_matrix": None}


FIT_INPUTS = {"a1": lambda: scenario_fit_inputs("a1"),
              "a2": lambda: scenario_fit_inputs("a2"),
              "unicycle_square": lambda: scenario_fit_inputs("unicycle_square"),
              "ragged-explicit": ragged_explicit_fit_inputs}


@pytest.mark.parametrize("source", sorted(FIT_INPUTS))
def test_one_lift_fit_matches_the_two_lift_oracle_bit_for_bit(source):
    data, lifting, options = FIT_INPUTS[source]()
    model = fit_edmd(data, lifting, **options)
    A, B = fit_edmd_two_lifts(data, lifting, **options)
    assert model.A.tobytes() == A.tobytes() and model.B.tobytes() == B.tobytes()


# --- lifts: one column per monomial by a gather, the others by products -------------------

def scenario_lifting(name):
    sc = json.loads((SCENARIOS / f"{name}.json").read_text())
    return cli._lifting(sc["lifting"], cli._build_plant(sc["plant"]).n_x)


LIFTINGS = {name: (lambda name=name: scenario_lifting(name))
            for name in ("a1", "a2", "unicycle_square")}
LIFTINGS["mixed"] = lambda: LiftingSpec(n_x=4, exponents=[
    [2, 1, 0, 3], [0, 0, 0, 0], [1, 0, 1, 1], [1, 1, 1, 1], [0, 5, 2, 0], [0, 1, 0, 0]])
LIFTINGS["linear"] = lambda: LiftingSpec(n_x=4, exponents=[
    [1, 1, 1, 1], [1, 0, 1, 1], [0, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]])
LIFTINGS["one-column"] = lambda: LiftingSpec(n_x=3, exponents=[
    [0, 0, 1], [0, 0, 0], [1, 0, 0], [0, 0, 1]])
LIFTINGS["none"] = lambda: LiftingSpec(n_x=2, exponents=np.zeros((0, 2), int))
LIFTINGS["planar-pow"] = lambda: LiftingSpec(n_x=3, pre="planar_heading",
                                             exponents=[[2, 0, 1, 0], [0, 1, 0, 3], [0, 0, 1, 1]])


def special_states(seed, n, n_x):
    """n states that hold 0, -0, negatives, +-inf and NaN of either sign."""
    rng = np.random.default_rng(seed)
    X = 3.0 * rng.standard_normal((n, n_x))
    special = rng.uniform(size=X.shape) < 0.3
    X[special] = rng.choice([0.0, -0.0, -2.5, np.inf, -np.inf, np.nan, -np.nan], size=special.sum())
    return X


def assert_lifts_match_pow(spec, X):
    """lift_many and each row's lift equal the column_stack, pow and hstack lift bit for bit."""
    m = make_model(np.eye(spec.n_z), np.zeros((spec.n_z, 1)), spec)
    with np.errstate(all="ignore"):
        expected = lift_by_pow(spec, X)
        got = lift_many(m, X)
        rows = [lift(m, x) for x in X]
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert all(z.tobytes() == e.tobytes() for z, e in zip(rows, expected, strict=True))


@pytest.mark.parametrize("name", sorted(LIFTINGS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
def test_monomials_match_pow_bit_for_bit(name, seed, n):
    # One column or none per monomial takes a gather; the others take pow.
    spec = LIFTINGS[name]()
    assert_lifts_match_pow(spec, special_states(seed, n, spec.n_x))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 6),
       pre=st.sampled_from(sorted(model_module._PRES)))
def test_a_random_0_1_dictionary_lifts_as_pow_bit_for_bit(seed, k, pre):
    rng = np.random.default_rng(seed)
    n_x = 3 if pre == "planar_heading" else int(rng.integers(1, 6))
    exponents = rng.integers(0, 2, size=(k, 4 if pre == "planar_heading" else n_x))
    spec = LiftingSpec(n_x=n_x, pre=pre, exponents=exponents)
    assert_lifts_match_pow(spec, special_states(seed, 40, n_x))


def test_the_shipped_unicycle_fit_matches_the_oracle_data_and_fit_bit_for_bit():
    # The oracle rolls the data out into a list and lifts it by pow and hstack.
    data, lifting, options = scenario_fit_inputs("unicycle_square")
    sc = json.loads((SCENARIOS / "unicycle_square.json").read_text())
    plant = cli._build_plant(sc["plant"])
    generate = cli._training_data(sc, plant, SCENARIOS).keywords
    states, inputs = training_data_by_list(plant, **generate)
    model = fit_edmd(data, lifting, **options)
    A, B = fit_edmd_two_lifts(TrajectoryData.from_pairs(zip(states, inputs)), lifting, **options)
    assert model.A.tobytes() == A.tobytes() and model.B.tobytes() == B.tobytes()


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


@pytest.mark.parametrize("text, named", [
    ("", "{path} is empty"),
    (HEADER + "0,0,0.0,0.0,1.0\n0,1,1.0,1.0\n", "{path}:3: expected 5 cells, got 4"),
    (HEADER + "0,0,0.0,0.0,1.0,7\n0,1,1.0,1.0,\n", "{path}:2: expected 5 cells, got 6"),
    (HEADER + "0,0,0.0,zero,1.0\n0,1,1.0,1.0,\n", "{path}:2: non-numeric cell"),
    (HEADER + "0,0,0.0,0.0,1.0\n0,1,1.0,1.0,x\n", "{path}:3: non-numeric cell"),
], ids=["empty", "short-row", "long-row", "non-numeric-state", "non-numeric-input"])
def test_a_malformed_trajectory_csv_is_named_by_path_and_line(tmp_path, text, named):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(named.format(path=path))}$"):
        load_trajectories(path)


def test_trajectory_csv_needs_each_trajectorys_rows_together(tmp_path):
    path = tmp_path / "interleaved.csv"
    path.write_text(HEADER + "0,0,0.0,0.0,1.0\n1,0,5.0,5.0,1.0\n0,1,1.0,1.0,\n1,1,6.0,6.0,\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: the rows of trajectory 0 "
                                         "are not contiguous$"):
        load_trajectories(path)
    path.write_text(HEADER + "0,0,0.0,0.0,1.0\n0,1,1.0,1.0,\n1,0,5.0,5.0,1.0\n1,1,6.0,6.0,\n")
    assert [len(s) for s, _ in load_trajectories(path).trajectories] == [2, 2]


@pytest.mark.parametrize("rows, bad", [
    ("0,0,0.0,0.0,\n0,1,1.0,1.0,0.5\n0,2,1.0,1.0,\n", "0"),
    ("0,0,0.0,0.0,1.0\n0,1,1.0,1.0,\n1,0,0.0,0.0,1.0\n1,1,1.0,1.0,0.5\n", "1"),
    ("0,0,0.0,0.0,1.0\n1,0,0.0,0.0,\n", "0"),
    ("0,0,0.0,0.0,1.0\n0,1,1.0,1.0,1.0\n", "0"),
    ("a,0,0.0,0.0,\nb,0,0.0,0.0,\nb,1,1.0,1.0,\n", "b"),
], ids=["empty-mid", "input-at-the-end", "one-row-with-input", "last-row-with-input",
        "second-of-two"])
def test_a_trajectory_csv_needs_exactly_the_last_input_empty(tmp_path, rows, bad):
    path = tmp_path / "inputs.csv"
    path.write_text(HEADER + rows)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: trajectory {bad} must leave "
                                         "exactly the last input empty$"):
        load_trajectories(path)


def test_a_row_fault_is_named_before_an_earlier_trajectorys_inputs(tmp_path):
    # The input rule is checked once every row has passed, so a later row's
    # fault is the one named, as when the rows were all read first.
    path = tmp_path / "both.csv"
    path.write_text(HEADER + "0,0,0.0,0.0,1.0\n0,1,1.0,1.0,1.0\n1,0,0.0,0.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: expected 5 cells, got 4$"):
        load_trajectories(path)


def test_a_trajectory_csv_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(HEADER + "\n0,0,0.0,0.0,1.0\n\n0,1,1.0,1.0,\n\n1,0,2.0,2.0,\n1,2,3.0,3.0,\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:8: trajectory 1 needs t = 1"):
        load_trajectories(path)
    path.write_text(HEADER + "\n0,0,0.0,0.0,1.0\n\n0,1,1.0,1.0,\n\n1,0,2.0,2.0,\n")
    data = load_trajectories(path)
    assert data.lengths.tolist() == [2, 1] and data.states.tolist() == [[0, 0], [1, 1], [2, 2]]
    assert data.inputs.tolist() == [[1.0]] and not data.states.flags.writeable


def test_loading_a_trajectory_csv_peaks_near_the_stack_it_builds(tmp_path):
    # 200 unicycle-sized trajectories: an 85 kB stack. Holding every row as
    # Python objects until the stacks were built used to peak at 25 times it.
    rng = np.random.default_rng(0)
    trajs = [(rng.standard_normal((11, 3)), rng.standard_normal((10, 2))) for _ in range(200)]
    path = tmp_path / "many.csv"
    save_trajectories(TrajectoryData.from_pairs(trajs), path)
    load_trajectories(path)  # first-call allocations (imports, caches) out of the measure
    tracemalloc.start()
    try:
        data = load_trajectories(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = data.states.nbytes + data.inputs.nbytes
    assert stack == 84_800 and peak < 3 * stack
    for (s0, u0), (s1, u1) in zip(trajs, data.trajectories):
        assert s0.tobytes() == s1.tobytes() and u0.tobytes() == u1.tobytes()


@pytest.mark.parametrize("center", [
    [1e-9, -1e-9], [np.nextafter(1e-9, 1.0), 0.0], [0.0, -np.nextafter(1e-9, 1.0)],
    [np.nextafter(1e-9, 0.0), -0.0], [0.0, 0.0], [np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf],
], ids=["at-tol", "beyond-tol", "beyond-minus-tol", "inside-tol", "origin", "nan", "inf",
        "minus-inf"])
def test_the_center_test_gives_np_allclose_verdicts(center):
    # A point (no generators) is decided by its center alone, by the test
    # written out in place of np.allclose(center, 0.0, atol=1e-9). A Zonotope
    # holds only finite centers, so a stand-in carries the non-finite ones.
    Z = SimpleNamespace(center=np.array(center), generators=np.zeros((2, 0)))
    assert model_module._zonotope_contains_origin(Z) == np.allclose(Z.center, 0.0, atol=1e-9)


def test_the_origin_test_gives_highs_verdicts():
    # min 0.5 |xi|^2 s.t. G xi = -c, -1 <= xi <= 1 is Optimal exactly when
    # HiGHS finds the LP c + G xi = 0, |xi| <= 1 feasible. The seeded draw
    # spans scales 1e-2 to 1e2 and has fewer generators than dimensions
    # (inconsistent equalities for a random center), centers with the origin
    # on the boundary (one |xi_i| = 1), outside it (|xi| scaled to 1.5) and
    # inside; no verdict raises.
    from scipy.optimize import linprog

    rng, g_below_n, verdicts = np.random.default_rng(43), 0, []
    for trial in range(300):
        n, g = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        G = rng.standard_normal((n, g)) * 10.0 ** rng.uniform(-2, 2)
        xi = rng.uniform(-1.0, 1.0, g)
        kind = trial % 4
        if kind == 1:  # the origin on the boundary for a full-column-rank G
            xi[rng.integers(g)] = rng.choice([-1.0, 1.0])
        elif kind == 2:
            xi *= 1.5 / np.max(np.abs(xi))
        c = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2) if kind == 3 else -G @ xi
        lp = linprog(np.zeros(g), A_eq=G, b_eq=-c, bounds=[(-1.0, 1.0)] * g, method="highs")
        assert lp.status in (0, 2)
        verdict = model_module._zonotope_contains_origin(Zonotope(c, G))
        assert verdict == (lp.status == 0), (trial, n, g)
        g_below_n += g < n
        verdicts.append(verdict)
    assert g_below_n > 50 and 50 < sum(verdicts) < 250
