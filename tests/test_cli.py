import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from koopmpc import cli as cli_module
from koopmpc import controller as controller_module
from koopmpc import qp as qp_module
from koopmpc.cli import main
from koopmpc.model import save_trajectories
from koopmpc.sets import (
    HPolytope,
    TighteningSchedule,
    Zonotope,
    box_polytope,
)
from koopmpc.sim import numerical_example_plant


HEADER_2X1 = "traj_id,t,x_0,x_1,u_0\n"  # two states, one input
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CONTROLLER = {"N": 10, "Q": 1.0, "R": 1.0, "s": 1000.0, "lqr": {"Qk": 1.0, "Rk": 1.0}}


def base_scenario(tmp_path, **overrides):
    doc = {
        "plant": {"kind": "numerical_example", "params": {"lambda": -0.1, "mu": 2.0}},
        "lifting": {"kind": "explicit", "params": {"pre": "identity", "exponents": [[2, 0]]}},
        "ridge": 0.0,
        "data": {
            "generate": {
                "n_traj": 150,
                "traj_len": 4,
                "state_box": {"center": [0.0, 0.0], "half_extents": [2.0, 2.0]},
                "input_box": {"center": [0.0], "half_extents": [3.0]},
                "seed": 0,
            }
        },
        "disturbance": {
            "declared": {
                "W": {"center": [0.0, 0.0, 0.0], "half_extents": [0.0, 0.0, 0.0]},
                "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]},
            }
        },
        "constraints": {
            "state": {"lo": [-5.0, -5.0], "hi": [5.0, 5.0]},
            "input": {"lo": [-3.0], "hi": [3.0]},
        },
        "controller": CONTROLLER,
        "references": {"timed": [[0, [1.0]]]},
        "T": 40,
        "seed": 0,
        "x0": [0.0, 0.0],
        "settle_window": 10,
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


SCENARIO_COMMANDS = ["tighten", "simulate", "steady"]


def scenario_argv(command, scenario, tmp_path):
    """The arguments that run ``command`` on ``scenario`` (with one output,
    as the base scenario has), writing under ``tmp_path``."""
    return {"tighten": ["tighten", str(scenario), str(tmp_path / "schedule.json")],
            "simulate": ["simulate", str(scenario), "--out", str(tmp_path / "runs")],
            "steady": ["steady", str(scenario), "1.0"]}[command]


def wrote_nothing(tmp_path) -> bool:
    """Whether no run of :func:`scenario_argv` left its output under ``tmp_path``."""
    return not (tmp_path / "schedule.json").exists() and not (tmp_path / "runs").exists()


# --- tighten ----------------------------------------------------------------------

def test_tighten_reads_training_data_from_a_path(tmp_path):
    """A scenario whose ``data.path`` holds the trajectories that a2's
    ``data.generate`` recipe makes yields a2's schedule, byte for byte."""
    a2 = json.loads((SCENARIOS / "a2.json").read_text())
    plant = cli_module._build_plant(a2["plant"])
    save_trajectories(cli_module._training_data(a2, plant, SCENARIOS)(), tmp_path / "a2_data.csv")
    a2["data"] = {"path": "a2_data.csv"}  # resolved against the scenario's directory
    scenario = tmp_path / "a2_from_path.json"
    scenario.write_text(json.dumps(a2))
    assert main(["tighten", str(SCENARIOS / "a2.json"), str(tmp_path / "generated.json")]) == 0
    assert main(["tighten", str(scenario), str(tmp_path / "from_path.json")]) == 0
    assert (tmp_path / "from_path.json").read_bytes() == (tmp_path / "generated.json").read_bytes()


def read_schedule(path) -> TighteningSchedule:
    """The schedule a tighten file holds, each R(j) rebuilt as Zonotope(center, G[:, :columns])."""
    doc = json.loads(Path(path).read_text())
    G = np.array(doc["error_generators"], dtype=float)
    sets = {key: [HPolytope(P["normals"], P["offsets"]) for P in doc[key]]
            for key in ("state_sets", "input_sets")}
    return TighteningSchedule(**sets, error_sets=[Zonotope(Z["center"], G[:, : Z["columns"]])
                                                  for Z in doc["error_sets"]])


def schedule_bits(schedule) -> tuple:
    """Every array of ``schedule`` as its shape and bytes, so -0.0 differs from 0.0."""
    def bits(a):
        return a.shape, a.tobytes()

    return ([(bits(P.normals), bits(P.offsets)) for P in schedule.state_sets],
            [(bits(P.normals), bits(P.offsets)) for P in schedule.input_sets],
            [(bits(Z.center), bits(Z.generators)) for Z in schedule.error_sets])


def _zero_generator_scenario(tmp_path):
    W = {"center": [0.0, 0.0, 0.0], "generators": [[], [], []]}
    V = {"center": [0.0, 0.0], "half_extents": [0.05, 0.05]}
    return base_scenario(tmp_path, disturbance={"declared": {"W": W, "V": V}})


@pytest.mark.parametrize("scenario", [
    lambda tmp_path: SCENARIOS / "a1.json",
    lambda tmp_path: SCENARIOS / "a2.json",
    lambda tmp_path: SCENARIOS / "unicycle_square.json",
    _zero_generator_scenario,
    lambda tmp_path: base_scenario(tmp_path, controller=CONTROLLER | {"N": 1}),
], ids=["a1", "a2", "unicycle_square", "g0", "N1"])
def test_tighten_writes_what_json_dumps_writes(tmp_path, scenario):
    """The file is one line from the stock encoder, and each R(j) rebuilt from
    R(N)'s generators, like every state and input set, is the library's, bit for bit."""
    path = scenario(tmp_path)
    out = tmp_path / "schedule.json"
    assert main(["tighten", str(path), str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text)) + "\n"
    schedule = cli_module.build_stack(path).schedule
    assert schedule_bits(read_schedule(out)) == schedule_bits(schedule)


def test_tighten_refuses_error_sets_that_are_not_prefixes(tmp_path, capsys, monkeypatch):
    """A schedule whose R(1) is not the first column of R(2), or differs from
    it only in the sign of a zero, is refused (exit 2), and nothing is written."""
    X = box_polytope([-1.0], [1.0])
    for first in ([[0.5]], [[-0.0]]):
        schedule = TighteningSchedule(
            state_sets=[X] * 3, input_sets=[X] * 3,
            error_sets=[Zonotope(center=[0.0], generators=first),
                        Zonotope(center=[0.0], generators=[[0.0, 0.25]])],
        )
        monkeypatch.setattr(cli_module, "build_stack", lambda path: SimpleNamespace(schedule=schedule))
        out = tmp_path / "schedule.json"
        assert main(["tighten", "scenario.json", str(out)]) == 2
        assert "error set R(1) is not a prefix of R(N)'s generators" in capsys.readouterr().err
        assert not out.exists()


def test_tighten_writes_an_error_set_without_generators_under_a_longer_one(tmp_path, monkeypatch):
    """R(1) with no generator column is a prefix of any R(2): it reads back with 0 columns."""
    X = box_polytope([-1.0], [1.0])
    schedule = TighteningSchedule(
        state_sets=[X] * 3, input_sets=[X] * 3,
        error_sets=[Zonotope(center=[0.0], generators=np.zeros((1, 0))),
                    Zonotope(center=[0.0], generators=[[0.5, -0.0]])],
    )
    monkeypatch.setattr(cli_module, "build_stack", lambda path: SimpleNamespace(schedule=schedule))
    out = tmp_path / "schedule.json"
    assert main(["tighten", "scenario.json", str(out)]) == 0
    assert [Z["columns"] for Z in json.loads(out.read_text())["error_sets"]] == [0, 2]
    assert schedule_bits(read_schedule(out)) == schedule_bits(schedule)


def test_tighten_zero_disturbance_keeps_raw_sets(tmp_path):
    scenario = base_scenario(tmp_path)
    out = tmp_path / "schedule.json"
    assert main(["tighten", str(scenario), str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["horizon"] == 10
    assert len(doc["state_sets"]) == 11
    assert len(doc["input_sets"]) == 11
    assert np.allclose(doc["state_sets"][10]["offsets"], [5.0, 5.0, 5.0, 5.0])
    assert np.allclose(doc["input_sets"][10]["offsets"], [3.0, 3.0])


def test_tighten_oversized_disturbance_exit_4(tmp_path, capsys):
    scenario = base_scenario(
        tmp_path,
        disturbance={
            "declared": {
                "W": {"center": [0.0, 0.0, 0.0], "half_extents": [10.0, 10.0, 10.0]},
                "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]},
            }
        },
    )
    code = main(["tighten", str(scenario), str(tmp_path / "schedule.json")])
    assert code == 4
    assert "1" in capsys.readouterr().err  # names the offending horizon index


def test_tighten_lqr_no_convergence_exit_4(tmp_path, capsys):
    # P starts at Q_k = 1e13 I, past the divergence bound, on a stabilizable pair.
    scenario = base_scenario(
        tmp_path, controller={**CONTROLLER, "lqr": {"Qk": 1e13, "Rk": 1.0}}
    )
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 4
    assert "Riccati iteration stopped where |P| passed its divergence bound 1e12" in (
        capsys.readouterr().err)


def test_tighten_takes_tiny_lqr_weights_exit_0(tmp_path):
    # Q_k = R_k = 1e-14 is the LQR problem of a2's own Q_k = R_k = 1: dlqr's
    # fixed-point stop has no absolute scale that would refuse it.
    a2 = json.loads((SCENARIOS / "a2.json").read_text())
    a2["controller"]["lqr"] = {"Qk": 1e-14, "Rk": 1e-14}
    scenario = tmp_path / "a2.json"
    scenario.write_text(json.dumps(a2))
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 0


def test_tighten_lqr_not_stabilizing_exit_4(tmp_path, capsys):
    # |lambda| > 1 makes the x1 and x1^2 modes unstable, and no input reaches them.
    scenario = base_scenario(
        tmp_path, plant={"kind": "numerical_example", "params": {"lambda": 1.5, "mu": 2.0}}
    )
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 4
    assert "spectral radius" in capsys.readouterr().err


def test_tighten_lqr_indefinite_riccati_matrix_exit_4(tmp_path, capsys):
    # On a2 with Q_k = 1e-10 I and R_k = 1e6, P's entries reach 3e6 and its
    # smallest eigenvalue is lost to rounding: dlqr refuses the gain with
    # NoConvergence, not with GainResult's ValueError (exit 2).
    a2 = json.loads((SCENARIOS / "a2.json").read_text())
    a2["controller"]["lqr"] = {"Qk": 1e-10, "Rk": 1e6}
    scenario = tmp_path / "a2.json"
    scenario.write_text(json.dumps(a2))
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 4
    assert "P is not positive definite" in capsys.readouterr().err


def test_tighten_underdetermined_fit_exit_3(tmp_path, capsys):
    # One transition cannot pin down a2's 3 + 1 coefficient columns, and ridge
    # 0 adds no penalty that would: the scenario's own fit exits 3.
    a2 = json.loads((SCENARIOS / "a2.json").read_text())
    a2["ridge"] = 0
    a2["data"]["generate"] |= {"n_traj": 1, "traj_len": 1}
    scenario = tmp_path / "a2.json"
    scenario.write_text(json.dumps(a2))
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 3
    assert ("fit failed: 1 transitions cannot determine 4 coefficient columns"
            in capsys.readouterr().err)
    assert not (tmp_path / "schedule.json").exists()


@pytest.mark.parametrize("lqr", [{"tol": 1e-9}, {"max_iter": 300000}], ids=["tol", "max_iter"])
@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_the_removed_lqr_stopping_keys_are_refused_exit_2(tmp_path, capsys, monkeypatch, lqr,
                                                          command):
    # dlqr stops at its floating-point fixed point, so controller.lqr takes no
    # tolerance or step budget: a scenario that sets one is refused by name.
    def no_fit(*args, **kwargs):
        raise AssertionError("the scenario was fitted before its lqr block was checked")

    monkeypatch.setattr(cli_module, "fit_edmd", no_fit)
    scenario = base_scenario(
        tmp_path, controller={**CONTROLLER, "lqr": {"Qk": 1.0, "Rk": 1.0, **lqr}}
    )
    assert main(scenario_argv(command, scenario, tmp_path)) == 2
    assert f"unknown controller.lqr key {next(iter(lqr))!r}" in capsys.readouterr().err


# --- scenario validation -------------------------------------------------------------

@pytest.mark.parametrize("overrides, named", [
    ({"contoller_typo": {}}, "scenario key 'contoller_typo'"),
    ({"controller": {**CONTROLLER, "S": 1000.0}}, "controller key 'S'"),
    ({"controller": {**CONTROLLER, "lqr": {"Qk": 1.0, "Rk": 1.0, "Q": 1.0}}},
     "controller.lqr key 'Q'"),
])
@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_unknown_scenario_key_exit_2(tmp_path, capsys, overrides, named, command):
    assert main(scenario_argv(command, base_scenario(tmp_path, **overrides), tmp_path)) == 2
    assert f"unknown {named}" in capsys.readouterr().err


@pytest.mark.parametrize("block, key", [
    *(("scenario", key) for key in ("plant", "lifting", "constraints", "controller", "T")),
    *(("controller", key) for key in ("N", "Q", "R", "s")),
    ("constraints", "state"), ("constraints", "input"),
    ("disturbance.declared", "W"), ("disturbance.declared", "V"),
    ("injected", "W"), ("injected", "V"),
    *(("data.generate", key) for key in ("n_traj", "traj_len", "input_box", "state_box")),
    ("references.waypoints", "points"), ("references.waypoints", "switch_radius"),
])
@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_a_missing_required_key_is_named_exit_2(tmp_path, capsys, monkeypatch, block, key,
                                                command):
    # Every key the stack cannot do without is named with its block, before
    # any data is made.
    def no_data(*args, **kwargs):
        raise AssertionError("training data was made before the scenario was checked")

    monkeypatch.setattr(cli_module, "generate_training_data", no_data)
    zero = {"center": [0.0, 0.0, 0.0], "half_extents": [0.0, 0.0, 0.0]}
    scenario = base_scenario(
        tmp_path, injected={"W": zero, "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]}},
        references={"waypoints": {"points": [[1.0]], "switch_radius": 0.3}},
    )
    doc = json.loads(scenario.read_text())
    holder = doc
    for name in [] if block == "scenario" else block.split("."):
        holder = holder[name]
    del holder[key]
    scenario.write_text(json.dumps(doc))
    assert main(scenario_argv(command, scenario, tmp_path)) == 2
    assert f"error: {block} needs key {key!r}\n" in capsys.readouterr().err
    assert wrote_nothing(tmp_path)


def test_tighten_validates_the_whole_scenario(tmp_path, capsys):
    # tighten never reads the references, but a scenario must be complete.
    scenario = base_scenario(tmp_path, references={"timed": [[5, [1.0]]]})
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 2
    assert "step 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, dotted, overrides", [
    ("simulate", "out_dir", {"out_dir": 5}),
    ("tighten", "data.path", {"data": {"path": 5}}),
], ids=["out_dir", "data.path"])
def test_path_scenario_keys_must_be_strings_exit_2(tmp_path, capsys, monkeypatch, command, dotted,
                                                   overrides):
    # Rejected with the key named before any data is read or made: "out_dir": 5
    # used to exit 1 with a TypeError from Path, and "data": {"path": 5} from "/".
    for name in ("generate_training_data", "load_trajectories", "fit_edmd"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("validated too late"))
    scenario = str(base_scenario(tmp_path, **overrides))
    args = {"simulate": [scenario], "tighten": [scenario, str(tmp_path / "schedule.json")]}
    assert main([command, *args[command]]) == 2
    assert f"{dotted} must be a string (a path), got 5" in capsys.readouterr().err


def scenario_with_key(tmp_path, block, key):
    """The base scenario with ``key`` added to the (possibly new) dotted ``block``;
    the block ``scenario`` is the top level."""
    scenario = base_scenario(tmp_path)
    doc = json.loads(scenario.read_text())
    node = doc
    for part in block.split(".") if block != "scenario" else ():
        node = node.setdefault(part, {})
    node[key] = 1.0
    scenario.write_text(json.dumps(doc))
    return scenario


UNKNOWN_KEYS = pytest.mark.parametrize("block, key", [
    ("plant", "parms"),
    ("data", "pth"),
    ("data.generate", "n_trajs"),
    ("disturbance", "inflation"),
    ("disturbance.declared", "w"),
    ("injected", "scale"),
    ("constraints", "output"),
    ("references", "waypoint"),
    ("scenario", "steady_grid"),  # the removed grid search's block
    ("scenario", "output_matrix"),  # the tracked output is the plant's C, stated once
    ("lifting", "parms"),
    ("lifting.params", "max_degree"),  # a key of the removed polynomial kind
    ("disturbance.declared.W", "radius"),
    ("constraints.state", "mid"),
])


@UNKNOWN_KEYS
def test_unknown_key_in_a_scenario_block_exit_2(tmp_path, capsys, block, key):
    scenario = scenario_with_key(tmp_path, block, key)
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 2
    assert f"unknown {block} key {key!r}" in capsys.readouterr().err


@UNKNOWN_KEYS
@pytest.mark.parametrize("command", ["simulate", "steady"])
def test_simulate_and_steady_refuse_the_same_unknown_keys_exit_2(tmp_path, capsys, command,
                                                                block, key):
    assert main(scenario_argv(command, scenario_with_key(tmp_path, block, key), tmp_path)) == 2
    assert f"unknown {block} key {key!r}" in capsys.readouterr().err


def test_a_plant_takes_its_factorys_defaults_for_the_params_it_leaves_out():
    default = numerical_example_plant().A_lift.tobytes()
    for doc in ({"kind": "numerical_example"}, {"kind": "numerical_example", "params": {}},
                {"kind": "numerical_example", "params": {"mu": 2}}):
        assert cli_module._build_plant(doc).A_lift.tobytes() == default
    unicycle = cli_module._build_plant({"kind": "unicycle"})
    assert unicycle.f(np.zeros((1, 3)), np.ones((1, 2))).tolist() == [[0.1, 0.0, 0.1]]


@pytest.mark.parametrize("overrides, named", [
    ({"injected": {"W": {"center": [0.0, 0.0, 0.0], "half_extents": [0.1, 0.1, 0.1],
                         "generators": [[0.1], [0.1], [0.1]]},
                   "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]}}},
     "injected.W must give exactly one of 'half_extents' or 'generators'"),
    ({"constraints": {"state": {"lo": [-5.0, -5.0], "hi": [5.0, 5.0, 5.0]},
                      "input": {"lo": [-3.0], "hi": [3.0]}}},
     "constraints.state.hi must list 2 numbers"),
    ({"injected": {"W": {"center": [0.0, 0.0, 0.0], "half_extents": [0.1, 0.1]},
                   "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]}}},
     "injected.W: generators have 2 rows for a 3-dim center"),
    ({"disturbance": {"declared": {"W": {"center": [0.0, 0.0], "half_extents": [0.1, 0.1]},
                                   "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]}}}},
     "disturbance.declared.W must be 3-dimensional"),
    ({"disturbance": {"declared": {"W": {"center": [0.0] * 3, "half_extents": [0.1] * 3},
                                   "V": {"center": [0.0] * 3, "half_extents": [0.0] * 3}}}},
     "disturbance.declared.V must be 2-dimensional"),
    ({"injected": {"W": {"center": [0.0, 0.0], "half_extents": [0.1, 0.1]},
                   "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]}}},
     "injected.W must be 3-dimensional"),
    ({"plant": {"kind": "unicycle", "params": {"dt": 0.1}},
      "lifting": {"kind": "explicit", "params": {"pre": "identity", "exponents": [[2, 0, 0]]}},
      "injected": {"W": {"center": [0.0] * 4, "half_extents": [0.1] * 4},
                   "V": {"center": [0.0] * 3, "half_extents": [0.0] * 3}}},
     "injected: the unicycle plant takes no injected disturbance"),
    ({"x0": [0.0, 0.0, 0.0]}, "x0 must list 2 numbers"),
    ({"x0": [float("nan"), 0.0]}, "x0 must list 2 numbers, all finite, got [nan, 0.0]"),
    ({"constraints": {"state": {"lo": [-5.0, -5.0], "hi": [float("inf"), 5.0]},
                      "input": {"lo": [-3.0], "hi": [3.0]}}},
     "constraints.state: polytope data must be finite"),
    ({"data": {}}, "scenario 'data' must give exactly one of 'path' or 'generate'"),
    ({"disturbance": {}}, "scenario 'disturbance' must give 'declared'"),
    ({"disturbance": [0.1, 0.1]}, "disturbance must be an object"),
    ({"references": {}}, "scenario 'references' must give 'timed' or 'waypoints'"),
    ({"plant": {"kind": "pendulum"}}, "unknown plant kind 'pendulum'"),
    ({"plant": {"kind": ["unicycle"]}}, "unknown plant kind ['unicycle']"),
    ({"controller": 5}, "controller must be an object"),
    ({"injected": {"W": {"half_extents": [0.1, 0.1, 0.1]},
                   "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]}}},
     "injected.W needs 'center' and 'half_extents' or 'generators'"),
    # A zonotope is read as written: a flat generators list used to be
    # reshaped to (n, -1), and half_extents written as a matrix went through
    # np.diag, which took its diagonal as one generator column.
    ({"disturbance": {"declared": {"W": {"center": [0.0] * 3,
                                         "generators": [0.01, 0.02, 0.03, 0.01, 0.02, 0.03]},
                                   "V": {"center": [0.0] * 2, "half_extents": [0.0] * 2}}}},
     "disturbance.declared.W: generators must be an (n, g) matrix ([[], ...] for g = 0), "
     "got shape (6,)"),
    ({"disturbance": {"declared": {"W": {"center": [0.0] * 3,
                                         "half_extents": [[0.31, 0.0, 0.0], [0.0, 0.31, 0.0],
                                                          [0.0, 0.0, 0.125]]},
                                   "V": {"center": [0.0] * 2, "half_extents": [0.0] * 2}}}},
     "disturbance.declared.W: half_extents must be a list of numbers >= 0, got [[0.31"),
    ({"disturbance": {"declared": {"W": {"center": [0.0] * 3, "half_extents": [0.31, -0.31, 0.1]},
                                   "V": {"center": [0.0] * 2, "half_extents": [0.0] * 2}}}},
     "disturbance.declared.W: half_extents must be a list of numbers >= 0, got [0.31, -0.31, 0.1]"),
    # A center written as a 3 x 1 matrix used to be raveled to 3 numbers.
    ({"disturbance": {"declared": {"W": {"center": [[0.0], [0.0], [0.0]],
                                         "half_extents": [0.31, 0.31, 0.125]},
                                   "V": {"center": [0.0] * 2, "half_extents": [0.0] * 2}}}},
     "disturbance.declared.W: center must be a list of numbers, got shape (3, 1)"),
    # A set that misses the origin is named with its block.
    ({"disturbance": {"declared": {"W": {"center": [0.5, 0.0, 0.0], "half_extents": [0.1] * 3},
                                   "V": {"center": [0.0] * 2, "half_extents": [0.0] * 2}}}},
     "disturbance.declared.W must contain the origin"),
    ({"disturbance": {"declared": {"W": {"center": [0.1, 0.0, 0.0], "generators": [[], [], []]},
                                   "V": {"center": [0.0] * 2, "half_extents": [0.0] * 2}}}},
     "disturbance.declared.W must contain the origin"),
    ({"disturbance": {"declared": {"W": {"center": [0.0] * 3, "half_extents": [0.0] * 3},
                                   "V": {"center": [0.0, 0.2], "half_extents": [0.1, 0.1]}}}},
     "disturbance.declared.V must contain the origin"),
    ({"injected": {"W": {"center": [0.0, 0.3, 0.0], "generators": [[0.1], [0.1], [0.1]]},
                   "V": {"center": [0.0] * 2, "half_extents": [0.0] * 2}}},
     "injected.W must contain the origin"),
    ({"injected": {"W": {"center": [0.0] * 3, "half_extents": [0.1] * 3},
                   "V": {"center": [0.0, -0.1], "generators": [[], []]}}},
     "injected.V must contain the origin"),
], ids=["injected.W-two-generator-forms", "constraints.state.hi-length",
        "injected.W-half-extents-length",
        "disturbance.declared.W-dim", "disturbance.declared.V-dim", "injected.W-dim",
        "injected-on-unicycle", "x0-length", "x0-nan", "constraints.state-infinite",
        "data-neither", "disturbance-neither", "disturbance-not-an-object", "references-neither", "plant.kind-unknown",
        "plant.kind-list", "controller-not-an-object", "injected.W-no-center",
        "declared.W-flat-generators", "declared.W-half-extents-matrix",
        "declared.W-half-extents-negative", "declared.W-center-column", "declared.W-off-origin", "declared.W-point-off-origin",
        "declared.V-off-origin", "injected.W-off-origin", "injected.V-point-off-origin"])
def test_malformed_scenario_sub_document_exit_2(tmp_path, capsys, overrides, named):
    scenario = base_scenario(tmp_path, **overrides)
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 2
    assert named in capsys.readouterr().err


# A lifting block is read by the one reader that every scenario command calls,
# before any training data is read, generated or fitted.
MALFORMED_LIFTING_BLOCKS = {
    "lifting.kind-missing": ({"params": {"exponents": [[2, 0]]}}, "unknown lifting kind None"),
    "lifting.kind-list": ({"kind": ["explicit"], "params": {}},
                          "unknown lifting kind ['explicit']"),
    "lifting-number": (5, "lifting must be an object"),
    "lifting-list": ([1], "lifting must be an object"),
    "lifting-string": ("x", "lifting must be an object"),
    "lifting.params-number": ({"kind": "explicit", "params": 5},
                              "lifting.params must be an object, got 5"),
    "lifting.params-list": ({"kind": "explicit", "params": [[2, 0]]},
                            "lifting.params must be an object, got [[2, 0]]"),
    "lifting.params-missing-exponents": ({"kind": "explicit", "params": {"pre": "identity"}},
                                         "lifting.params of kind 'explicit' needs key 'exponents'"),
    "lifting.exponents-fraction": ({"kind": "explicit", "params": {"exponents": [[2.5, 0]]}},
                                   "exponents must be integers in [0, 2**63), got 2.5"),
}


@pytest.mark.parametrize("lifting, named", MALFORMED_LIFTING_BLOCKS.values(),
                         ids=MALFORMED_LIFTING_BLOCKS)
@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_a_malformed_lifting_block_is_refused_by_name_exit_2(tmp_path, capsys, monkeypatch,
                                                             command, lifting, named):
    for name in ("generate_training_data", "load_trajectories", "fit_edmd"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("validated too late"))
    assert main(scenario_argv(command, base_scenario(tmp_path, lifting=lifting), tmp_path)) == 2
    assert named in capsys.readouterr().err
    assert wrote_nothing(tmp_path)


def test_a_zonotope_with_no_generators_is_the_point_it_is(tmp_path):
    # generators [[], [], []] is the (3, 0) matrix: W is the origin alone, and
    # tightens as zero half extents do.
    offsets = {}
    for form, W in (("point", {"center": [0.0] * 3, "generators": [[], [], []]}),
                    ("box", {"center": [0.0] * 3, "half_extents": [0.0] * 3})):
        V = {"center": [0.0] * 2, "half_extents": [0.0] * 2}
        scenario = base_scenario(tmp_path, disturbance={"declared": {"W": W, "V": V}})
        out = tmp_path / f"{form}.json"
        assert main(["tighten", str(scenario), str(out)]) == 0
        doc = json.loads(out.read_text())
        offsets[form] = [P["offsets"] for P in doc["state_sets"] + doc["input_sets"]]
        assert len(doc["error_generators"][0]) == doc["horizon"] * (0 if form == "point" else 3)
    assert offsets["point"] == offsets["box"]


@pytest.mark.parametrize("text, named", [
    ("", "{path} is empty"),
    (HEADER_2X1 + "0,0,0.0,0.0,1.0\n0,1,1.0,1.0\n", "{path}:3: expected 5 cells, got 4"),
    (HEADER_2X1 + "0,0,0.0,zero,1.0\n0,1,1.0,1.0,\n", "{path}:2: non-numeric cell"),
    (HEADER_2X1 + "0,0,0.0,0.0,1.0\n0,5,1.0,1.0,1.0\n1,0,2.0,2.0,\n0,1,3.0,3.0,\n",
     "{path}:3: trajectory 0 needs t = 1 here, got '5'"),
    (HEADER_2X1 + "0,0,0.0,0.0,1.0\n1,0,5.0,5.0,1.0\n0,1,1.0,1.0,\n1,1,6.0,6.0,\n",
     "{path}:4: the rows of trajectory 0 are not contiguous"),
    ("not,a,training\nfile,1,2\n", "{path}: unexpected header ['not', 'a', 'training']"),
    (None, "[Errno 2] No such file or directory: '{path}'"),
], ids=["empty", "cell-count", "non-numeric", "t-skips", "interleaved", "header", "missing"])
@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_a_malformed_trajectory_file_is_named_by_path_and_line_exit_2(tmp_path, capsys, command,
                                                                       text, named):
    path = tmp_path / "train.csv"
    if text is not None:
        path.write_text(text)
    scenario = base_scenario(tmp_path, data={"path": "train.csv"})
    assert main(scenario_argv(command, scenario, tmp_path)) == 2
    assert f"error: {named.format(path=path)}" in capsys.readouterr().err
    assert wrote_nothing(tmp_path)


# Forms that no shipped scenario used and that were removed: each is refused by
# name, before any training data is read, generated or fitted.
REMOVED_FORMS = {
    "scenario-polynomial": ({"lifting": {"kind": "polynomial", "params": {"max_degree": 2}}},
                            "unknown lifting kind 'polynomial'"),
    "scenario-rbf": ({"lifting": {"kind": "rbf", "params": {"centers": [[0.0, 0.0]],
                                                            "width": 1.0}}},
                     "unknown lifting kind 'rbf'"),
    "scenario-rbf-params-list": ({"lifting": {"kind": "rbf", "params": [1.0]}},
                                 "unknown lifting kind 'rbf'"),
    "scenario-estimate": ({"disturbance": {"estimate": {"inflation": 1.5}}},
                          "unknown disturbance key 'estimate'"),
    "scenario-estimate-beside-declared": (
        {"disturbance": {"declared": {"W": {"center": [0.0] * 3, "half_extents": [0.0] * 3}},
                         "estimate": {}}},
        "unknown disturbance key 'estimate'"),
}


@pytest.mark.parametrize("doc, named", REMOVED_FORMS.values(), ids=REMOVED_FORMS)
def test_a_removed_form_is_refused_by_name_exit_2(tmp_path, capsys, monkeypatch, doc, named):
    for name in ("generate_training_data", "load_trajectories", "fit_edmd"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("validated too late"))
    out = tmp_path / "out.json"
    assert main(["tighten", str(base_scenario(tmp_path, **doc)), str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_the_removed_fit_command_exits_2_in_argparse(tmp_path, capsys):
    # Every scenario fits its own model, so there is no fit command: its
    # arguments are refused before any file is opened.
    with pytest.raises(SystemExit) as done:
        main(["fit", str(tmp_path / "train.csv"), str(tmp_path / "lifting.json"),
              str(tmp_path / "model.json")])
    assert done.value.code == 2
    assert "invalid choice: 'fit'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_non_finite_lifted_features_are_named_before_the_fit_exit_2(tmp_path, capfd):
    # An exponent of 2**62 passes the lifting's check but lifts every
    # training state with |x_1| > 1 to inf: the fit names the lifting before
    # least squares runs, so LAPACK prints nothing and no schedule is written.
    doc = json.loads((SCENARIOS / "a1.json").read_text())
    doc["lifting"]["params"]["exponents"] = [[4611686018427387904, 0]]
    scenario = tmp_path / "a1.json"
    scenario.write_text(json.dumps(doc))
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 2
    err = capfd.readouterr().err
    assert "error: the lifting maps" in err
    assert "training states to non-finite features" in err
    assert "DLASCL" not in err and "SVD did not converge" not in err
    assert not (tmp_path / "schedule.json").exists()


def scenario_with_value(tmp_path, dotted, value, **overrides):
    """The base scenario, with ``overrides``, and the dotted key set to ``value``."""
    scenario = base_scenario(tmp_path, **overrides)
    doc = json.loads(scenario.read_text())
    *blocks, key = dotted.split(".")
    node = doc
    for part in blocks:
        node = node[part]
    node[key] = value
    scenario.write_text(json.dumps(doc))
    return scenario


@pytest.mark.parametrize("dotted, minimum", [
    ("T", 1), ("seed", 0), ("settle_window", 1), ("controller.N", 1),
    ("data.generate.n_traj", 1), ("data.generate.traj_len", 1), ("data.generate.seed", 0),
])
@pytest.mark.parametrize("bad", ["fraction", "integral float", "bool", "below minimum"])
def test_integer_scenario_keys_are_strict_exit_2(tmp_path, capsys, monkeypatch, dotted, minimum,
                                                 bad):
    # Rejected with the key named before any data is generated or fitted:
    # "T": 2.5 used to run 2 steps, and "T": 0 to fit and tighten first.
    value = {"fraction": 2.5, "integral float": 2.0, "bool": True,
             "below minimum": minimum - 1}[bad]
    for name in ("generate_training_data", "fit_edmd"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("validated too late"))
    scenario = scenario_with_value(tmp_path, dotted, value)
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "runs")]) == 2
    assert f"{dotted} must be an integer >= {minimum}, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("dotted, text, named", [
    ("controller.s", '"1000"', "controller.s must be a finite positive number, got '1000'"),
    ("controller.s", "true", "controller.s must be a finite positive number, got True"),
    ("controller.s", "1e400", "controller.s must be a finite positive number, got inf"),
    ("ridge", '"0.0"', "ridge must be a finite number >= 0, got '0.0'"),
    ("ridge", "true", "ridge must be a finite number >= 0, got True"),
    ("ridge", "-1e-3", "ridge must be a finite number >= 0, got -0.001"),
    ("controller.Q", "true", "controller.Q must be a scalar or an 3x3 matrix"),
    ("controller.R", "true", "controller.R must be a scalar or an 1x1 matrix"),
    ("controller.lqr.Qk", "true", "controller.lqr.Qk must be a scalar or an 3x3 matrix"),
    ("controller.lqr.Rk", "true", "controller.lqr.Rk must be a scalar or an 1x1 matrix"),
    ("plant", '{"kind": "unicycle", "params": {"dt": "0.1"}}',
     "plant.params.dt must be a finite positive number, got '0.1'"),
    ("plant", '{"kind": "unicycle", "params": {"dt": true}}',
     "plant.params.dt must be a finite positive number, got True"),
    ("plant", '{"kind": "unicycle", "params": {"dt": 0}}',
     "plant.params.dt must be a finite positive number, got 0"),
    ("plant", '{"kind": "numerical_example", "params": {"lambda": "-0.1"}}',
     "plant.params.lambda must be a finite number, got '-0.1'"),
    ("plant", '{"kind": "numerical_example", "params": {"lambda": true}}',
     "plant.params.lambda must be a finite number, got True"),
    ("plant", '{"kind": "numerical_example", "params": {"lambda": "nan"}}',
     "plant.params.lambda must be a finite number, got 'nan'"),
    ("plant", '{"kind": "numerical_example", "params": {"mu": 1e400}}',
     "plant.params.mu must be a finite number, got inf"),
    ("plant", '{"kind": "numerical_example", "params": {"lambda": 1e200}}',
     "plant.params.lambda must have a finite square, got 1e+200"),
    # @big@ is an integer too large for a float, which json reads as an int.
    ("plant", '{"kind": "numerical_example", "params": {"lambda": @big@}}',
     "plant.params.lambda must be a finite number, got 1000"),
    ("x0", "[@big@, 0.0]", "x0 must list 2 numbers, all finite, got [1000"),
    ("controller.s", "@big@", "controller.s must be a finite positive number, got 1000"),
    ("controller.Q", "@big@", "controller.Q must be a finite number, got 1000"),
    ("controller.Q", "[[@big@, 0, 0], [0, 1, 0], [0, 0, 1]]",
     "controller.Q holds an integer too large for a float"),
    ("controller.lqr", '{"Qk": @big@}', "controller.lqr.Qk must be a finite number, got 1000"),
    ("ridge", "@big@", "ridge must be a finite number >= 0, got 1000"),
    ("references", '{"timed": [[0, [@big@]]]}',
     "references.timed[0] target must list 1 numbers, all finite, got [1000"),
    ("constraints.state", '{"lo": [-5.0, -5.0], "hi": [@big@, 5.0]}',
     "constraints.state.hi holds an integer too large for a float"),
    ("data.generate.state_box", '{"center": [0.0, 0.0], "half_extents": [@big@, 2.0]}',
     "data.generate.state_box.half_extents holds an integer too large for a float"),
    ("references", '{"waypoints": {"points": [[1.0]], "switch_radius": @big@}}',
     "references.waypoints.switch_radius must be a finite positive number, got 1000"),
    ("lifting", '{"kind": "explicit", "params": {"exponents": [[@big@, 0]]}}',
     "exponents must be integers in [0, 2**63), got 1000"),
    ("controller.Q", "[[{}, 0, 0], [0, 1, 0], [0, 0, 1]]",
     "controller.Q must be a (nested) list of real numbers, got [[{}, 0, 0]"),
    ("constraints.input", '{"lo": [{}], "hi": [3.0]}',
     "constraints.input.lo must be a (nested) list of real numbers, got [{}]"),
    ("controller.Q", '[["1", 0, 0], [0, 1, 0], [0, 0, 1]]',
     "controller.Q must be a (nested) list of real numbers, got [['1', 0, 0]"),
    ("disturbance", '{"declared": {"W": {"center": [0, 0, 0], "half_extents": ["0.1", 0, 0]}, '
     '"V": {"center": [0, 0], "half_extents": [0, 0]}}}',
     "disturbance.declared.W.half_extents must be a (nested) list of real numbers, got ['0.1'"),
    ("constraints.state", '{"lo": [-5.0, -5.0], "hi": ["5", 5.0]}',
     "constraints.state.hi must be a (nested) list of real numbers, got ['5', 5.0]"),
    ("lifting", '{"kind": "explicit", "params": {"exponents": [[@huge@, 0]]}}',
     f"exponents must be integers in [0, 2**63), got {10**29}"),
    ("controller.Q", "[[1, 0, 0], [0, 1], [0, 0, 1]]",
     "controller.Q must be a rectangular list, got [[1, 0, 0], [0, 1], [0, 0, 1]]"),
    ("controller.Q", "[[Infinity, 0, 0], [0, 1, 0], [0, 0, 1]]",
     "controller.Q must be a scalar or an 3x3 matrix of finite numbers, got [[inf, 0, 0]"),
    ("controller.R", "[[Infinity]]",
     "controller.R must be a scalar or an 1x1 matrix of finite numbers, got [[inf]]"),
    ("controller.lqr.Qk", "[[1, 0, 0], [0, Infinity, 0], [0, 0, 1]]",
     "controller.lqr.Qk must be a scalar or an 3x3 matrix of finite numbers, got [[1, 0, 0], "
     "[0, inf, 0]"),
    ("controller.lqr.Rk", "[[Infinity]]",
     "controller.lqr.Rk must be a scalar or an 1x1 matrix of finite numbers, got [[inf]]"),
    ("controller.Q", "[[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]",
     "controller.Q must be a scalar or an 3x3 matrix of finite numbers, got [[nan, 0, 0]"),
    ("controller.lqr.Rk", "[[-Infinity]]",
     "controller.lqr.Rk must be a scalar or an 1x1 matrix of finite numbers, got [[-inf]]"),
], ids=["s-string", "s-bool", "s-overflow", "ridge-string", "ridge-bool", "ridge-negative",
        "Q-bool", "R-bool", "Qk-bool", "Rk-bool", "dt-string",
        "dt-bool", "dt-zero", "lambda-string", "lambda-bool", "lambda-nan-string", "mu-overflow",
        "lambda-square-overflow",
        "lambda-big-int", "x0-big-int", "s-big-int", "Q-big-int", "Q-entry-big-int", "Qk-big-int",
        "ridge-big-int", "timed-target-big-int", "constraints.state.hi-big-int",
        "half_extents-big-int", "switch_radius-big-int", "exponents-big-int", "Q-entry-object",
        "input.lo-object", "Q-entry-string", "W.half_extents-string", "constraints.state.hi-string",
        "exponents-huge-int", "Q-ragged", "Q-entry-inf", "R-entry-inf", "Qk-entry-inf",
        "Rk-entry-inf", "Q-entry-nan", "Rk-entry-minus-inf"])
def test_scalar_scenario_keys_are_strict_exit_2(tmp_path, capsys, monkeypatch, dotted, text,
                                                named):
    # Rejected with the key named before any data is generated or fitted:
    # "s": "1000", "ridge": true, "dt": "0.1" and "lambda": "-0.1" used to run,
    # a weight of true ran as 1*I and "lambda": true as 1, "s": 1e400 failed
    # only after fitting, with no key named, "lambda": "nan" named a
    # training trajectory, and an integer too large for a float exited 1
    # with a traceback. So did a non-number in an array-valued key, an
    # exponent too large for a 64-bit integer, and a string box bound, which
    # failed when the steady-pair grid was built; a numeric string in an
    # array-valued key ran.
    for name in ("generate_training_data", "fit_edmd"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("validated too late"))
    scenario = scenario_with_value(tmp_path, dotted, "@value@")
    text = text.replace("@big@", str(10**400)).replace("@huge@", str(10**29))
    scenario.write_text(scenario.read_text().replace('"@value@"', text))
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "runs")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("overrides, named", [
    ({"references": {"timed": [[0, [1.0]], [2.5, [2.0]]]}},
     "references.timed[1] start step must be an integer >= 0, got 2.5"),
    ({"references": {"timed": [[True, [1.0]]]}},
     "references.timed[0] start step must be an integer >= 0, got True"),
    ({"references": {"timed": [[-1, [1.0]]]}},
     "references.timed[0] start step must be an integer >= 0, got -1"),
    ({"references": {"timed": [[0]]}}, "references.timed[0] must be [start_step, target]"),
    ({"references": {"timed": []}}, "references.timed must be a non-empty list"),
    ({"references": {"timed": [[0, [1.0, 2.0]]]}},
     "references.timed[0] target must list 1 numbers, all finite, got [1.0, 2.0]"),
    ({"references": {"timed": [[0, 1.0]]}},
     "references.timed[0] target must list 1 numbers, all finite"),
    ({"references": {"timed": [[0, [float("nan")]]]}},
     "references.timed[0] target must list 1 numbers, all finite"),
    ({"references": {"timed": [[0, [True]]]}},
     "references.timed[0] target must list 1 numbers, all finite"),
    ({"references": {"waypoints": {"points": [[1.0, 1.0]], "switch_radius": 0.3}}},
     "references.waypoints.points[0] must list 1 numbers, all finite"),
    ({"references": {"waypoints": {"points": [], "switch_radius": 0.3}}},
     "references.waypoints.points must be a non-empty list"),
    ({"references": {"waypoints": {"points": [[1.0]], "switch_radius": True}}},
     "references.waypoints.switch_radius must be a finite positive number, got True"),
    ({"references": {"waypoints": {"points": [[1.0]], "switch_radius": "0.3"}}},
     "references.waypoints.switch_radius must be a finite positive number, got '0.3'"),
    ({"references": {"waypoints": {"points": [[1.0]], "switch_radius": 0}}},
     "references.waypoints.switch_radius must be a finite positive number, got 0"),
], ids=["start-fraction", "start-bool", "start-negative", "entry-not-a-pair", "timed-empty",
        "target-too-long", "target-scalar", "target-nan", "target-bool", "waypoint-too-long",
        "waypoints-empty", "radius-bool", "radius-string", "radius-zero"])
def test_malformed_references_exit_2_before_fitting(tmp_path, capsys, monkeypatch, overrides,
                                                    named):
    # A timed start of 2.5 used to run as step 2, and a target of the wrong
    # length to fail only after fitting and tightening.
    for name in ("generate_training_data", "fit_edmd"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("validated too late"))
    scenario = base_scenario(tmp_path, **overrides)
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "runs")]) == 2
    assert named in capsys.readouterr().err


# --- simulate ----------------------------------------------------------------------

def test_simulate_writes_log_and_metrics(tmp_path):
    scenario = base_scenario(tmp_path)
    out_dir = tmp_path / "runs"
    code = main(["simulate", str(scenario), "--out", str(out_dir), "--deterministic"])
    assert code == 0
    log_path = out_dir / "log_seed0.csv"
    metrics_path = out_dir / "metrics_seed0.json"
    assert log_path.exists() and metrics_path.exists()
    metrics = json.loads(metrics_path.read_text())
    assert metrics["final_error"] <= 1e-4
    assert metrics["halted_at"] is None
    assert "timestamp" not in metrics
    lines = log_path.read_text().splitlines()
    assert len(lines) == 41
    assert lines[0].startswith("k,x_0,x_1,u_0,")


def test_simulate_deterministic_flag_idempotent(tmp_path):
    scenario = base_scenario(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", str(scenario), "--out", str(out1), "--deterministic"]) == 0
    assert main(["simulate", str(scenario), "--out", str(out2), "--deterministic"]) == 0
    assert (out1 / "log_seed0.csv").read_bytes() == (out2 / "log_seed0.csv").read_bytes()
    assert (out1 / "metrics_seed0.json").read_bytes() == (out2 / "metrics_seed0.json").read_bytes()


def test_simulate_seed_fanout(tmp_path):
    scenario = base_scenario(
        tmp_path,
        T=15,
        injected={
            "W": {"center": [0.0, 0.0, 0.0], "half_extents": [0.05, 0.05, 0.01]},
            "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]},
        },
        disturbance={
            "declared": {
                "W": {"center": [0.0, 0.0, 0.0], "half_extents": [0.2, 0.2, 0.1]},
                "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]},
            }
        },
    )
    out_dir = tmp_path / "fan"
    code = main(["simulate", str(scenario), "--out", str(out_dir), "--seeds", "0..2",
                 "--deterministic"])
    assert code == 0
    for seed in (0, 1, 2):
        assert (out_dir / f"log_seed{seed}.csv").exists()
        assert (out_dir / f"metrics_seed{seed}.json").exists()
    a = (out_dir / "log_seed0.csv").read_text()
    b = (out_dir / "log_seed1.csv").read_text()
    assert a != b  # different seeds, different noise


@pytest.mark.parametrize("flags, seed, seeds", [
    ([], None, None), (["--seed", "3"], 3, None), (["--seeds", "4"], None, [4]),
    (["--seeds", "0..2"], None, [0, 1, 2]),
])
def test_simulate_seed_flags_reach_cmd_simulate(monkeypatch, flags, seed, seeds):
    calls = []
    monkeypatch.setattr(cli_module, "cmd_simulate", lambda path, **kw: calls.append(kw) or 0)
    assert main(["simulate", "scenario.json", *flags]) == 0
    assert [(kw["seed"], kw["seeds"]) for kw in calls] == [(seed, seeds)]


@pytest.mark.parametrize("flags, named", [
    (["--seed", "3", "--seeds", "0..4"], "argument --seeds: not allowed with argument --seed"),
    (["--seed", "-1"], "argument --seed: '-1' is not an integer >= 0"),
    (["--seed", "2.0"], "argument --seed: '2.0' is not an integer >= 0"),
    (["--seeds", "x..2"], "argument --seeds: 'x..2' is not a..b or one seed, each an integer >= 0"),
    (["--seeds", "0..-2"], "argument --seeds: '0..-2' is not a..b or one seed"),
    (["--seeds", "3..1"], "argument --seeds: range '3..1' is empty"),
], ids=["both", "seed-negative", "seed-float", "seeds-not-a-number", "seeds-negative",
        "seeds-empty"])
def test_simulate_rejects_malformed_seed_flags_exit_2(capsys, monkeypatch, flags, named):
    # Rejected with the flag named before the stack is built: --seed 3 --seeds 0..4
    # used to drop --seed, and --seed -1 failed in numpy after fitting and tightening.
    monkeypatch.setattr(cli_module, "build_stack", lambda *a, **k: pytest.fail("validated too late"))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "scenario.json", *flags])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_cmd_simulate_with_seed_and_seeds_raises_before_the_stack_is_built(monkeypatch):
    # The CLI cannot pass both, but a library call with both used to run `seeds` alone.
    monkeypatch.setattr(cli_module, "build_stack", lambda *a, **k: pytest.fail("validated too late"))
    with pytest.raises(ValueError, match=r"seed or seeds, not both \(seed=3, seeds=\[0\]\)"):
        cli_module.cmd_simulate(str(SCENARIOS / "a1.json"), seed=3, seeds=[0])


def test_simulate_infeasible_start_exit_5(tmp_path):
    scenario = base_scenario(tmp_path, x0=[0.0, 10.0])
    out_dir = tmp_path / "bad"
    code = main(["simulate", str(scenario), "--out", str(out_dir), "--deterministic"])
    assert code == 5
    metrics = json.loads((out_dir / "metrics_seed0.json").read_text())
    assert metrics["halted_at"] == 0


def _simulate_exit_code(tmp_path, capsys, **overrides):
    scenario = base_scenario(tmp_path, **overrides)
    code = main(["simulate", str(scenario), "--out", str(tmp_path / "r"), "--deterministic"])
    return code, capsys.readouterr().err


def test_simulate_qp_iteration_limit_exit_6(tmp_path, capsys, monkeypatch):
    # Every QP of the base scenario is solved on its stored support without
    # NNLS. A reference beyond the state bound y <= 5 puts the offline steady
    # target on that bound, so its first solve misses and NNLS runs; with an
    # iteration limit of one least-squares solve it stops at the limit.
    nnls = qp_module._nnls
    monkeypatch.setattr(qp_module, "_nnls",
                        lambda ET, norm2, maxiter, *start: nnls(ET, norm2, 1, *start))
    code, err = _simulate_exit_code(tmp_path, capsys, references={"timed": [[0, [10.0]]]})
    assert code == 6 and "NNLS of the least-distance program reached its iteration limit (1)" in err


def test_simulate_reference_beyond_the_state_bound_exit_0(tmp_path, capsys):
    # The offset cost J_eq~ is about 2.5e4 here, so V2 = J_N - J_eq~ rounds
    # to a few -1e-7; its floor scales with J_eq~ and the run completes.
    code, err = _simulate_exit_code(tmp_path, capsys, references={"timed": [[0, [10.0]]]})
    assert code == 0, err
    metrics = json.loads((tmp_path / "r" / "metrics_seed0.json").read_text())
    assert metrics["halted_at"] is None


def test_simulate_singular_reduced_hessian_exit_6(tmp_path, capsys, monkeypatch):
    # Z'PZ must be positive definite. Variable 0 is c(0), which null(A_eq)
    # moves: P = e0 e0' leaves Z'PZ of rank 1, singular; the tracking P with
    # P[0, 0] = -1e6 leaves it with one negative eigenvalue, indefinite.
    build = controller_module.build_qp

    def flat(qp):
        P = np.zeros_like(qp.P)
        P[0, 0] = 1.0
        return P

    def indefinite(qp):
        P = qp.P.copy()
        P[0, 0] = -1e6
        return P

    for make_P in (flat, indefinite):
        def patched(*args):
            qp = build(*args)
            return dataclasses.replace(qp, P=make_P(qp))

        monkeypatch.setattr(controller_module, "build_qp", patched)
        code, err = _simulate_exit_code(tmp_path, capsys)
        assert code == 6 and "reduced Hessian Z'PZ is singular or indefinite" in err, make_P


# A scenario file that holds no JSON object is named by its path; None stands
# for no file at all, and "dir" for a directory in the file's place.
SCENARIO_FILE_FAULTS = {
    "missing": (None, "[Errno 2] No such file or directory: '{path}'"),
    "directory": ("dir", "[Errno 21] Is a directory: '{path}'"),
    "invalid-json": ("{not json", "{path} is not valid JSON: Expecting property name"),
    "empty": ("", "{path} is not valid JSON: Expecting value: line 1 column 1"),
    "not-an-object": ('["not", "an", "object"]', "{path} must contain a JSON object"),
}


@pytest.mark.parametrize("text, named", SCENARIO_FILE_FAULTS.values(), ids=SCENARIO_FILE_FAULTS)
@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_a_scenario_file_that_holds_no_json_object_is_named_exit_2(tmp_path, capsys, command,
                                                                    text, named):
    path = tmp_path / "scenario.json"
    if text == "dir":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    assert main(scenario_argv(command, path, tmp_path)) == 2
    assert f"error: {named.format(path=path)}" in capsys.readouterr().err
    assert wrote_nothing(tmp_path)


@pytest.mark.parametrize("plant, key", [
    ({"kind": "numerical_example", "params": {"lam": -0.5, "mu": 2.0}}, "lam"),
    ({"kind": "unicycle", "params": {"dt": 0.1, "speed": 1.0}}, "speed"),
])
def test_simulate_unknown_plant_param_exit_2(tmp_path, capsys, plant, key):
    scenario = base_scenario(tmp_path, plant=plant)
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "r")]) == 2
    assert repr(key) in capsys.readouterr().err


# --- steady -----------------------------------------------------------------------

@pytest.mark.parametrize("name, y_t", [
    ("base", "1.0"), ("a1", "1.5"), ("a2", "1.5"), ("unicycle_square", "2.0,3.0"),
])
def test_steady_prints_the_plants_residual_at_the_model_target(tmp_path, capsys, name, y_t):
    # x_s = C_x z_s stepped once under u_s: the numerical example's lifting
    # (base, a1, a2) is exact, so its target is a plant equilibrium to
    # rounding; the unicycle's model target is not one.
    scenario = base_scenario(tmp_path) if name == "base" else SCENARIOS / f"{name}.json"
    assert main(["steady", str(scenario), y_t]) == 0
    target, step = capsys.readouterr().out.splitlines()
    assert target.startswith("lifted-model steady target: y_s = ")
    assert step.startswith("plant step from (x_s, u_s): x+ = ")
    label, residual = step.rsplit(" = ", 1)
    assert label.endswith("||x+ - x_s||_inf")
    if name != "unicycle_square":
        assert float(residual) <= 1e-14
    else:
        assert residual == "4.059601e-02"


def test_steady_unreachable_reports_clipped_target(tmp_path, capsys):
    scenario = base_scenario(tmp_path)
    code = main(["steady", str(scenario), "10.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "y_s = [3." in out  # steady outputs cap at u-bound 3


def test_steady_with_no_steady_pair_in_the_terminal_sets_exit_5(tmp_path, capsys):
    # Every steady state of a1 has x1 = 0, which a state box with x1 >= 0.5 leaves out.
    a1 = json.loads((SCENARIOS / "a1.json").read_text())
    a1["constraints"]["state"]["lo"] = [0.5, -5.0]
    scenario = tmp_path / "a1.json"
    scenario.write_text(json.dumps(a1))
    assert main(["steady", str(scenario), "1.0"]) == 5
    err = capsys.readouterr().err
    assert "infeasible: no steady pair exists inside the terminal tightened sets" in err


@pytest.mark.parametrize("y_t", ["1.0,2.0", "1.0,2.0,3.0"])
def test_steady_checks_the_target_length_before_fitting_exit_2(tmp_path, capsys, monkeypatch,
                                                               y_t):
    # The base scenario has one output; a longer target is refused with the
    # scenario's checks, before any data is generated or fitted.
    def refused(*args, **kwargs):
        raise AssertionError("the scenario was fitted for a target of the wrong length")

    monkeypatch.setattr(cli_module, "generate_training_data", refused)
    monkeypatch.setattr(cli_module, "fit_edmd", refused)
    assert main(["steady", str(base_scenario(tmp_path)), y_t]) == 2
    err = capsys.readouterr().err
    assert "y_t" in err and "1 comma-separated value" in err


@pytest.mark.parametrize("y_t, token", [
    ("nan", "'nan'"), ("inf", "'inf'"), ("abc", "'abc'"), ("1.0,", "''"), ("1.0,-inf", "'-inf'"),
])
def test_steady_rejects_a_non_finite_target_before_fitting_exit_2(tmp_path, capsys, monkeypatch,
                                                                  y_t, token):
    def refused(*args, **kwargs):
        raise AssertionError("the scenario was fitted for a malformed target")

    monkeypatch.setattr(cli_module, "generate_training_data", refused)
    monkeypatch.setattr(cli_module, "fit_edmd", refused)
    assert main(["steady", str(base_scenario(tmp_path)), y_t]) == 2
    err = capsys.readouterr().err
    assert "y_t" in err and token in err and "not a finite number" in err


@pytest.mark.parametrize("name, path, value, named", [
    ("a2", ("T",), 10**12, "T = 1000000000000 is too large"),
    ("a2", ("T",), 10**7, "T = 10000000 is too large"),
    ("unicycle_square", ("controller", "N"), 10**7, "controller.N = 10000000 is too large"),
    ("unicycle_square", ("controller", "N"), 10**400, f"controller.N = {10**400} is too large"),
    ("a2", ("data", "generate", "n_traj"), 10**9,
     "data.generate.n_traj = 1000000000 with traj_len = 4 is too large"),
    ("a2", ("data", "generate", "traj_len"), 10**9,
     "data.generate.n_traj = 200 with traj_len = 1000000000 is too large"),
], ids=["T-huge", "T-over", "N-huge", "N-10**400", "n_traj", "traj_len"])
@pytest.mark.parametrize("command", ["tighten", "simulate", "steady"])
def test_a_size_past_the_memory_bound_exits_2_naming_the_key_before_anything_is_built(
        tmp_path, capsys, monkeypatch, name, path, value, named, command):
    # Seed commit: N = 10**7 kept tighten running, T = 10**12 raised numpy's
    # raw allocation error, and N = 10**400 exited 2 only through numpy's
    # "maximum allowed dimension". The sizes are checked before any data is
    # made, so nothing is generated, read, fitted or tightened here.
    def refused(*args, **kwargs):
        raise AssertionError("a scenario past the size bound was built")

    for attr in ("generate_training_data", "load_trajectories", "fit_edmd", "tighten_constraints"):
        monkeypatch.setattr(cli_module, attr, refused)
    sc = json.loads((SCENARIOS / f"{name}.json").read_text())
    *parents, key = path
    node = sc
    for part in parents:
        node = node[part]
    node[key] = value
    scenario = tmp_path / "big.json"
    scenario.write_text(json.dumps(sc))
    out = {"tighten": [str(tmp_path / "schedule.json")], "simulate": ["--out", str(tmp_path)],
           "steady": ["1.0" if name == "a2" else "1.0,1.0"]}[command]
    assert main([command, str(scenario), *out]) == 2
    err = capsys.readouterr().err
    assert named in err and f"{cli_module.MAX_SCENARIO_BYTES >> 30} GiB bound" in err


def test_a_size_under_the_memory_bound_goes_on_to_build_the_stack(tmp_path, monkeypatch):
    # a2 at T = 5*10**6 needs an estimated 1.3 GB of log, under the 2 GiB
    # bound, so build_stack goes on to generate its data.
    def reached(*args, **kwargs):
        raise RuntimeError("data generation reached")

    monkeypatch.setattr(cli_module, "generate_training_data", reached)
    sc = json.loads((SCENARIOS / "a2.json").read_text())
    sc["T"] = 5 * 10**6
    scenario = tmp_path / "long.json"
    scenario.write_text(json.dumps(sc))
    with pytest.raises(RuntimeError, match="data generation reached"):
        cli_module.build_stack(scenario)
