import dataclasses
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from koopmpc import cli as cli_module
from koopmpc import controller as controller_module
from koopmpc import qp as qp_module
from koopmpc.cli import main
from koopmpc.model import (
    LiftingSpec,
    load_model,
    make_model,
    save_model,
    save_trajectories,
)
from koopmpc.sets import (
    HPolytope,
    TighteningSchedule,
    Zonotope,
    box_polytope,
    box_zonotope,
)
from koopmpc.sim import generate_training_data, numerical_example_plant
from oracles import numerical_example_matrices


def write_training_csv(path, n_traj=150, traj_len=4, seed=0):
    data = generate_training_data(
        numerical_example_plant(),
        n_traj=n_traj,
        traj_len=traj_len,
        input_box=box_zonotope([3.0]),
        state_box=box_zonotope([2.0, 2.0]),
        seed=seed,
    )
    save_trajectories(data, path)


def write_lifting_json(path, ridge=0.0):
    doc = {
        "kind": "explicit",
        "n_x": 2,
        "params": {"pre": "identity", "exponents": [[2, 0]]},
        "ridge": ridge,
        "output_matrix": [[0.0, 1.0]],
    }
    path.write_text(json.dumps(doc))


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CONTROLLER = {"N": 10, "Q": 1.0, "R": 1.0, "s": 1000.0, "lqr": {"Qk": 1.0, "Rk": 1.0}}


def base_scenario(tmp_path, **overrides):
    doc = {
        "plant": {"kind": "numerical_example", "params": {"lambda": -0.1, "mu": 2.0}},
        "lifting": {"kind": "explicit", "params": {"pre": "identity", "exponents": [[2, 0]]}},
        "ridge": 0.0,
        "output_matrix": [[0.0, 1.0]],
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


# --- fit -------------------------------------------------------------------------

def test_fit_recovers_ground_truth(tmp_path, capsys):
    csv_path = tmp_path / "train.csv"
    lift_path = tmp_path / "lifting.json"
    out_path = tmp_path / "model.json"
    write_training_csv(csv_path)
    write_lifting_json(lift_path)
    code = main(["fit", str(csv_path), str(lift_path), str(out_path)])
    assert code == 0
    model = load_model(out_path)
    A_true, _ = numerical_example_matrices(-0.1, 2.0)
    assert np.max(np.abs(model.A - A_true)) <= 1e-8
    out = capsys.readouterr().out
    assert "one-step" in out and "10-step" in out


def test_fit_reports_how_many_trajectories_it_held_out(tmp_path, capsys):
    csv_path, lift_path = tmp_path / "train.csv", tmp_path / "lifting.json"
    write_training_csv(csv_path, n_traj=25, traj_len=4)
    write_lifting_json(lift_path)
    assert main(["fit", str(csv_path), str(lift_path), str(tmp_path / "model.json")]) == 0
    assert "92 training transitions, 2 held-out trajectories" in capsys.readouterr().out


def test_fit_of_one_trajectory_reports_in_sample_errors(tmp_path, capsys):
    csv_path, lift_path = tmp_path / "one.csv", tmp_path / "lifting.json"
    write_training_csv(csv_path, n_traj=1, traj_len=8)
    write_lifting_json(lift_path, ridge=1e-8)
    assert main(["fit", str(csv_path), str(lift_path), str(tmp_path / "model.json")]) == 0
    out = capsys.readouterr().out
    assert ("8 training transitions, no trajectory held out: the errors below are in-sample"
            in out)
    assert "held-out" not in out
    assert "one-step mean prediction error" in out and "10-step mean prediction error" in out


@pytest.mark.parametrize("rows, line", [
    ("0,0,0.0,0.0,1.0\n0,5,1.0,1.0,1.0\n1,0,2.0,2.0,\n0,1,3.0,3.0,\n", 3),
    ("0,0,0.0,0.0,1.0\n1,0,5.0,5.0,1.0\n0,1,1.0,1.0,\n1,1,6.0,6.0,\n", 4),
], ids=["t-skips", "interleaved"])
def test_fit_csv_out_of_order_exit_2(tmp_path, capsys, rows, line):
    bad = tmp_path / "bad.csv"
    bad.write_text("traj_id,t,x_0,x_1,u_0\n" + rows)
    lift_path = tmp_path / "lifting.json"
    write_lifting_json(lift_path)
    assert main(["fit", str(bad), str(lift_path), str(tmp_path / "m.json")]) == 2
    assert f"{bad}:{line}: " in capsys.readouterr().err


def test_fit_missing_file_exit_2(tmp_path, capsys):
    lift_path = tmp_path / "lifting.json"
    write_lifting_json(lift_path)
    code = main(["fit", str(tmp_path / "nope.csv"), str(lift_path), str(tmp_path / "m.json")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_fit_malformed_csv_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,training\nfile,1,2\n")
    lift_path = tmp_path / "lifting.json"
    write_lifting_json(lift_path)
    assert main(["fit", str(bad), str(lift_path), str(tmp_path / "m.json")]) == 2


def test_fit_underdetermined_exit_3(tmp_path, capsys):
    csv_path = tmp_path / "tiny.csv"
    write_training_csv(csv_path, n_traj=2, traj_len=1)
    lift_path = tmp_path / "lifting.json"
    write_lifting_json(lift_path, ridge=0.0)
    assert main(["fit", str(csv_path), str(lift_path), str(tmp_path / "m.json")]) == 3


@pytest.mark.parametrize("key, where, named", [
    ("rigde", None, "unknown lifting key 'rigde'"),
    ("exponent", "params", "unknown lifting.params key 'exponent'"),
], ids=["top-level", "params"])
def test_fit_rejects_an_unknown_lifting_key_exit_2(tmp_path, capsys, key, where, named):
    csv_path = tmp_path / "train.csv"
    lift_path = tmp_path / "lifting.json"
    write_training_csv(csv_path)
    write_lifting_json(lift_path)
    doc = json.loads(lift_path.read_text())
    (doc if where is None else doc[where])[key] = 0.0
    lift_path.write_text(json.dumps(doc))
    out_path = tmp_path / "model.json"
    assert main(["fit", str(csv_path), str(lift_path), str(out_path)]) == 2
    assert named in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("n_x", [2.5, "2", True, 0, None])
def test_fit_rejects_a_non_integer_n_x_exit_2(tmp_path, capsys, n_x):
    # "n_x": 2.5 used to fit as 2 and exit 0; None drops the key.
    csv_path = tmp_path / "train.csv"
    lift_path = tmp_path / "lifting.json"
    write_training_csv(csv_path)
    write_lifting_json(lift_path)
    doc = json.loads(lift_path.read_text())
    doc["n_x"] = n_x
    if n_x is None:
        del doc["n_x"]
    lift_path.write_text(json.dumps(doc))
    out_path = tmp_path / "model.json"
    assert main(["fit", str(csv_path), str(lift_path), str(out_path)]) == 2
    err = capsys.readouterr().err
    assert ("missing required field 'n_x'" if n_x is None else "lifting n_x must be") in err
    assert not out_path.exists()


def test_fit_rejects_an_exponent_too_large_for_a_float_exit_2(tmp_path, capsys):
    # A lifting file's integer too large for a float is named, not cast.
    csv_path, lift_path, out_path = tmp_path / "train.csv", tmp_path / "l.json", tmp_path / "m.json"
    write_training_csv(csv_path)
    lift_path.write_text(json.dumps({"kind": "explicit", "n_x": 2, "ridge": 0.0,
                                     "params": {"exponents": [[10**400, 0]]}}))
    assert main(["fit", str(csv_path), str(lift_path), str(out_path)]) == 2
    assert "exponents must be integers in [0, 2**63), got 1000" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("ridge", [True, "0.5", -1.0])
def test_fit_rejects_a_malformed_ridge_exit_2(tmp_path, capsys, ridge):
    # A ridge of true used to fit with ridge 1.0, and "0.5" with 0.5.
    csv_path, lift_path, out_path = tmp_path / "train.csv", tmp_path / "l.json", tmp_path / "m.json"
    write_training_csv(csv_path)
    write_lifting_json(lift_path, ridge=ridge)
    assert main(["fit", str(csv_path), str(lift_path), str(out_path)]) == 2
    assert f"ridge must be a finite number >= 0, got {ridge!r}" in capsys.readouterr().err
    assert not out_path.exists()


# --- tighten ----------------------------------------------------------------------

def test_tighten_reads_training_data_from_a_path(tmp_path):
    """A scenario whose ``data.path`` holds the trajectories that a2's
    ``data.generate`` recipe makes yields a2's schedule, byte for byte."""
    a2 = json.loads((SCENARIOS / "a2.json").read_text())
    plant = cli_module._build_plant(a2["plant"])
    save_trajectories(cli_module._training_data(a2, plant, SCENARIOS), tmp_path / "a2_data.csv")
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
    scenario = base_scenario(
        tmp_path, controller={**CONTROLLER, "lqr": {"Qk": 1.0, "Rk": 1.0, "max_iter": 1}}
    )
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 4
    assert "did not converge" in capsys.readouterr().err


def test_tighten_lqr_not_stabilizing_exit_4(tmp_path, capsys):
    # |lambda| > 1 makes the x1 and x1^2 modes unstable, and no input reaches them.
    scenario = base_scenario(
        tmp_path, plant={"kind": "numerical_example", "params": {"lambda": 1.5, "mu": 2.0}}
    )
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 4
    assert "spectral radius" in capsys.readouterr().err


@pytest.mark.parametrize("lqr, named", [
    ({"tol": -1}, "controller.lqr.tol"),
    ({"tol": "nan"}, "controller.lqr.tol"),
    ({"tol": 0.0}, "controller.lqr.tol"),
    ({"tol": float("inf")}, "controller.lqr.tol"),
    ({"max_iter": 2.7}, "controller.lqr.max_iter"),
    ({"max_iter": 0}, "controller.lqr.max_iter"),
    ({"max_iter": "many"}, "controller.lqr.max_iter"),
    ({"max_iter": True}, "controller.lqr.max_iter"),
])
def test_tighten_rejects_malformed_lqr_settings_exit_2(tmp_path, capsys, monkeypatch, lqr, named):
    def no_fit(*args, **kwargs):
        raise AssertionError("the scenario was fitted before its lqr block was checked")

    monkeypatch.setattr(cli_module, "fit_edmd", no_fit)
    scenario = base_scenario(
        tmp_path, controller={**CONTROLLER, "lqr": {"Qk": 1.0, "Rk": 1.0, **lqr}}
    )
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 2
    assert named in capsys.readouterr().err


# --- scenario validation -------------------------------------------------------------

@pytest.mark.parametrize("overrides, named", [
    ({"contoller_typo": {}}, "scenario key 'contoller_typo'"),
    ({"controller": {**CONTROLLER, "S": 1000.0}}, "controller key 'S'"),
    ({"controller": {**CONTROLLER, "lqr": {"Qk": 1.0, "Rk": 1.0, "Q": 1.0}}},
     "controller.lqr key 'Q'"),
])
@pytest.mark.parametrize("command", ["tighten", "simulate", "steady"])
def test_unknown_scenario_key_exit_2(tmp_path, capsys, overrides, named, command):
    scenario = str(base_scenario(tmp_path, **overrides))
    args = {
        "tighten": [scenario, str(tmp_path / "schedule.json")],
        "simulate": [scenario, "--out", str(tmp_path / "runs")],
        "steady": [scenario, "1.0"],
    }[command]
    assert main([command, *args]) == 2
    assert f"unknown {named}" in capsys.readouterr().err


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
    """The base scenario with ``key`` added to the (possibly new) dotted ``block``."""
    scenario = base_scenario(tmp_path)
    doc = json.loads(scenario.read_text())
    node = doc
    for part in block.split("."):
        node = node.setdefault(part, {})
    node[key] = 1.0
    scenario.write_text(json.dumps(doc))
    return scenario


@pytest.mark.parametrize("block, key", [
    ("plant", "parms"),
    ("data", "pth"),
    ("data.generate", "n_trajs"),
    ("disturbance", "inflation"),
    ("disturbance.declared", "w"),
    ("injected", "scale"),
    ("constraints", "output"),
    ("references", "waypoint"),
    ("steady_grid", "xpoints"),
    ("lifting", "parms"),
    ("lifting.params", "max_degree"),  # a key of the removed polynomial kind
    ("disturbance.declared.W", "radius"),
    ("constraints.state", "mid"),
])
def test_unknown_key_in_a_scenario_block_exit_2(tmp_path, capsys, block, key):
    scenario = scenario_with_key(tmp_path, block, key)
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 2
    assert f"unknown {block} key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, named", [
    ({"injected": {"W": {"center": [0.0, 0.0, 0.0], "half_extents": [0.1, 0.1, 0.1],
                         "generators": [[0.1], [0.1], [0.1]]},
                   "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]}}},
     "injected.W must give exactly one of 'half_extents' or 'generators'"),
    ({"constraints": {"state": {"lo": [-5.0, -5.0], "hi": [5.0, 5.0, 5.0]},
                      "input": {"lo": [-3.0], "hi": [3.0]}}},
     "constraints.state.hi must list 2 numbers"),
    ({"lifting": {"kind": "explicit", "params": {"pre": "identity"}}},
     "lifting.params of kind 'explicit' needs key 'exponents'"),
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
    ({"lifting": {"kind": ["explicit"], "params": {}}}, "unknown lifting kind ['explicit']"),
    ({"controller": 5}, "controller must be an object"),
    ({"injected": {"W": {"half_extents": [0.1, 0.1, 0.1]},
                   "V": {"center": [0.0, 0.0], "half_extents": [0.0, 0.0]}}},
     "injected.W needs 'center' and 'half_extents' or 'generators'"),
    ({"lifting": {"kind": "explicit", "params": {"exponents": [[2.5, 0]]}}},
     "exponents must be integers in [0, 2**63), got 2.5"),
    (["not", "an", "object"], "must contain a JSON object"),
], ids=["injected.W-two-generator-forms", "constraints.state.hi-length",
        "lifting.params-missing-exponents", "injected.W-half-extents-length",
        "disturbance.declared.W-dim", "disturbance.declared.V-dim", "injected.W-dim",
        "injected-on-unicycle", "x0-length", "x0-nan", "constraints.state-infinite",
        "data-neither", "disturbance-neither", "disturbance-not-an-object", "references-neither", "plant.kind-unknown",
        "plant.kind-list", "lifting.kind-list",
        "controller-not-an-object", "injected.W-no-center", "lifting.exponents-fraction",
        "scenario-not-an-object"])
def test_malformed_scenario_sub_document_exit_2(tmp_path, capsys, overrides, named):
    if isinstance(overrides, dict):
        scenario = base_scenario(tmp_path, **overrides)
    else:  # the whole document is not an object
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(overrides))
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 2
    assert named in capsys.readouterr().err


# Forms that no shipped scenario used and that were removed: each is refused by
# name, before any training data is read, generated or fitted.
REMOVED_FORMS = {
    "scenario-polynomial": ("tighten", {"lifting": {"kind": "polynomial",
                                                    "params": {"max_degree": 2}}},
                            "unknown lifting kind 'polynomial'"),
    "scenario-rbf": ("tighten", {"lifting": {"kind": "rbf", "params": {"centers": [[0.0, 0.0]],
                                                                       "width": 1.0}}},
                     "unknown lifting kind 'rbf'"),
    "scenario-rbf-params-list": ("tighten", {"lifting": {"kind": "rbf", "params": [1.0]}},
                                 "unknown lifting kind 'rbf'"),
    "scenario-estimate": ("tighten", {"disturbance": {"estimate": {"inflation": 1.5}}},
                          "unknown disturbance key 'estimate'"),
    "scenario-estimate-beside-declared": (
        "tighten", {"disturbance": {"declared": {"W": {"center": [0.0] * 3,
                                                       "half_extents": [0.0] * 3}},
                                    "estimate": {}}},
        "unknown disturbance key 'estimate'"),
    "fit-rbf": ("fit", {"kind": "rbf", "n_x": 2, "params": {"centers": [[0.0, 0.0]], "width": 1.0}},
                "unknown lifting kind 'rbf'"),
    "fit-polynomial": ("fit", {"kind": "polynomial", "n_x": 2, "params": {"max_degree": 2}},
                       "unknown lifting kind 'polynomial'"),
    "model-polynomial": ("load_model", {"kind": "polynomial", "params": {"max_degree": 2}},
                         "unknown lifting kind 'polynomial'"),
    "model-rbf": ("load_model", {"kind": "rbf", "params": {"centers": [[0.0, 0.0]], "width": 1.0}},
                  "unknown lifting kind 'rbf'"),
}


@pytest.mark.parametrize("command, doc, named", REMOVED_FORMS.values(), ids=REMOVED_FORMS)
def test_a_removed_form_is_refused_by_name_exit_2(tmp_path, capsys, monkeypatch, command, doc,
                                                  named):
    for name in ("generate_training_data", "load_trajectories", "fit_edmd"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("validated too late"))
    out = tmp_path / "out.json"
    if command == "load_model":
        lifting = LiftingSpec(kind="explicit", n_x=2, exponents=[[2, 0]])
        save_model(make_model(np.eye(3), np.zeros((3, 1)), lifting), out)
        out.write_text(json.dumps(json.loads(out.read_text()) | {"lifting": doc}))
        with pytest.raises(ValueError, match=re.escape(named)):
            load_model(out)
        return
    if command == "fit":
        lifting_path = tmp_path / "lifting.json"
        lifting_path.write_text(json.dumps(doc))
        args = [str(tmp_path / "train.csv"), str(lifting_path), str(out)]
    else:
        args = [str(base_scenario(tmp_path, **doc)), str(out)]
    assert main([command, *args]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


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
    assert "error: lifting of kind 'explicit' maps" in err
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
    ("steady_grid.fp_tol", "true", "steady_grid.fp_tol must be a finite positive number"),
    ("steady_grid.fp_tol", '"1e-9"', "steady_grid.fp_tol must be a finite positive number"),
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
    ("steady_grid", '{"fp_tol": @big@}',
     "steady_grid.fp_tol must be a finite positive number, got 1000"),
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
], ids=["s-string", "s-bool", "s-overflow", "ridge-string", "ridge-bool", "ridge-negative",
        "fp_tol-bool", "fp_tol-string", "Q-bool", "R-bool", "Qk-bool", "Rk-bool", "dt-string",
        "dt-bool", "dt-zero", "lambda-string", "lambda-bool", "lambda-nan-string", "mu-overflow",
        "lambda-big-int", "x0-big-int", "s-big-int", "Q-big-int", "Q-entry-big-int", "Qk-big-int",
        "ridge-big-int", "timed-target-big-int", "fp_tol-big-int", "constraints.state.hi-big-int",
        "half_extents-big-int", "switch_radius-big-int", "exponents-big-int", "Q-entry-object",
        "input.lo-object", "Q-entry-string", "W.half_extents-string", "constraints.state.hi-string",
        "exponents-huge-int", "Q-ragged"])
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
    scenario = scenario_with_value(tmp_path, dotted, "@value@", steady_grid={})
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
    ({"output_matrix": None}, "references.timed[0] target must list 2 numbers, all finite"),
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
        "target-too-long", "target-scalar", "target-nan", "target-bool",
        "target-per-state-without-output-matrix", "waypoint-too-long", "waypoints-empty",
        "radius-bool", "radius-string", "radius-zero"])
def test_malformed_references_exit_2_before_fitting(tmp_path, capsys, monkeypatch, overrides,
                                                    named):
    # A timed start of 2.5 used to run as step 2, and a target of the wrong
    # length to fail only after fitting and tightening.
    for name in ("generate_training_data", "fit_edmd"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("validated too late"))
    scenario = base_scenario(tmp_path, **overrides)
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "runs")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("grid, named", [
    ({"x_points": [11]}, "steady_grid.x_points"),  # one count for a two-state plant
    ({"u_points": [121, 5]}, "steady_grid.u_points"),
    ({"x_points": [11, 0]}, "steady_grid.x_points"),
    ({"x_points": [11, 10.5]}, "steady_grid.x_points"),
])
def test_steady_rejects_a_malformed_grid_exit_2(tmp_path, capsys, grid, named):
    scenario = base_scenario(tmp_path, steady_grid=grid)
    assert main(["steady", str(scenario), "1.0"]) == 2
    assert named in capsys.readouterr().err


MALFORMED_OUTPUT_MATRICES = pytest.mark.parametrize("value, named", [
    ([[True, 1.0]], "output_matrix[0] must list 2 numbers, all finite, got [True, 1.0]"),
    ("abc", "output_matrix must be a non-empty list of rows, got 'abc'"),
    ([], "output_matrix must be a non-empty list of rows, got []"),
    ([0.0, 1.0], "output_matrix[0] must list 2 numbers, all finite, got 0.0"),
    ([[0.0, 1.0, 0.0]], "output_matrix[0] must list 2 numbers, all finite, got [0.0, 1.0, 0.0]"),
    ([[0.0, 1.0], [1.0]], "output_matrix[1] must list 2 numbers, all finite, got [1.0]"),
    ([[0.0, "1"]], "output_matrix[0] must list 2 numbers, all finite, got [0.0, '1']"),
    ([[0.0, float("nan")]], "output_matrix[0] must list 2 numbers, all finite, got [0.0, nan]"),
], ids=["bool", "string", "empty", "flat", "row-too-long", "ragged", "string-entry", "nan"])


@MALFORMED_OUTPUT_MATRICES
def test_scenario_output_matrix_is_checked_before_any_data_exit_2(tmp_path, capsys, monkeypatch,
                                                                  value, named):
    # [[true, 1.0]] used to run as [[1.0, 1.0]], and "abc" to exit 2 naming no key.
    for name in ("generate_training_data", "fit_edmd"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("validated too late"))
    scenario = base_scenario(tmp_path, output_matrix=value)
    assert main(["tighten", str(scenario), str(tmp_path / "schedule.json")]) == 2
    assert named in capsys.readouterr().err


@MALFORMED_OUTPUT_MATRICES
def test_fit_output_matrix_is_checked_before_the_data_is_read_exit_2(tmp_path, capsys,
                                                                     monkeypatch, value, named):
    csv_path, lift_path, out_path = tmp_path / "train.csv", tmp_path / "l.json", tmp_path / "m.json"
    write_training_csv(csv_path)
    write_lifting_json(lift_path)
    doc = json.loads(lift_path.read_text())
    doc["output_matrix"] = value
    lift_path.write_text(json.dumps(doc))
    for name in ("load_trajectories", "fit_edmd"):
        monkeypatch.setattr(cli_module, name, lambda *a, **k: pytest.fail("validated too late"))
    assert main(["fit", str(csv_path), str(lift_path), str(out_path)]) == 2
    assert named in capsys.readouterr().err
    assert not out_path.exists()


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
    # nnls. A reference beyond the state bound y <= 5 puts the offline steady
    # target on that bound, so its first solve misses and nnls runs.
    def capped(E, e, maxiter):
        raise RuntimeError("Maximum number of iterations reached.")  # as scipy's nnls does

    monkeypatch.setattr(qp_module, "nnls", capped)
    code, err = _simulate_exit_code(tmp_path, capsys, references={"timed": [[0, [10.0]]]})
    assert code == 6 and "Maximum number of iterations reached" in err


def test_simulate_reference_beyond_the_state_bound_exit_0(tmp_path, capsys):
    # The offset cost J_eq~ is about 2.5e4 here, so V2 = J_N - J_eq~ rounds
    # to a few -1e-7; its floor scales with J_eq~ and the run completes.
    code, err = _simulate_exit_code(tmp_path, capsys, references={"timed": [[0, [10.0]]]})
    assert code == 0, err
    metrics = json.loads((tmp_path / "r" / "metrics_seed0.json").read_text())
    assert metrics["halted_at"] is None


def test_simulate_singular_reduced_hessian_exit_6(tmp_path, capsys, monkeypatch):
    # Z'PZ must be positive definite. Variable 0 is u(0), which null(A_eq)
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


def test_simulate_bad_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad)]) == 2
    assert "broken.json" in capsys.readouterr().err


def test_simulate_missing_scenario_exit_2(tmp_path, capsys):
    missing = tmp_path / "ghost.json"
    assert main(["simulate", str(missing)]) == 2
    assert "ghost.json" in capsys.readouterr().err


@pytest.mark.parametrize("plant, key", [
    ({"kind": "numerical_example", "params": {"lam": -0.5, "mu": 2.0}}, "lam"),
    ({"kind": "unicycle", "params": {"dt": 0.1, "speed": 1.0}}, "speed"),
])
def test_simulate_unknown_plant_param_exit_2(tmp_path, capsys, plant, key):
    scenario = base_scenario(tmp_path, plant=plant)
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "r")]) == 2
    assert repr(key) in capsys.readouterr().err


# --- steady -----------------------------------------------------------------------

def test_steady_prints_both_targets(tmp_path, capsys):
    scenario = base_scenario(
        tmp_path,
        steady_grid={"x_points": [11, 101], "u_points": [121], "fp_tol": 1e-9},
    )
    code = main(["steady", str(scenario), "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lifted-model steady target" in out
    assert "plant fixed-point target" in out
    gap_line = [ln for ln in out.splitlines() if "output gap" in ln][0]
    assert float(gap_line.split()[-1]) <= 1e-6


def test_steady_unreachable_reports_clipped_target(tmp_path, capsys):
    scenario = base_scenario(
        tmp_path,
        steady_grid={"x_points": [11, 101], "u_points": [121], "fp_tol": 1e-9},
    )
    code = main(["steady", str(scenario), "10.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "y_s = [3." in out  # steady outputs cap at u-bound 3


def test_steady_reports_a_grid_with_no_fixed_point(tmp_path, capsys):
    # Every fixed point of the plant has x1 = 0, which two x1 points on
    # [-5, 5] miss: the lifted target is still printed, and the run exits 0.
    scenario = base_scenario(tmp_path, steady_grid={"x_points": [2, 101], "u_points": [121]})
    assert main(["steady", str(scenario), "1.0"]) == 0
    out = capsys.readouterr().out
    assert "lifted-model steady target: y_s = [1.]" in out
    assert "grid search found no steady pair: no fixed point of the plant found" in out
    assert "plant fixed-point target" not in out


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
