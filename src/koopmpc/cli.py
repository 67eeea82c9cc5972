"""Command-line front end for fitting, tightening, simulation, and target inspection.

A *scenario* is a single JSON document that describes everything a run needs:
the plant, the lifting dictionary (explicit monomial exponents), where training
data comes from (a CSV path, resolved relative to the scenario file, or an
inline generation recipe), the ``declared`` disturbance sets used for
tightening, the disturbance actually injected into the plant (``injected``,
optional), box constraints, controller weights, the reference schedule, and
run length.  See ``scenarios/`` for complete examples.
:func:`build_stack` validates and assembles the whole scenario for every
scenario command.

Exit codes: 0 success, 2 missing/malformed input, 3 underdetermined fit,
4 the tube could not be built: no converged stabilizing LQR gain, or an empty
tightened set, 5 infeasibility (a closed loop halted, or no steady pair lies in
the terminal sets), 6 the QP solver failed (an NNLS failure, or a reduced
Hessian that is not positive definite).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from .controller import (
    GridSpec,
    Infeasible,
    KtmpcConfig,
    TrackingProblem,
    solve_steady,
    solve_steady_nonlinear,
)
from .gains import NoConvergence, NotStabilizing, dlqr
from .model import (
    DisturbanceModel,
    KoopmanModel,
    TrajectoryData,
    UnderdeterminedData,
    _is_finite,
    _is_number,
    _lifting_from_doc,
    fit_edmd,
    lift,
    load_trajectories,
    save_model,
)
from .qp import SolverFailed
from .sets import EmptyTightenedSet, TighteningSchedule, Zonotope, box_polytope, tighten_constraints
from .sim import (
    Plant,
    ReferenceSchedule,
    SimLog,
    generate_training_data,
    numerical_example_plant,
    run_closed_loop,
    save_log_csv,
    tracking_metrics,
    unicycle_plant,
)

# Grid resolutions for the fixed-point oracle when the scenario does not
# override them; chosen so the benchmark grids land exactly on the known
# steady pairs while staying fast for the 3-state unicycle.
_DEFAULT_GRIDS = {
    "numerical_example": ([11, 101], [121]),
    "unicycle": ([13, 13, 13], [5, 9]),
}


def _load_json(path) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must contain a JSON object")
    return doc


def _zonotope_from_doc(doc: dict, what: str, dim: int) -> Zonotope:
    """The ``dim``-dimensional zonotope of ``doc``; every error names ``what``."""
    _check_keys(doc, {"center", "half_extents", "generators"}, what)
    if ("half_extents" in doc) == ("generators" in doc):
        raise ValueError(f"{what} must give exactly one of 'half_extents' or 'generators'")
    if "center" not in doc:
        raise ValueError(f"{what} needs 'center' and 'half_extents' or 'generators'")
    center = _floats(doc["center"], f"{what}.center")
    if "half_extents" in doc:
        gens = np.diag(_floats(doc["half_extents"], f"{what}.half_extents"))
    else:
        gens = _floats(doc["generators"], f"{what}.generators")
    try:
        Z = Zonotope(center=center, generators=gens)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    if Z.dim != dim:
        raise ValueError(f"{what} must be {dim}-dimensional, got {Z.dim}")
    return Z


def _floats(value, what: str) -> np.ndarray:
    """``value``, a (nested) list of real numbers, as a float array; anything else
    (a bool, a string, an object, null, a ragged list) is rejected naming ``what``."""
    def numbers(v):
        return all(map(numbers, v)) if isinstance(v, list) else _is_number(v)

    if not (isinstance(value, list) and numbers(value)):
        raise ValueError(f"{what} must be a (nested) list of real numbers, got {value!r}")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} holds an integer too large for a float") from None
    except ValueError:
        raise ValueError(f"{what} must be a rectangular list, got {value!r}") from None


def _weight(value, n: int, what: str) -> np.ndarray:
    """Scalar shorthand c -> c * I_n (a finite number, not a bool); otherwise an explicit matrix."""
    if type(value) in (int, float):
        return _finite(value, what) * np.eye(n)
    if not (isinstance(value, list) and (M := _floats(value, what)).shape == (n, n)):
        raise ValueError(f"{what} must be a scalar or an {n}x{n} matrix, got {value!r}")
    return M


_PLANT_PARAMS = {"numerical_example": {"lambda", "mu"}, "unicycle": {"dt"}}
_LIFTING_PARAMS = {"pre", "exponents"}
_FIT_LIFTING_KEYS = {"kind", "params", "n_x", "ridge", "output_matrix"}
_SCENARIO_KEYS = {
    "plant", "lifting", "output_matrix", "ridge", "data", "disturbance", "injected", "constraints",
    "controller", "references", "x0", "T", "seed", "settle_window", "out_dir", "steady_grid",
}
_CONTROLLER_KEYS = {"N", "Q", "R", "s", "lqr"}
_LQR_KEYS = {"Qk", "Rk", "tol", "max_iter"}
_GENERATE_KEYS = {"n_traj", "traj_len", "input_box", "state_box", "seed"}
_GRID_KEYS = {"x_points", "u_points", "fp_tol"}


def _check_keys(doc, allowed: set, what: str) -> None:
    """Reject a non-object or an unknown key, naming the block it sits in."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {what} key {unknown[0]!r} (allowed: {', '.join(sorted(allowed))})"
        )


def _lifting(doc, n_x: int, keys=frozenset({"kind", "params"})):
    """The lifting of ``doc``; a key outside ``keys``, or a ``params`` key its
    kind does not take, is rejected by name."""
    _check_keys(doc, keys, "lifting")
    if doc.get("kind") == "explicit":  # LiftingSpec rejects any other kind
        _check_keys(doc.get("params"), _LIFTING_PARAMS, "lifting.params")
    return _lifting_from_doc(doc, n_x=n_x)


def _build_plant(doc: dict):
    """The plant of ``doc``: ``lambda`` and ``mu`` are finite numbers and ``dt``
    a finite positive one, each named ``plant.params.<key>`` when it is not."""
    _check_keys(doc, {"kind", "params"}, "plant")
    kind = doc.get("kind")
    params = doc.get("params", {})
    if not isinstance(kind, str) or kind not in _PLANT_PARAMS:
        raise ValueError(f"unknown plant kind {kind!r}")
    _check_keys(params, _PLANT_PARAMS[kind], "plant.params")
    if kind == "numerical_example":
        lam, mu = (_finite(params.get(key, default), f"plant.params.{key}")
                   for key, default in (("lambda", -0.1), ("mu", 2.0)))
        if not math.isfinite(lam * lam):  # the plant's lifted matrix holds lambda^2
            raise ValueError(f"plant.params.lambda must have a finite square, got {lam!r}")
        return numerical_example_plant(lam=lam, mu=mu)
    return unicycle_plant(dt=float(_positive(params.get("dt", 0.1), "plant.params.dt")))


def _box_from_doc(doc, n: int, what: str):
    _check_keys(doc, {"lo", "hi"}, what)
    for key in ("lo", "hi"):
        if not (isinstance(doc.get(key), list) and len(doc[key]) == n):
            raise ValueError(f"{what}.{key} must list {n} numbers, got {doc.get(key)!r}")
    lo, hi = (_floats(doc[key], f"{what}.{key}") for key in ("lo", "hi"))
    try:
        return box_polytope(lo, hi)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _count(doc, key, what: str, minimum: int = 1, default: int | None = None) -> int:
    """``doc[key]``, or ``default`` when the key is absent and a default is
    given, as an integer of at least ``minimum``. A bool, a float (2.5, or
    2.0) or a string is rejected with the key named, never truncated."""
    value = doc[key] if default is None else doc.get(key, default)
    if type(value) is not int or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _positive(value, what: str, minimum: float | None = None):
    """``value`` as a finite number, positive or, given ``minimum``, at least
    ``minimum``; a bool or a string is rejected."""
    if not (_is_finite(value) and (value > 0 if minimum is None else value >= minimum)):
        bound = "positive number" if minimum is None else f"number >= {minimum}"
        raise ValueError(f"{what} must be a finite {bound}, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    """``value`` as a finite number (a bool or a string is not one)."""
    if not _is_finite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _numbers(values, n: int, what: str) -> list:
    """``values`` as a list of ``n`` finite numbers (a bool is not one)."""
    if not (isinstance(values, list) and len(values) == n and all(map(_is_finite, values))):
        raise ValueError(f"{what} must list {n} numbers, all finite, got {values!r}")
    return values


def _output_matrix(value, n_x: int):
    """``value`` (y = value x): None, or a non-empty list of rows of ``n_x`` finite numbers."""
    if value is not None and not (isinstance(value, list) and value):
        raise ValueError(f"output_matrix must be a non-empty list of rows, got {value!r}")
    for i, row in enumerate(value or []):
        _numbers(row, n_x, f"output_matrix[{i}]")
    return value


def _references(doc, n_y: int) -> ReferenceSchedule:
    """The reference schedule, checked before any data is made: each target
    and waypoint lists ``n_y`` finite numbers here, and the
    :class:`ReferenceSchedule` classmethods check the start steps and the
    switch radius, their messages prefixed with ``references.``."""
    def entries(value, what):
        if not (isinstance(value, list) and value):
            raise ValueError(f"{what} must be a non-empty list, got {value!r}")
        return enumerate(value)

    if isinstance(doc, dict) and "timed" in doc:
        _check_keys(doc, {"timed"}, "references")
        timed = []
        for i, entry in entries(doc["timed"], "references.timed"):
            what = f"references.timed[{i}]"
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ValueError(f"{what} must be [start_step, target], got {entry!r}")
            timed.append((entry[0], _numbers(entry[1], n_y, f"{what} target")))
        make, args = ReferenceSchedule.timed, (timed,)
    else:
        if not (isinstance(doc, dict) and "waypoints" in doc):
            raise ValueError("scenario 'references' must give 'timed' or 'waypoints'")
        _check_keys(doc, {"waypoints"}, "references")
        wp = doc["waypoints"]
        _check_keys(wp, {"points", "switch_radius"}, "references.waypoints")
        points = [_numbers(p, n_y, f"references.waypoints.points[{i}]")
                  for i, p in entries(wp["points"], "references.waypoints.points")]
        make, args = ReferenceSchedule.waypoints, (points, wp["switch_radius"])
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"references.{exc}") from None


def _training_data(sc: dict, plant, scenario_dir: Path) -> TrajectoryData:
    doc = sc.get("data")
    if not isinstance(doc, dict) or ("path" not in doc) == ("generate" not in doc):
        raise ValueError("scenario 'data' must give exactly one of 'path' or 'generate'")
    _check_keys(doc, {"path", "generate"}, "data")
    if "path" in doc:
        return load_trajectories(scenario_dir / doc["path"])
    gen = doc["generate"]
    _check_keys(gen, _GENERATE_KEYS, "data.generate")
    return generate_training_data(
        plant,
        n_traj=_count(gen, "n_traj", "data.generate.n_traj"),
        traj_len=_count(gen, "traj_len", "data.generate.traj_len"),
        input_box=_zonotope_from_doc(gen["input_box"], "data.generate.input_box", plant.n_u),
        state_box=_zonotope_from_doc(gen["state_box"], "data.generate.state_box", plant.n_x),
        seed=_count(gen, "seed", "data.generate.seed", minimum=0, default=0),
    )


def _grid_from_scenario(sc: dict, plant, X, U) -> GridSpec:
    """The steady-pair search grid: ``x_points``/``u_points`` give one positive
    point count per state/input dimension, spread over the checked constraint
    boxes ``X`` and ``U``, whose rows are ordered [I; -I]."""
    doc = sc.get("steady_grid", {})
    _check_keys(doc, _GRID_KEYS, "steady_grid")
    x_default, u_default = _DEFAULT_GRIDS[plant.kind]

    def axes(key, default, box, n, what):
        points = doc.get(key, default)
        if not (isinstance(points, list) and len(points) == n
                and all(type(p) is int and p >= 1 for p in points)):
            raise ValueError(f"steady_grid.{key} must list one positive integer per {what} "
                             f"dimension ({n}), got {points!r}")
        lo, hi = -box.offsets[n:], box.offsets[:n]
        return tuple(np.linspace(*bounds) for bounds in zip(lo, hi, points, strict=True))

    return GridSpec(
        x_values=axes("x_points", x_default, X, plant.n_x, "state"),
        u_values=axes("u_points", u_default, U, plant.n_u, "input"),
        fp_tol=float(_positive(doc.get("fp_tol", 1e-6), "steady_grid.fp_tol")),
    )


# --- the scenario stack ----------------------------------------------------------------

@dataclass(frozen=True)
class Stack:
    """A scenario assembled: plant, fitted model, tube controller, steady-pair
    search grid and run settings. Its ``problem`` is built on first use, once."""

    sc: dict
    plant: Plant
    model: KoopmanModel
    config: KtmpcConfig
    schedule: TighteningSchedule
    refs: ReferenceSchedule
    grid: GridSpec
    injected: DisturbanceModel | None
    x0: np.ndarray | None
    T: int
    seed: int
    settle_window: int

    @cached_property
    def problem(self) -> TrackingProblem:
        return TrackingProblem(self.model, self.config, self.schedule)

    def run(self, seed: int) -> SimLog:
        """Closed loop under ``seed``; a run that halts infeasible returns its partial log."""
        return run_closed_loop(self.plant, self.problem, self.refs, disturbances=self.injected,
                               T=self.T, seed=int(seed), x0=self.x0)


def build_stack(scenario_path, y_t=None) -> Stack:
    """Validate a whole scenario, then fit, gain and tighten it into a :class:`Stack`.

    Training data ``path``s resolve relative to the scenario file. ``y_t``, the
    target given to ``koopmpc steady``, is checked against the output
    dimension with the scenario, before any data is generated.
    """
    sc = _load_json(scenario_path)
    _check_keys(sc, _SCENARIO_KEYS, "scenario")
    for doc, key, what in ((sc, "out_dir", "out_dir"), (sc.get("data"), "path", "data.path")):
        if isinstance(doc, dict) and key in doc and not isinstance(doc[key], str):
            raise ValueError(f"{what} must be a string (a path), got {doc[key]!r}")
    cfg_doc = sc["controller"]
    _check_keys(cfg_doc, _CONTROLLER_KEYS, "controller")
    lqr_doc = cfg_doc.get("lqr", {})
    _check_keys(lqr_doc, _LQR_KEYS, "controller.lqr")
    # dlqr keeps the defaults of the keys a scenario leaves out.
    lqr_opts = {}
    if "tol" in lqr_doc:
        lqr_opts["tol"] = _positive(lqr_doc["tol"], "controller.lqr.tol")
    if "max_iter" in lqr_doc:
        lqr_opts["max_iter"] = _count(lqr_doc, "max_iter", "controller.lqr.max_iter")
    plant = _build_plant(sc["plant"])
    lifting = _lifting(sc["lifting"], plant.n_x)

    def noise(doc, what, n_w) -> DisturbanceModel:
        """W is n_w-dimensional and the measurement noise V acts on the state."""
        _check_keys(doc, {"W", "V"}, what)
        return DisturbanceModel(
            W=_zonotope_from_doc(doc["W"], f"{what}.W", n_w),
            V=_zonotope_from_doc(doc["V"], f"{what}.V", plant.n_x),
        )

    # The plant's injected disturbance lives in its exact lifted coordinates,
    # so a plant without an exact lifting takes none (see sim.step_plant).
    injected = None
    if sc.get("injected") is not None:
        if plant.A_lift is None:
            raise ValueError(f"injected: the {plant.kind} plant takes no injected disturbance")
        injected = noise(sc["injected"], "injected", plant.A_lift.shape[0])
    dist_doc = sc.get("disturbance")
    _check_keys(dist_doc, {"declared"}, "disturbance")
    if "declared" not in dist_doc:
        raise ValueError("scenario 'disturbance' must give 'declared'")
    disturbance = noise(dist_doc["declared"], "disturbance.declared", lifting.n_z)
    om = _output_matrix(sc.get("output_matrix"), plant.n_x)
    n_y = plant.n_x if om is None else len(om)
    refs = _references(sc.get("references"), n_y)
    if y_t is not None and len(y_t) != n_y:
        raise ValueError(f"y_t: the target needs {n_y} comma-separated value(s), one per "
                         f"output of the scenario, got {len(y_t)}")
    con = sc["constraints"]
    _check_keys(con, {"state", "input"}, "constraints")
    X = _box_from_doc(con["state"], plant.n_x, "constraints.state")
    U = _box_from_doc(con["input"], plant.n_u, "constraints.input")
    grid = _grid_from_scenario(sc, plant, X, U)
    x0 = None if sc.get("x0") is None else np.array(_numbers(sc["x0"], plant.n_x, "x0"), float)
    T, N = _count(sc, "T", "T"), _count(cfg_doc, "N", "controller.N")
    seed = _count(sc, "seed", "seed", minimum=0, default=0)
    settle_window = _count(sc, "settle_window", "settle_window", default=20)
    ridge = float(_positive(sc.get("ridge", 1e-8), "ridge", minimum=0))
    s = float(_positive(cfg_doc["s"], "controller.s"))
    n_z, n_u = lifting.n_z, plant.n_u
    Q, R = _weight(cfg_doc["Q"], n_z, "controller.Q"), _weight(cfg_doc["R"], n_u, "controller.R")
    Qk = _weight(lqr_doc.get("Qk", 1.0), n_z, "controller.lqr.Qk")
    Rk = _weight(lqr_doc.get("Rk", 1.0), n_u, "controller.lqr.Rk")

    data = _training_data(sc, plant, Path(scenario_path).parent)
    model = fit_edmd(data, lifting, ridge=ridge, output_matrix=om)
    gain = dlqr(model.A, model.B, Qk, Rk, **lqr_opts)
    schedule = tighten_constraints(X, U, disturbance, model.A, model.B, gain.K, model.C_x, N)
    config = KtmpcConfig(N=N, Q=Q, R=R, s=s, K=gain.K)
    return Stack(
        sc=sc, plant=plant, model=model, config=config, schedule=schedule, refs=refs, grid=grid,
        injected=injected, x0=x0, T=T, seed=seed, settle_window=settle_window,
    )


# --- subcommands -----------------------------------------------------------------------

def cmd_fit(data_csv, lifting_json, out_model_json) -> int:
    """Fit a lifted linear model from a trajectory CSV and report held-out errors.

    The last ~10% of trajectories are held out; the multi-step error rolls the
    fitted model forward up to 10 steps (capped at trajectory length) under the
    recorded inputs. A single trajectory is not held out: the model is fitted
    to it and its errors are reported as in-sample.
    """
    lift_doc = _load_json(lifting_json)
    if "n_x" not in lift_doc:
        raise ValueError(f"{lifting_json} is missing required field 'n_x'")
    lifting = _lifting(lift_doc, _count(lift_doc, "n_x", "lifting n_x"), _FIT_LIFTING_KEYS)
    ridge = float(_positive(lift_doc.get("ridge", 1e-8), "ridge", minimum=0))
    om = _output_matrix(lift_doc.get("output_matrix"), lifting.n_x)

    trajs = load_trajectories(data_csv).trajectories
    n_hold = max(1, len(trajs) // 10) if len(trajs) > 1 else 0
    train_trajs = trajs[: len(trajs) - n_hold]
    scored = trajs[len(trajs) - n_hold :] or train_trajs
    model = fit_edmd(TrajectoryData.from_pairs(train_trajs), lifting, ridge=ridge, output_matrix=om)

    one_step, multi_step = [], []
    for states, inputs in scored:
        z = lift(model, states[0])
        for t, u in enumerate(inputs[: min(10, len(inputs))]):
            z_next = model.A @ lift(model, states[t]) + model.B @ u
            one_step.append(np.linalg.norm(model.C_x @ z_next - states[t + 1]))
            z = model.A @ z + model.B @ u
            multi_step.append(np.linalg.norm(model.C_x @ z - states[t + 1]))
    save_model(model, out_model_json)
    n_train = sum(len(inputs) for _, inputs in train_trajs)
    held = (f"{n_hold} held-out trajectories" if n_hold else
            "no trajectory held out: the errors below are in-sample")
    print(f"fitted lifted model: n_z={model.n_z}, {n_train} training transitions, {held}")
    print(f"one-step mean prediction error: {float(np.mean(one_step)):.6e}")
    print(f"10-step mean prediction error:  {float(np.mean(multi_step)):.6e}")
    print(f"wrote {out_model_json}")
    return 0


def cmd_tighten(scenario_json, out_json) -> int:
    """Compute the tightened constraint schedule for a scenario and save it as JSON.

    The file is one line of JSON (``python -m json.tool`` pretty-prints it):
    ``horizon`` N; ``state_sets`` and ``input_sets``, one ``{"normals",
    "offsets"}`` per step 0..N; ``error_generators``, R(N)'s generator matrix
    as a list of rows; and ``error_sets``, one ``{"center", "columns"}`` per
    R(1..N), where R(j)'s generators are ``error_generators[:, :columns]``. A
    schedule whose R(j) is not that prefix of R(N), bit for bit, is refused
    (exit 2) and nothing is written.
    """
    schedule = build_stack(scenario_json).schedule
    last = schedule.error_sets[-1].generators
    errors = []
    for j, Z in enumerate(schedule.error_sets, start=1):
        k = Z.generators.shape[1]
        if not np.array_equal(Z.generators.view(np.uint64), last[:, :k].view(np.uint64)):
            raise ValueError(f"error set R({j}) is not a prefix of R(N)'s generators")
        errors.append({"center": Z.center.tolist(), "columns": k})
    def polytopes(sets):
        return [{"normals": P.normals.tolist(), "offsets": P.offsets.tolist()} for P in sets]

    doc = {"horizon": schedule.horizon, "state_sets": polytopes(schedule.state_sets),
           "input_sets": polytopes(schedule.input_sets), "error_generators": last.tolist(),
           "error_sets": errors}
    Path(out_json).write_text(json.dumps(doc) + "\n")
    print(f"wrote tightening schedule (N={schedule.horizon}) to {out_json}")
    return 0


def _json_float(v):
    v = float(v)
    return v if math.isfinite(v) else None


def cmd_simulate(scenario_json, seed=None, seeds=None, out=None, deterministic=False) -> int:
    """Run the closed loop for one or more seeds, writing a log CSV and metrics JSON each."""
    if seed is not None and seeds is not None:
        raise ValueError(f"give seed or seeds, not both (seed={seed!r}, seeds={seeds!r})")
    stack = build_stack(scenario_json)
    seed_list = seeds if seeds is not None else [seed if seed is not None else stack.seed]
    out_dir = Path(out) if out is not None else Path(stack.sc.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    any_halted = False
    for run_seed in seed_list:
        log = stack.run(run_seed)
        any_halted |= log.halted_at is not None
        m = tracking_metrics(log, settle_window=stack.settle_window)
        metrics = {
            "seed": int(run_seed),
            "halted_at": log.halted_at,
            "final_error": _json_float(m["final_error"]),
            "mean_settled_error": _json_float(m["mean_settled_error"]),
            "max_constraint_violation": _json_float(m["max_constraint_violation"]),
            "steps_to_waypoints": [int(k) for k in m["steps_to_waypoints"]],
        }
        if not deterministic:
            metrics["timestamp"] = datetime.now(timezone.utc).isoformat()
        log_path = out_dir / f"log_seed{run_seed}.csv"
        save_log_csv(log, log_path)
        (out_dir / f"metrics_seed{run_seed}.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n"
        )
        status = f"halted at step {log.halted_at}" if log.halted_at is not None else "ok"
        print(f"seed {run_seed}: {status}, final_error={metrics['final_error']}, "
              f"log -> {log_path}")
    return 5 if any_halted else 0


def cmd_steady(scenario_json, y_t) -> int:
    """Print the lifted-model steady target next to a grid search over true plant fixed points."""
    y_target = np.atleast_1d(np.asarray(y_t, dtype=float))
    stack = build_stack(scenario_json, y_target)
    plant, model, s = stack.plant, stack.model, stack.config.s

    target = solve_steady(stack.problem, y_target)
    x_s = model.C_x @ target.z_s
    print(f"lifted-model steady target: y_s = {np.array2string(target.y_s)}, "
          f"x_s = {np.array2string(x_s)}, u_s = {np.array2string(target.u_s)}, "
          f"offset cost = {target.offset_cost:.6e}")

    try:
        oracle = solve_steady_nonlinear(plant, y_target, s, stack.grid)
    except ValueError as exc:
        print(f"grid search found no steady pair: {exc}")
        return 0
    print(f"plant fixed-point target:   y_s = {np.array2string(oracle.y_s)}, "
          f"x_s = {np.array2string(oracle.x_s)}, u_s = {np.array2string(oracle.u_s)}, "
          f"offset cost = {oracle.offset_cost:.6e}")
    print(f"output gap between the two: {float(np.max(np.abs(target.y_s - oracle.y_s))):.6e}")
    return 0


# --- argument parsing ------------------------------------------------------------------

def _seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, as a scenario's ``seed`` is."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return int(text)


def _seed_range(text: str) -> list[int]:
    """A ``--seeds`` value: 'a..b' -> [a, ..., b] inclusive; a bare integer -> [a]."""
    lo, dots, hi = text.partition("..")
    try:
        seeds = range(_seed(lo), _seed(hi if dots else lo) + 1)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a..b or one seed, each an integer >= 0") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty")
    return list(seeds)


def _parse_targets(text: str) -> list[float]:
    """The comma-separated target of ``koopmpc steady``, as finite numbers."""
    values = []
    for tok in text.split(","):
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"y_t: {tok!r} is not a finite number")
        values.append(value)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="koopmpc",
        description="Tracking MPC on lifted linear models: fit, tighten, simulate, steady.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a lifted linear model from a trajectory CSV")
    p.add_argument("data_csv")
    p.add_argument("lifting_json")
    p.add_argument("out_model_json")

    p = sub.add_parser("tighten", help="compute and save the tightened constraint schedule")
    p.add_argument("scenario_json")
    p.add_argument("out_json")

    p = sub.add_parser("simulate", help="run the closed loop described by a scenario")
    p.add_argument("scenario_json")
    seed_flags = p.add_mutually_exclusive_group()
    seed_flags.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
    seed_flags.add_argument("--seeds", type=_seed_range, default=None,
                            help="inclusive range a..b; runs one simulation per seed")
    p.add_argument("--out", type=str, default=None, help="output directory override")
    p.add_argument("--deterministic", action="store_true",
                   help="omit timestamps so outputs are byte-for-byte reproducible")

    p = sub.add_parser("steady", help="compare the steady target against a plant grid search")
    p.add_argument("scenario_json")
    p.add_argument("y_t", help="target output, comma-separated floats")

    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(args.data_csv, args.lifting_json, args.out_model_json)
        if args.command == "tighten":
            return cmd_tighten(args.scenario_json, args.out_json)
        if args.command == "simulate":
            return cmd_simulate(args.scenario_json, seed=args.seed, seeds=args.seeds,
                                out=args.out, deterministic=args.deterministic)
        if args.command == "steady":
            return cmd_steady(args.scenario_json, _parse_targets(args.y_t))
    except UnderdeterminedData as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 3
    except (NoConvergence, NotStabilizing, EmptyTightenedSet) as exc:
        print(f"the tube could not be built: {exc}", file=sys.stderr)
        return 4
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 5
    except SolverFailed as exc:
        print(f"the QP solver failed: {exc}", file=sys.stderr)
        return 6
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
