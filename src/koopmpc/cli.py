"""Command-line front end for tightening, simulation, and target inspection.

A *scenario* is a single JSON document that describes everything a run needs:
the plant, the lifting dictionary (explicit monomial exponents), where training
data comes from (a CSV path, resolved relative to the scenario file, or an
inline generation recipe), the ``declared`` disturbance sets used for
tightening, the disturbance actually injected into the plant (``injected``,
optional), box constraints, controller weights, the reference schedule, and
run length.  See ``scenarios/`` for complete examples.
:func:`build_stack` validates and assembles the whole scenario for every
scenario command.

Exit codes: 0 success, 2 missing/malformed input, 3 underdetermined fit (the
scenario's training data cannot determine the lifted model), 4 the tube could
not be built: no converged stabilizing LQR gain, or an empty tightened set,
5 infeasibility (a closed loop halted, or no steady pair lies in the terminal
sets), 6 the QP solver failed (an NNLS failure, or a reduced Hessian that is
not positive definite).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .controller import Infeasible, KtmpcConfig, TrackingProblem, solve_steady
from .gains import NoConvergence, NotStabilizing, dlqr
from .model import (
    DisturbanceModel,
    KoopmanModel,
    UnderdeterminedData,
    _is_finite,
    _is_number,
    _lifting_from_doc,
    fit_edmd,
    load_trajectories,
)
from .qp import SolverFailed
from .sets import (
    EmptyTightenedSet, TighteningSchedule, Zonotope, box_polytope, box_zonotope, tighten_constraints,
)
from .sim import (
    Plant,
    ReferenceSchedule,
    SimLog,
    generate_training_data,
    numerical_example_plant,
    run_closed_loop,
    save_log_csv,
    step_plant,
    tracking_metrics,
    unicycle_plant,
)

MAX_SCENARIO_BYTES = 2 * 2**30  # the memory build_stack lets a scenario's sizes need (README)


def _load_json(path) -> dict:
    """The JSON object in the scenario file at ``path``; anything else raises
    ValueError naming the file."""
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
    key = "half_extents" if "half_extents" in doc else "generators"
    value = _floats(doc[key], f"{what}.{key}")
    try:
        Z = box_zonotope(value, center) if key == "half_extents" else Zonotope(center, value)
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
    """Scalar shorthand c -> c * I_n (a finite number, not a bool); otherwise an
    explicit matrix of finite numbers."""
    if type(value) in (int, float):
        return _finite(value, what) * np.eye(n)
    if not (isinstance(value, list) and (M := _floats(value, what)).shape == (n, n)
            and np.isfinite(M).all()):
        raise ValueError(f"{what} must be a scalar or an {n}x{n} matrix of finite numbers, "
                         f"got {value!r}")
    return M


# Each plant kind's factory and its parameters: scenario key -> keyword.
_PLANTS = {"numerical_example": (numerical_example_plant, {"lambda": "lam", "mu": "mu"}),
           "unicycle": (unicycle_plant, {"dt": "dt"})}
_SCENARIO_KEYS = {
    "plant", "lifting", "ridge", "data", "disturbance", "injected", "constraints",
    "controller", "references", "x0", "T", "seed", "settle_window", "out_dir",
}
_CONTROLLER_KEYS = {"N", "Q", "R", "s", "lqr"}
_LQR_KEYS = {"Qk", "Rk"}
_GENERATE_KEYS = {"n_traj", "traj_len", "input_box", "state_box", "seed"}


def _check_keys(doc, allowed: set, what: str) -> None:
    """Reject a non-object or an unknown key, naming the block it sits in."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {what} key {unknown[0]!r} (allowed: {', '.join(sorted(allowed))})"
        )


def _lifting(doc, n_x: int):
    """The lifting of a scenario's ``lifting`` block; a key other than
    ``kind`` and ``params`` is rejected by name, and ``_lifting_from_doc``
    checks the kind and ``params``."""
    _check_keys(doc, {"kind", "params"}, "lifting")
    return _lifting_from_doc(doc, n_x=n_x)


def _build_plant(doc: dict):
    """The plant of ``doc``; its factory checks the parameters and keeps the
    defaults of those left out, and a refusal is named ``plant.params.<key>``."""
    _check_keys(doc, {"kind", "params"}, "plant")
    kind = doc.get("kind")
    params = doc.get("params", {})
    if not isinstance(kind, str) or kind not in _PLANTS:
        raise ValueError(f"unknown plant kind {kind!r}")
    make, keywords = _PLANTS[kind]
    _check_keys(params, set(keywords), "plant.params")
    try:
        return make(**{keywords[key]: value for key, value in params.items()})
    except ValueError as exc:
        raise ValueError(f"plant.params.{exc}") from None


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


def _training_data(sc: dict, plant, scenario_dir: Path) -> partial:
    """A call that reads or generates the checked training data; its keywords hold the sizes."""
    doc = sc.get("data")
    if not isinstance(doc, dict) or ("path" not in doc) == ("generate" not in doc):
        raise ValueError("scenario 'data' must give exactly one of 'path' or 'generate'")
    _check_keys(doc, {"path", "generate"}, "data")
    if "path" in doc:
        return partial(load_trajectories, scenario_dir / doc["path"])
    gen = doc["generate"]
    _check_keys(gen, _GENERATE_KEYS, "data.generate")
    return partial(
        generate_training_data,
        plant,
        n_traj=_count(gen, "n_traj", "data.generate.n_traj"),
        traj_len=_count(gen, "traj_len", "data.generate.traj_len"),
        input_box=_zonotope_from_doc(gen["input_box"], "data.generate.input_box", plant.n_u),
        state_box=_zonotope_from_doc(gen["state_box"], "data.generate.state_box", plant.n_x),
        seed=_count(gen, "seed", "data.generate.seed", minimum=0, default=0),
    )


# --- the scenario stack ----------------------------------------------------------------

@dataclass(frozen=True)
class Stack:
    """A scenario assembled: plant, fitted model, tube controller and run
    settings. Its ``problem`` is built on first use, once."""

    sc: dict
    plant: Plant
    model: KoopmanModel
    config: KtmpcConfig
    schedule: TighteningSchedule
    refs: ReferenceSchedule
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
    plant = _build_plant(sc["plant"])
    lifting = _lifting(sc["lifting"], plant.n_x)

    def noise(doc, what, n_w) -> DisturbanceModel:
        """W is n_w-dimensional and the measurement noise V acts on the state."""
        _check_keys(doc, {"W", "V"}, what)
        W = _zonotope_from_doc(doc["W"], f"{what}.W", n_w)
        V = _zonotope_from_doc(doc["V"], f"{what}.V", plant.n_x)
        try:
            return DisturbanceModel(W=W, V=V)
        except ValueError as exc:
            raise ValueError(f"{what}.{exc}") from None

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
    n_y = plant.C.shape[0]  # the tracked output is the plant's y = C x
    refs = _references(sc.get("references"), n_y)
    if y_t is not None and len(y_t) != n_y:
        raise ValueError(f"y_t: the target needs {n_y} comma-separated value(s), one per "
                         f"output of the scenario, got {len(y_t)}")
    con = sc["constraints"]
    _check_keys(con, {"state", "input"}, "constraints")
    X = _box_from_doc(con["state"], plant.n_x, "constraints.state")
    U = _box_from_doc(con["input"], plant.n_u, "constraints.input")
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

    make_data = _training_data(sc, plant, Path(scenario_path).parent)
    n_traj, traj_len = (make_data.keywords.get(key, 0) for key in ("n_traj", "traj_len"))
    d, rows = N * n_u + 2 * n_z + n_u, (N + 1) * 2 * (plant.n_x + n_u)
    sizes = {f"controller.N = {N}": (2 * d + 3 * rows + 3 * (N + 1) * (n_z + n_u)) * (d + n_z),
             f"T = {T}": T * (2 * (plant.n_x + n_u + n_z) + 4 * n_y + 16),
             f"data.generate.n_traj = {n_traj} with traj_len = {traj_len}": n_traj
                 * (traj_len + 1) * (plant.n_x + 2 * n_u + 3 * n_z + 1 + lifting.exponents.size)}
    if 8 * sum(sizes.values()) > MAX_SCENARIO_BYTES:
        raise ValueError(f"{max(sizes, key=sizes.get)} is too large: the scenario would need "
                         f"more than the {MAX_SCENARIO_BYTES >> 30} GiB bound on its memory")
    data = make_data()
    model = fit_edmd(data, lifting, ridge=ridge, output_matrix=plant.C)
    gain = dlqr(model.A, model.B, Qk, Rk)
    schedule = tighten_constraints(X, U, disturbance, model.A, model.B, gain.K, model.C_x, N)
    config = KtmpcConfig(N=N, Q=Q, R=R, s=s, K=gain.K)
    return Stack(
        sc=sc, plant=plant, model=model, config=config, schedule=schedule, refs=refs,
        injected=injected, x0=x0, T=T, seed=seed, settle_window=settle_window,
    )


# --- subcommands -----------------------------------------------------------------------

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
    """Print the lifted model's steady target for ``y_t`` and how far one plant step
    moves from it: x+ = f(x_s, u_s) with x_s = C_x z_s, and ||x+ - x_s||_inf."""
    y_target = np.atleast_1d(np.asarray(y_t, dtype=float))
    stack = build_stack(scenario_json, y_target)
    target = solve_steady(stack.problem, y_target)
    x_s = stack.model.C_x @ target.z_s
    print(f"lifted-model steady target: y_s = {np.array2string(target.y_s)}, "
          f"x_s = {np.array2string(x_s)}, u_s = {np.array2string(target.u_s)}, "
          f"offset cost = {target.offset_cost:.6e}")
    x_next = step_plant(stack.plant, x_s, target.u_s)[0]
    print(f"plant step from (x_s, u_s): x+ = {np.array2string(x_next)}, "
          f"||x+ - x_s||_inf = {float(np.max(np.abs(x_next - x_s))):.6e}")
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
        description="Tracking MPC on lifted linear models: tighten, simulate, steady.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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

    p = sub.add_parser("steady", help="print the steady target and the plant's residual at it")
    p.add_argument("scenario_json")
    p.add_argument("y_t", help="target output, comma-separated floats")

    args = parser.parse_args(argv)
    try:
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
