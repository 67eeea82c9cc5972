"""Closed-loop simulation of the benchmark plants under the tracking controller.

The simulator owns disturbance injection (seeded, in lifted coordinates for
the polynomial benchmark), reference scheduling (timed steps or position-based
waypoint switching), training-data generation, and step-by-step logging of
everything the analysis needs: costs, Lyapunov values, shifted-candidate
margins, and the injected noise realizations.  Data and runs step each plant
through its one map ``f``.  Runs share one ``TrackingProblem``: each step
solves its tracking QP, and each reference new to the problem its
steady-target QP.  A run forms its noise and log before step 0, each step
writes only its feedback row, and what is only logged is formed once per run.
A run that loses feasibility ends there: its log stops at the infeasible step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .controller import (Infeasible, TrackingProblem, _candidate_slack, diagnostics,
                         solve_steady, solve_step)
from .model import DisturbanceModel, TrajectoryData, _as_vector, _is_finite, _is_number, lift
from .sets import CONTAINS_TOL, Zonotope, margin, point


# --- plants -----------------------------------------------------------------------

@dataclass(frozen=True)
class Plant:
    """A benchmark plant: batched dynamics f and output matrix C (y = C x)."""

    kind: str
    n_x: int
    n_u: int
    C: np.ndarray
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    A_lift: np.ndarray | None = None
    B_lift: np.ndarray | None = None

    @property
    def noise_dims(self) -> tuple[int, int]:
        """Sizes of the injected noise: w on the exact lifted state and v on
        the state, or (0, 0) for a plant without an exact lifting."""
        return (0, 0) if self.A_lift is None else (self.A_lift.shape[0], self.n_x)


def numerical_example_plant(lam: float = -0.1, mu: float = 2.0) -> Plant:
    """Two-state polynomial benchmark; ``f`` is its exact lifted step, x+ the
    first two coordinates of ``A_lift (x1, x2, x1^2) + B_lift u``. ``lam`` and
    ``mu`` are finite numbers (a bool or a string is not one), and ``lam``'s
    square, which ``A_lift`` holds, is finite too; a refusal names the
    parameter as a scenario does, ``lambda`` or ``mu``."""
    for name, value in (("lambda", lam), ("mu", mu)):
        if not _is_finite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    lam, mu = float(lam), float(mu)
    if not math.isfinite(lam * lam):
        raise ValueError(f"lambda must have a finite square, got {lam!r}")
    C = np.array([[0.0, 1.0]])
    A_lift = np.array([[lam, 0.0, 0.0], [0.0, mu, lam**2 - mu], [0.0, 0.0, lam**2]])
    B_lift = np.array([[0.0], [1.0], [0.0]])

    def f(X: np.ndarray, U: np.ndarray) -> np.ndarray:
        return (np.concatenate([X, X[..., :1] ** 2], axis=-1) @ A_lift.T + U @ B_lift.T)[..., :2]

    return Plant(kind="numerical_example", n_x=2, n_u=1, C=C, f=f, A_lift=A_lift, B_lift=B_lift)


def unicycle_plant(dt: float = 0.1) -> Plant:
    """Kinematic unicycle (p_x, p_y, theta) under forward-Euler discretization
    with step ``dt``, a finite positive number (a bool or a string is not one)."""
    if not (_is_finite(dt) and dt > 0):
        raise ValueError(f"dt must be a finite positive number, got {dt!r}")
    dt = float(dt)
    C = np.hstack([np.eye(2), np.zeros((2, 1))])

    def f(X: np.ndarray, U: np.ndarray) -> np.ndarray:
        px, py, th = X[:, 0], X[:, 1], X[:, 2]
        v, w = U[:, 0], U[:, 1]
        return np.column_stack([px + dt * v * np.cos(th), py + dt * v * np.sin(th), th + dt * w])

    return Plant(kind="unicycle", n_x=3, n_u=2, C=C, f=f)


def step_plant(
    plant: Plant, x, u, w=None, v=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One plant step ``x+ = f(x, u)``; returns (x_next, y, w, v) with ``y = C x+``.

    A plant with an exact lifting (the polynomial benchmark) takes injected
    noise: ``x+ = C_x (A z + B u + w) + v``, so process noise lives in lifted
    coordinates. The caller draws w and v (a closed-loop run draws its noise
    once per run); either one left out is zero. A plant without an exact
    lifting (the unicycle) takes none: its model error plays that role.
    """
    x, u = _as_vector(x, plant.n_x, "x"), _as_vector(u, plant.n_u, "u")
    n_w, n_v = plant.noise_dims
    if (w is not None or v is not None) and not n_w:
        raise ValueError(f"the {plant.kind} plant takes no injected disturbance")
    w = np.zeros(n_w) if w is None else _as_vector(w, n_w, "w")
    v = np.zeros(n_v) if v is None else _as_vector(v, n_v, "v")
    return (*_plant_step(plant, x, u, w, v), w, v)


def _plant_step(plant: Plant, x, u, w, v) -> tuple[np.ndarray, np.ndarray]:
    """:func:`step_plant`'s (x_next, y), for the float vectors its checks pass."""
    x_next = plant.f(x[None], u[None])[0]
    if w.size:
        x_next = x_next + w[: v.size] + v
    return x_next, plant.C @ x_next


# --- reference schedules --------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceSchedule:
    """Either timed reference steps or a waypoint course with switch radius."""

    mode: str
    entries: tuple = ()
    points: tuple = ()
    switch_radius: float = 0.0

    @classmethod
    def timed(cls, entries) -> "ReferenceSchedule":
        """Targets ``y`` from each ``(start_step, y)`` on. Start steps are
        integers (a bool is not one), strictly increasing from 0, and the
        targets are finite and all have one length."""
        norm = []
        for i, (k, y) in enumerate(entries):
            if not (_is_number(k, integer=True) and k >= 0):
                raise ValueError(f"timed[{i}] start step must be an integer >= 0, got {k!r}")
            norm.append((int(k), np.atleast_1d(np.asarray(y, dtype=float))))
        if not norm or norm[0][0] != 0:
            raise ValueError("timed schedule must start at step 0")
        starts = [k for k, _ in norm]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("timed entries must be strictly increasing in start_step")
        _finite_one_length([y for _, y in norm], "timed targets")
        return cls(mode="timed", entries=tuple(norm))

    @classmethod
    def waypoints(cls, points, switch_radius: float) -> "ReferenceSchedule":
        """Finite waypoints of one length, each passed once the output comes
        within ``switch_radius``, a finite positive number (a bool is not one)."""
        pts = tuple(np.atleast_1d(np.asarray(p, dtype=float)) for p in points)
        if not pts:
            raise ValueError("waypoint schedule needs at least one point")
        _finite_one_length(pts, "waypoints")
        r = switch_radius
        if not (_is_finite(r) and r > 0):
            raise ValueError(f"waypoints.switch_radius must be a finite positive number, "
                             f"got {r!r}")
        return cls(mode="waypoint", points=pts, switch_radius=float(r))


def _finite_one_length(vectors, what: str) -> None:
    """Refuse a vector that is not finite, naming its entry, or vectors of two lengths."""
    for i, v in enumerate(vectors):
        if not np.isfinite(v).all():
            raise ValueError(f"{what} must be finite, got entry {i}: {v.tolist()}")
    lengths = [v.size for v in vectors]
    if len(set(lengths)) > 1:
        raise ValueError(f"{what} must all have one length, got lengths {lengths}")


class _RefCursor:
    """Stateful reference lookup for one run; records waypoint arrival steps."""

    def __init__(self, refs: ReferenceSchedule):
        self.refs = refs
        self._i = 0
        self._last_reached = False
        self.reached_steps: list[int] = []

    def advance(self, k: int, position) -> np.ndarray:
        """The reference at step ``k``, with the system output at ``position``."""
        refs = self.refs
        if refs.mode == "timed":
            while self._i + 1 < len(refs.entries) and refs.entries[self._i + 1][0] <= k:
                self._i += 1
            return refs.entries[self._i][1]
        wp = refs.points[self._i]
        if position is not None and not self._last_reached:
            d = np.asarray(position, dtype=float) - wp
            if math.sqrt(d.dot(d)) < refs.switch_radius:  # np.linalg.norm's own form
                self.reached_steps.append(k)
                if self._i + 1 < len(refs.points):
                    self._i += 1
                else:
                    self._last_reached = True
        return refs.points[self._i]


# --- logging ---------------------------------------------------------------------------

def _column(width: str | None = None, dtype=float):
    """A per-step SimLog column: one row per step, of ``width`` entries (a
    dimension of the run: n_x, n_u, n_y (the plant's and the model's),
    n_w or n_v) or one scalar."""
    return field(metadata={"width": width, "dtype": dtype})


@dataclass(frozen=True)
class SimLog:
    """One record per simulated step; arrays are row-per-step.

    ``halted_at`` is the step that was infeasible, the log's last row, or
    ``None`` for a run that completed all its steps.
    """

    k: np.ndarray = _column(dtype=int)
    x: np.ndarray = _column("n_x")
    u: np.ndarray = _column("n_u")
    y: np.ndarray = _column("n_y")
    y_t: np.ndarray = _column("n_y")
    y_s: np.ndarray = _column("n_y")
    u_s: np.ndarray = _column("n_u")
    y_sr: np.ndarray = _column("n_y")
    J_N: np.ndarray = _column()
    V1: np.ndarray = _column()
    V2: np.ndarray = _column()
    feasible: np.ndarray = _column(dtype=bool)
    margin_min: np.ndarray = _column()
    state_margin: np.ndarray = _column()
    input_margin: np.ndarray = _column()
    w_inj: np.ndarray = _column("n_w")
    v_inj: np.ndarray = _column("n_v")
    reached_steps: tuple = ()
    halted_at: int | None = None


# The per-step columns are the SimLog fields declared with _column.
_COLUMNS = tuple(f for f in fields(SimLog) if "dtype" in f.metadata)


def _allocate(T: int, dims: dict) -> SimLog:
    """A log of T rows to fill in place: k counts the steps, and every step
    is feasible and injects no noise until written otherwise."""
    def column(f):
        width = f.metadata["width"]
        return np.empty((T,) if width is None else (T, dims[width]), dtype=f.metadata["dtype"])

    log = SimLog(**{f.name: column(f) for f in _COLUMNS})
    log.k[:] = np.arange(T)
    log.feasible[:] = True
    log.w_inj[:] = log.v_inj[:] = 0.0
    return log


def run_closed_loop(
    plant: Plant,
    problem: TrackingProblem,
    refs: ReferenceSchedule,
    disturbances: DisturbanceModel | None = None,
    T: int = 100,
    seed: int = 0,
    x0=None,
) -> SimLog:
    """Run T steps of ``problem`` from x0 (origin by default); seeded, deterministic.

    T must be an integer >= 0 (a bool is not one), x0 a finite (n_x,) vector and
    W and V of the plant's noise sizes, and the model's C_y as many rows as the plant's
    C (the model tracks the plant's y = C x). Before step 0 the run draws every step's xi
    with one ``rng.uniform`` call (row k holds W's draws, then V's: the stream of a
    ``sets.sample`` call per set and step), forms their points with one
    :func:`~koopmpc.sets.point` call per set and allocates T log rows, so its memory
    grows linearly in T. A step forms only its feedback, u_k and x*, with J_N and
    the candidate's worst margin (the offline target is set once per reference);
    the steps' targets (per-row products of x*), margins, V1 and V2 are formed after
    the last step, bit for bit the per-step values. An infeasible step ends the
    run: the log stops there, with ``feasible`` false and ``halted_at`` set.
    """
    if not (_is_number(T, integer=True) and T >= 0):
        raise ValueError(f"T must be an integer >= 0, got {T!r}")
    x = np.zeros(plant.n_x) if x0 is None else np.atleast_1d(np.asarray(x0))
    if x.dtype.kind not in "iuf" or x.shape != (plant.n_x,) or not np.isfinite(x).all():
        raise ValueError(f"x0 must be a vector of {plant.n_x} finite numbers, got {x0!r}")
    x = x.astype(float)
    model, s = problem.model, problem.config.s
    if model.n_y != plant.C.shape[0]:
        raise ValueError(f"the model's C_y {model.C_y.shape} and the plant's C {plant.C.shape} "
                         f"must have as many rows: the model tracks the plant's y = C x")
    n_w, n_v = plant.noise_dims
    noise_sets = () if disturbances is None else (disturbances.W, disturbances.V)
    if noise_sets and (disturbances.W.dim, disturbances.V.dim) != (n_w, n_v):
        raise ValueError(f"the {plant.kind} plant takes injected W and V of sizes {(n_w, n_v)}")
    g = [Z.generators.shape[1] for Z in noise_sets]
    xi = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(T, sum(g)))
    log = _allocate(T, {"n_x": plant.n_x, "n_u": plant.n_u, "n_y": model.n_y, "n_w": n_w,
                        "n_v": n_v})
    if noise_sets:  # W's draws, then V's
        log.w_inj[:], log.v_inj[:] = map(point, noise_sets, np.split(xi, g[:1], axis=1))
    X_star = np.empty((T, problem.layout.dim))  # each step's optimum
    offset_costs = np.empty((T, 2))  # each step's target's, then its offline target's
    cursor = _RefCursor(refs)
    prev, y_known = None, None  # the last optimum, and the reference of `offline`
    y = plant.C @ x

    for k, w, v in zip(range(T), log.w_inj, log.v_inj):
        y_t = cursor.advance(k, position=y)
        z = lift(model, x)
        worst = np.nan if prev is None else np.minimum.reduce(_candidate_slack(problem, prev, z))
        try:
            if y_t is not y_known:  # the offline target holds from step k on, until the next
                offline, y_known = solve_steady(problem, y_t), y_t
                log.y_sr[k:], offset_costs[k:, 1] = offline.y_s, offline.offset_cost
                c = s * float(y_t @ y_t)  # J_N's constant
            u_k, sol = solve_step(problem, z, y_t)
        except Infeasible:
            sol = None
        log.x[k], log.y[k], log.y_t[k], log.margin_min[k] = x, y, y_t, worst
        if sol is None:
            for name in ("u", "y_s", "u_s", "y_sr", "J_N", "V1", "V2", "input_margin"):
                getattr(log, name)[k] = np.nan
            log.feasible[k], log.w_inj[k], log.v_inj[k] = False, 0.0, 0.0
            return _finished(log, problem, X_star, offset_costs, k, cursor.reached_steps, k)
        x_next, y = _plant_step(plant, x, u_k, w, v)
        log.u[k], X_star[k], log.J_N[k] = u_k, sol.x_star, sol.objective + c
        x, prev = x_next, sol.x_star
    return _finished(log, problem, X_star, offset_costs, T, cursor.reached_steps, None)


def _finished(log: SimLog, problem, X_star, offset_costs, n: int, reached, halted_at) -> SimLog:
    """The run's log, completed in place and cut after a halted step, with all it only
    logs: the state margins, and the n feasible rows' input margins, V1, V2, y_s and u_s."""
    rows, lay = n + (halted_at is not None), problem.layout
    log.state_margin[:rows] = margin(problem.schedule.state_sets[0], log.x[:rows])
    log.input_margin[:n] = margin(problem.schedule.input_sets[0], log.u[:n])
    np.matmul(problem.model.C_y, X_star[:n, lay.z_s, None], out=log.y_s[:n, :, None])
    log.u_s[:n] = X_star[:n, lay.u_s]
    e = log.y_s[:n] - log.y_t[:n]
    offset_costs[:n, 0] = problem.config.s * (e[:, None, :] @ e[:, :, None])[:, 0, 0]
    diag = diagnostics(log.J_N[:n], offset_costs[:n])
    log.V1[:n], log.V2[:n] = diag.V1, diag.V2
    cut = {} if rows == log.k.size else {f.name: getattr(log, f.name)[:rows] for f in _COLUMNS}
    log.__dict__.update(reached_steps=tuple(reached), halted_at=halted_at, **cut)
    return log


# --- training data ----------------------------------------------------------------------

def generate_training_data(
    plant: Plant,
    n_traj: int,
    traj_len: int,
    input_box: Zonotope,
    state_box: Zonotope,
    seed: int,
) -> TrajectoryData:
    """Random-restart rollouts: uniform initial states, uniform i.i.d. inputs.

    The draws come in trajectory order (initial state, then its inputs), and
    all trajectories are stepped together, each step written in place into
    one (n_traj, traj_len + 1, n_x) array of states.
    """
    if state_box.dim != plant.n_x or input_box.dim != plant.n_u:
        raise ValueError("state_box/input_box dimensions do not match the plant")
    rng = np.random.default_rng(seed)
    g_x, g_u = state_box.generators.shape[1], input_box.generators.shape[1]
    xi = rng.uniform(-1.0, 1.0, size=(n_traj, g_x + traj_len * g_u))
    inputs = input_box.center + xi[:, g_x:].reshape(n_traj, traj_len, g_u) @ input_box.generators.T
    states = np.empty((n_traj, traj_len + 1, plant.n_x))
    states[:, 0] = state_box.center + xi[:, :g_x] @ state_box.generators.T
    for t in range(traj_len):
        states[:, t + 1] = plant.f(states[:, t], inputs[:, t])
    return TrajectoryData._handed(states.reshape(-1, plant.n_x), inputs.reshape(-1, plant.n_u),
                                  [traj_len + 1] * n_traj)


# --- metrics and persistence ------------------------------------------------------------

def tracking_metrics(log: SimLog, settle_window: int) -> dict:
    """Summary of tracking quality against the per-segment reachable target.

    ``final_error`` is the worst segment's mean ``||y - y_sr~||`` over that
    segment's last ``settle_window`` steps (an integer >= 1, not a bool);
    segments are maximal runs of equal reference values.  Margins within the
    membership tolerance of the boundary count as satisfied (same convention
    as :func:`koopmpc.sets.contains`), so an input sitting on an active bound
    does not report roundoff as violation.
    """
    if log.k.size == 0:
        raise ValueError("cannot compute metrics of an empty simulation log")
    if not _is_number(settle_window, integer=True):
        raise ValueError(f"settle_window must be an integer, got {settle_window!r}")
    if settle_window < 1:
        raise ValueError("settle_window must be at least 1")
    errs = np.linalg.norm(log.y - log.y_sr, axis=1)
    changed = np.any(log.y_t[1:] != log.y_t[:-1], axis=1)
    boundaries = [0] + list(np.nonzero(changed)[0] + 1) + [log.k.size]
    seg_means, pooled = [], []
    for lo, hi in zip(boundaries, boundaries[1:]):
        tail = errs[max(lo, hi - settle_window) : hi]
        seg_means.append(float(np.mean(tail)))
        pooled.extend(tail)
    worst = np.nanmin(
        np.concatenate([log.state_margin[None, :], log.input_margin[None, :]])
    )
    violation = max(0.0, -float(worst))
    return {
        "final_error": max(seg_means),
        "mean_settled_error": float(np.mean(pooled)),
        "max_constraint_violation": violation if violation > CONTAINS_TOL else 0.0,
        "steps_to_waypoints": list(log.reached_steps),
    }


def save_log_csv(log: SimLog, path) -> None:
    """Fixed-schema CSV: k,x_*,u_*,y_*,yt_*,ys_*,us_*,JN,V1,V2,feasible,margin_min.

    Each float is its ``repr`` (the shortest string that reads back to the
    same double), and each row ends in CRLF. An empty log writes the header.
    """
    vectors = {"x": log.x, "u": log.u, "y": log.y, "yt": log.y_t, "ys": log.y_s, "us": log.u_s}
    header = (["k"] + [f"{tag}_{i}" for tag, col in vectors.items() for i in range(col.shape[1])]
              + ["JN", "V1", "V2", "feasible", "margin_min"])
    floats = np.column_stack([*vectors.values(), log.J_N, log.V1, log.V2]).astype(float)
    rows = zip(log.k.astype(int).tolist(), floats.tolist(), log.feasible.astype(int).tolist(),
               log.margin_min.astype(float).tolist())
    lines = [",".join(header)]
    lines += [f"{k},{','.join(map(repr, row))},{feasible},{m!r}" for k, row, feasible, m in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
