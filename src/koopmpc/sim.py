"""Closed-loop simulation of the benchmark plants under the tracking controller.

The simulator owns disturbance injection (seeded, in lifted coordinates for
the polynomial benchmark), reference scheduling (timed steps or position-based
waypoint switching), training-data generation, and step-by-step logging of
everything the analysis needs: costs, Lyapunov values, shifted-candidate
margins, and the injected noise realizations.  Data and runs step each plant
through its one map ``f``.  Runs share one ``TrackingProblem``: each step
solves its tracking QP, and each reference new to the problem its
steady-target QP.  A run that loses feasibility ends there: its log stops at
the infeasible step and records it in ``halted_at``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .controller import (
    Infeasible,
    KtmpcSolution,
    TrackingProblem,
    diagnostics,
    shifted_candidate,
    solve_steady,
    solve_step,
)
from .model import DisturbanceModel, TrajectoryData, _is_finite, lift
from .sets import CONTAINS_TOL, Zonotope, margin, sample


# --- plants -----------------------------------------------------------------------

@dataclass(frozen=True)
class Plant:
    """A benchmark plant: batched dynamics f, batched output h, output matrix C."""

    kind: str
    n_x: int
    n_u: int
    C: np.ndarray
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    A_lift: np.ndarray | None = None
    B_lift: np.ndarray | None = None

    @property
    def noise_dims(self) -> tuple[int, int]:
        """Sizes of the injected noise: w on the exact lifted state and v on
        the state, or (0, 0) for a plant without an exact lifting."""
        return (0, 0) if self.A_lift is None else (self.A_lift.shape[0], self.n_x)


def numerical_example_plant(lam: float = -0.1, mu: float = 2.0) -> Plant:
    """Two-state polynomial benchmark; ``f`` is its exact lifted step, x+ the
    first two coordinates of ``A_lift (x1, x2, x1^2) + B_lift u``."""
    C = np.array([[0.0, 1.0]])
    A_lift = np.array([[lam, 0.0, 0.0], [0.0, mu, lam**2 - mu], [0.0, 0.0, lam**2]])
    B_lift = np.array([[0.0], [1.0], [0.0]])

    def f(X: np.ndarray, U: np.ndarray) -> np.ndarray:
        return (np.concatenate([X, X[..., :1] ** 2], axis=-1) @ A_lift.T + U @ B_lift.T)[..., :2]

    return Plant(
        kind="numerical_example", n_x=2, n_u=1, C=C, f=f, h=lambda X: X @ C.T,
        A_lift=A_lift, B_lift=B_lift,
    )


def unicycle_plant(dt: float = 0.1) -> Plant:
    """Kinematic unicycle (p_x, p_y, theta) under forward-Euler discretization."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    C = np.hstack([np.eye(2), np.zeros((2, 1))])

    def f(X: np.ndarray, U: np.ndarray) -> np.ndarray:
        px, py, th = X[:, 0], X[:, 1], X[:, 2]
        v, w = U[:, 0], U[:, 1]
        return np.column_stack([px + dt * v * np.cos(th), py + dt * v * np.sin(th), th + dt * w])

    return Plant(kind="unicycle", n_x=3, n_u=2, C=C, f=f, h=lambda X: X @ C.T)


def step_plant(
    plant: Plant,
    x,
    u,
    rng: np.random.Generator | None = None,
    W: Zonotope | None = None,
    V: Zonotope | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One plant step ``x+ = f(x, u)``; returns (x_next, y, w_injected, v_injected).

    A plant with an exact lifting (the polynomial benchmark) takes injected
    noise: ``x+ = C_x (A z + B u + w) + v``, so process noise lives in lifted
    coordinates. A plant without one (the unicycle) takes none: its model
    error plays that role.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if x.shape != (plant.n_x,) or u.shape != (plant.n_u,):
        raise ValueError(f"expected shapes ({plant.n_x},) and ({plant.n_u},)")
    n_w, n_v = plant.noise_dims
    if (W is not None or V is not None) and not n_w:
        raise ValueError(f"the {plant.kind} plant takes no injected disturbance")
    if (W is not None or V is not None) and rng is None:
        raise ValueError("disturbance injection requires an rng")
    w = sample(W, rng) if W is not None else np.zeros(n_w)
    v = sample(V, rng) if V is not None else np.zeros(n_v)
    if w.shape != (n_w,) or v.shape != (n_v,):
        raise ValueError(f"W must be {n_w}-dimensional and V {n_v}-dimensional")
    x_next = plant.f(x[None], u[None])[0]
    if n_w:
        x_next = x_next + w[:n_v] + v
    return x_next, plant.C @ x_next, w, v


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
        targets all have one length."""
        norm = []
        for i, (k, y) in enumerate(entries):
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
                raise ValueError(f"timed[{i}] start step must be an integer >= 0, got {k!r}")
            norm.append((int(k), np.atleast_1d(np.asarray(y, dtype=float))))
        if not norm or norm[0][0] != 0:
            raise ValueError("timed schedule must start at step 0")
        starts = [k for k, _ in norm]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("timed entries must be strictly increasing in start_step")
        _one_length([y for _, y in norm], "timed targets")
        return cls(mode="timed", entries=tuple(norm))

    @classmethod
    def waypoints(cls, points, switch_radius: float) -> "ReferenceSchedule":
        """Waypoints of one length, each passed once the output comes within
        ``switch_radius``, a finite positive number (a bool is not one)."""
        pts = tuple(np.atleast_1d(np.asarray(p, dtype=float)) for p in points)
        if not pts:
            raise ValueError("waypoint schedule needs at least one point")
        _one_length(pts, "waypoints")
        r = switch_radius
        if not (_is_finite(r) and r > 0):
            raise ValueError(f"waypoints.switch_radius must be a finite positive number, "
                             f"got {r!r}")
        return cls(mode="waypoint", points=pts, switch_radius=float(r))


def _one_length(vectors, what: str) -> None:
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
            if np.linalg.norm(np.asarray(position, dtype=float) - wp) < refs.switch_radius:
                self.reached_steps.append(k)
                if self._i + 1 < len(refs.points):
                    self._i += 1
                else:
                    self._last_reached = True
        return refs.points[self._i]


# --- logging ---------------------------------------------------------------------------

def _column(dtype=float):
    """A per-step SimLog column: one row per step."""
    return field(metadata={"dtype": dtype})


@dataclass(frozen=True)
class SimLog:
    """One record per simulated step; arrays are row-per-step.

    ``halted_at`` is the step that was infeasible, the log's last row, or
    ``None`` for a run that completed all its steps.
    """

    k: np.ndarray = _column(dtype=int)
    x: np.ndarray = _column()
    u: np.ndarray = _column()
    y: np.ndarray = _column()
    y_t: np.ndarray = _column()
    y_s: np.ndarray = _column()
    u_s: np.ndarray = _column()
    y_sr: np.ndarray = _column()
    J_N: np.ndarray = _column()
    V1: np.ndarray = _column()
    V2: np.ndarray = _column()
    feasible: np.ndarray = _column(dtype=bool)
    margin_min: np.ndarray = _column()
    state_margin: np.ndarray = _column()
    input_margin: np.ndarray = _column()
    w_inj: np.ndarray = _column()
    v_inj: np.ndarray = _column()
    reached_steps: tuple = ()
    halted_at: int | None = None


# The per-step columns are the SimLog fields declared with _column.
_COLUMNS = tuple(f for f in fields(SimLog) if "dtype" in f.metadata)


class _LogRows:
    def __init__(self):
        self.rows: dict[str, list] = {f.name: [] for f in _COLUMNS}

    def append(self, **kw):
        for name, value in kw.items():
            self.rows[name].append(value)

    def build(self, reached_steps, halted_at) -> SimLog:
        out = {f.name: np.array(self.rows[f.name], dtype=f.metadata["dtype"]) for f in _COLUMNS}
        return SimLog(reached_steps=tuple(reached_steps), halted_at=halted_at, **out)


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

    An infeasible step ends the run: the returned log stops at that
    step, with ``feasible`` false in its last row and ``halted_at`` set to it.
    """
    rng = np.random.default_rng(seed)
    x = np.zeros(plant.n_x) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    W = disturbances.W if disturbances is not None else None
    V = disturbances.V if disturbances is not None else None
    n_w, n_v = plant.noise_dims

    model, schedule = problem.model, problem.schedule
    cursor = _RefCursor(refs)
    rows = _LogRows()
    prev: KtmpcSolution | None = None

    for k in range(T):
        y = plant.C @ x
        y_t = cursor.advance(k, position=y)
        z = lift(model, x)
        cand_margin = np.nan if prev is None else shifted_candidate(problem, prev, z)[1].min()
        try:
            offline = solve_steady(problem, y_t)
            u_k, sol = solve_step(problem, z, y_t)
        except Infeasible:
            rows.append(
                k=k, x=x, u=np.full(plant.n_u, np.nan), y=y, y_t=y_t,
                y_s=np.full(model.n_y, np.nan), u_s=np.full(plant.n_u, np.nan),
                y_sr=np.full(model.n_y, np.nan), J_N=np.nan, V1=np.nan, V2=np.nan,
                feasible=False, margin_min=cand_margin,
                state_margin=margin(schedule.state_sets[0], x), input_margin=np.nan,
                w_inj=np.zeros(n_w), v_inj=np.zeros(n_v),
            )
            return rows.build(cursor.reached_steps, halted_at=k)
        diag = diagnostics(sol, offline)
        x_next, _, w, v = step_plant(plant, x, u_k, rng=rng, W=W, V=V)
        rows.append(
            k=k, x=x, u=u_k, y=y, y_t=y_t, y_s=sol.target.y_s, u_s=sol.target.u_s,
            y_sr=offline.y_s, J_N=sol.total_cost, V1=diag.V1, V2=diag.V2, feasible=True,
            margin_min=cand_margin, state_margin=margin(schedule.state_sets[0], x),
            input_margin=margin(schedule.input_sets[0], u_k), w_inj=w, v_inj=v,
        )
        x = x_next
        prev = sol
    return rows.build(cursor.reached_steps, halted_at=None)


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
    all trajectories are stepped together.
    """
    if state_box.dim != plant.n_x or input_box.dim != plant.n_u:
        raise ValueError("state_box/input_box dimensions do not match the plant")
    rng = np.random.default_rng(seed)
    g_x, g_u = state_box.generators.shape[1], input_box.generators.shape[1]
    xi = rng.uniform(-1.0, 1.0, size=(n_traj, g_x + traj_len * g_u))
    inputs = input_box.center + xi[:, g_x:].reshape(n_traj, traj_len, g_u) @ input_box.generators.T
    states = [state_box.center + xi[:, :g_x] @ state_box.generators.T]
    for t in range(traj_len):
        states.append(plant.f(states[-1], inputs[:, t]))
    return TrajectoryData.batch(np.stack(states, axis=1), inputs)


# --- metrics and persistence ------------------------------------------------------------

def tracking_metrics(log: SimLog, settle_window: int) -> dict:
    """Summary of tracking quality against the per-segment reachable target.

    ``final_error`` is the worst segment's mean ``||y - y_sr~||`` over that
    segment's last ``settle_window`` steps; segments are maximal runs of equal
    reference values.  Margins within the membership tolerance of the boundary
    count as satisfied (same convention as :func:`koopmpc.sets.contains`), so
    an input sitting on an active bound does not report roundoff as violation.
    """
    if log.k.size == 0:
        raise ValueError("cannot compute metrics of an empty simulation log")
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
    """Fixed-schema CSV: k,x_*,u_*,y_*,yt_*,ys_*,us_*,JN,V1,V2,feasible,margin_min."""
    def expand(tag, n):
        return [f"{tag}_{i}" for i in range(n)]

    header = (
        ["k"]
        + expand("x", log.x.shape[1])
        + expand("u", log.u.shape[1])
        + expand("y", log.y.shape[1])
        + expand("yt", log.y_t.shape[1])
        + expand("ys", log.y_s.shape[1])
        + expand("us", log.u_s.shape[1])
        + ["JN", "V1", "V2", "feasible", "margin_min"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(log.k.size):
            row = [int(log.k[i])]
            for arr in (log.x, log.u, log.y, log.y_t, log.y_s, log.u_s):
                row.extend(repr(float(v)) for v in arr[i])
            row.extend(repr(float(v[i])) for v in (log.J_N, log.V1, log.V2))
            row.append(int(log.feasible[i]))
            row.append(repr(float(log.margin_min[i])))
            writer.writerow(row)
