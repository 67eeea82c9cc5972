"""Tracking MPC in the lifted space with artificial steady-state targets.

Each step solves one QP over the nominal lifted trajectory, a steady pair
(z_s, u_s) acting as an adjustable target, and tightened state/input sets from
a :class:`~koopmpc.sets.TighteningSchedule`.  The offset term ``s * ||C_y z_s
- y_t||^2`` pulls the artificial target toward the requested reference while
the tracking terms pull the trajectory toward the artificial target, which
keeps the problem feasible even for unreachable or stepping references.

The QP takes the lifted state z = psi(x_k) through the equality z(0) = z, and
x(0) in X~(0) is one more block of its rows; it is built once, as a family of
QPs in theta = (z, y_t), and solved at each step's theta. A loop lifts each
measured state once, solves one :class:`TrackingProblem` with
``solve_step(problem, z, y_t)`` and checks the recursive-feasibility candidate
``shifted_candidate(problem, prev, z)``, a decision vector of the same QP
whose margins are read off its rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from . import qp as qps
from .gains import _as_spd
from .model import KoopmanModel
from .sets import TighteningSchedule


class Infeasible(Exception):
    """A controller QP is certified primal infeasible."""


def _as_vector(v, n: int, name: str) -> np.ndarray:
    out = np.atleast_1d(np.asarray(v, dtype=float))
    if out.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {out.shape}")
    return out


@dataclass(frozen=True)
class KtmpcConfig:
    """Horizon, tracking weights, offset weight s (for S = s*I), and tube gain
    (whose shape :func:`build_qp` checks against the model)."""

    N: int
    Q: np.ndarray
    R: np.ndarray
    s: float
    K: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ValueError("horizon N must be a positive integer")
        object.__setattr__(self, "Q", _as_spd("Q", self.Q))
        object.__setattr__(self, "R", _as_spd("R", self.R))
        s = float(self.s)
        if not 0 < s < np.inf:
            raise ValueError(f"offset weight s must be finite and positive, got {self.s!r}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "K", np.asarray(self.K, dtype=float))


@dataclass(frozen=True)
class SteadyTarget:
    """A steady pair of the lifted model with its output and offset cost."""

    z_s: np.ndarray
    u_s: np.ndarray
    y_s: np.ndarray
    offset_cost: float


@dataclass(frozen=True)
class NonlinearSteadyTarget:
    """Best steady pair of the true plant found by grid search."""

    x_s: np.ndarray
    u_s: np.ndarray
    y_s: np.ndarray
    offset_cost: float


@dataclass(frozen=True)
class KtmpcSolution:
    """Optimal trajectory, artificial target, and total cost J_N of one step's
    QP: its objective plus ``s * ||y_t||^2``, the constant the QP leaves out."""

    u_bar: np.ndarray
    z_bar: np.ndarray
    target: SteadyTarget
    total_cost: float


@dataclass(frozen=True)
class LyapunovDiag:
    """Tracking cost V1, optimality gap V2 = J_N* - J_eq~*, and J_eq~* itself.

    V2 >= 0 up to the rounding of the two costs it subtracts, so its floor
    is -1e-7 relative to J_eq~* (absolute when J_eq~* <= 1)."""

    V1: float
    V2: float
    J_eq_tilde: float

    def __post_init__(self):
        if not (self.V1 >= 0.0):
            raise ValueError("V1 must be non-negative")
        floor = -1e-7 * max(1.0, self.J_eq_tilde)
        if not (self.V2 >= floor):
            raise ValueError(f"V2 = {self.V2} violates its {floor:.3g} lower bound")


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension grid values for the nonlinear steady-pair search."""

    x_values: tuple
    u_values: tuple
    fp_tol: float = 1e-6

    def __post_init__(self):
        for field_name in ("x_values", "u_values"):
            vals = tuple(np.atleast_1d(np.asarray(v, dtype=float)) for v in getattr(self, field_name))
            if not vals or any(v.ndim != 1 or v.size == 0 for v in vals):
                raise ValueError(f"{field_name} must be non-empty 1-D grids")
            object.__setattr__(self, field_name, vals)
        if not (self.fp_tol > 0):
            raise ValueError("fp_tol must be positive")


# --- layout of the decision vector [u(0..N-1); z(0..N); z_s; u_s] ----------------

class _Layout:
    def __init__(self, N: int, n_z: int, n_u: int):
        self.N, self.n_z, self.n_u = N, n_z, n_u
        self._z0 = N * n_u
        self.z_s = slice(self._z0 + (N + 1) * n_z, self._z0 + (N + 2) * n_z)
        self.u_s = slice(self.z_s.stop, self.z_s.stop + n_u)
        self.dim = self.u_s.stop

    def u(self, j: int) -> slice:
        return slice(j * self.n_u, (j + 1) * self.n_u)

    def z(self, j: int) -> slice:  # j = 0..N
        return slice(self._z0 + j * self.n_z, self._z0 + (j + 1) * self.n_z)

    def split(self, x: np.ndarray):
        """Views (u(0..N-1), z(0..N), z_s, u_s) of ``x`` along its first axis,
        which may carry trailing dimensions; writing to one writes to ``x``."""
        rest = x.shape[1:]
        return (
            x[: self._z0].reshape(self.N, self.n_u, *rest),
            x[self._z0 : self.z_s.start].reshape(self.N + 1, self.n_z, *rest),
            x[self.z_s],
            x[self.u_s],
        )


def _inequality_blocks(model: KoopmanModel, schedule: TighteningSchedule, lay: _Layout):
    """The tracking QP's inequality blocks in row order, as (set, columns, map into the
    set's space): U~(0..N-1) on u(j), X~(0..N-1) on z(j), X~(N) on z_s, U~(N) on u_s."""
    N = lay.N
    for j in range(N):
        yield schedule.input_sets[j], lay.u(j), None
    for j in range(N):
        yield schedule.state_sets[j], lay.z(j), model.C_x
    yield schedule.state_sets[N], lay.z_s, model.C_x
    yield schedule.input_sets[N], lay.u_s, None


# --- steady-target optimizers ---------------------------------------------------

def _steady_qp(model: KoopmanModel, schedule: TighteningSchedule, s: float) -> qps.QuadraticProgram:
    """The steady-pair QP over ``[z_s; u_s]``, a family in ``theta = y_t``: the
    offset ``s*||C_y z_s - y_t||^2`` less its constant, steady pairs
    ``(I - A) z_s - B u_s = 0``, ``C_x z_s`` in X~(N) and ``u_s`` in U~(N)."""
    X_N, U_N = schedule.state_sets[-1], schedule.input_sets[-1]
    return qps.QuadraticProgram(
        P=block_diag(2.0 * s * model.C_y.T @ model.C_y, np.zeros((model.n_u, model.n_u))),
        q=np.zeros(model.n_z + model.n_u),
        A_eq=np.hstack([np.eye(model.n_z) - model.A, -model.B]), b_eq=np.zeros(model.n_z),
        A_in=block_diag(X_N.normals @ model.C_x, U_N.normals),
        b_in=np.concatenate([X_N.offsets, U_N.offsets]),
        F_q=np.vstack([-2.0 * s * model.C_y.T, np.zeros((model.n_u, model.n_y))]),
    )


def solve_steady(problem: TrackingProblem, y_t) -> SteadyTarget:
    """Most-tightened steady pair minimizing the offset to the reference.

    Solves ``min s*||C_y z_s - y_t||^2`` over steady pairs ``z_s = A z_s + B
    u_s`` with ``C_x z_s`` in the terminal tightened state set and ``u_s`` in
    the terminal tightened input set: ``problem.steady_qp`` at ``theta = y_t``.
    The target is kept in ``problem.steady_targets``, and a later call for the
    same ``y_t`` returns it without a solve; an infeasible reference raises
    :class:`Infeasible` and keeps nothing.
    """
    key = np.asarray(y_t, dtype=float).tobytes()
    if (target := problem.steady_targets.get(key)) is None:
        model, s = problem.model, problem.config.s
        y_t = _as_vector(y_t, model.n_y, "y_t")
        sol = qps.solve(problem.steady_qp, y_t)
        if sol.status == qps.PRIMAL_INFEASIBLE:
            raise Infeasible("no steady pair exists inside the terminal tightened sets")
        target = _steady_target(model, s, sol.x_star[: model.n_z], sol.x_star[model.n_z :], y_t)
        problem.steady_targets[key] = target
    return target


def _steady_target(model: KoopmanModel, s: float, z_s, u_s, y_t) -> SteadyTarget:
    """The pair (z_s, u_s) with its output ``y_s = C_y z_s`` and offset ``s ||y_s - y_t||^2``."""
    y_s = model.C_y @ z_s
    e = y_s - y_t
    return SteadyTarget(z_s=z_s, u_s=u_s, y_s=y_s, offset_cost=s * float(e @ e))


def solve_steady_nonlinear(plant, y_t, s: float, grid_spec: GridSpec) -> NonlinearSteadyTarget:
    """Brute-force steady pair of the true plant, used as a reference oracle.

    ``plant`` must expose batched maps ``f(X, U) -> X_next`` and ``h(X) -> Y``
    over row-stacked arrays.  Among all grid points with ``||f(x,u) - x||_inf
    <= fp_tol``, returns the one minimizing ``s*||h(x) - y_t||^2`` (first hit
    wins ties, so the result is deterministic).
    """
    y_t = np.atleast_1d(np.asarray(y_t, dtype=float))
    mesh = np.meshgrid(*grid_spec.x_values, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    best = None
    for u_combo in itertools.product(*grid_spec.u_values):
        u = np.array(u_combo, dtype=float)
        U = np.broadcast_to(u, (X.shape[0], u.size))
        X_next = np.asarray(plant.f(X, U), dtype=float)
        fp = np.max(np.abs(X_next - X), axis=1) <= grid_spec.fp_tol
        if not np.any(fp):
            continue
        Xf = X[fp]
        Y = np.atleast_2d(np.asarray(plant.h(Xf), dtype=float))
        costs = s * np.sum((Y - y_t) ** 2, axis=1)
        i = int(np.argmin(costs))
        if best is None or costs[i] < best[0]:
            best = (float(costs[i]), Xf[i], u, Y[i])
    if best is None:
        raise ValueError("no fixed point of the plant found on the given grid")
    cost, x_s, u_s, y_s = best
    return NonlinearSteadyTarget(x_s=x_s, u_s=u_s, y_s=y_s, offset_cost=cost)


# --- per-step QP ---------------------------------------------------------------------

def build_qp(
    model: KoopmanModel,
    config: KtmpcConfig,
    schedule: TighteningSchedule,
) -> qps.QuadraticProgram:
    """Assemble the sparse tracking QP, a family in ``theta = (z_k, y_t)``
    with ``z_k = psi(x_k)`` the lifted state and ``y_t`` the reference.

    Decision vector: ``[u(0..N-1); z(0..N); z_s; u_s]``. The first ``n_z``
    equality rows pin ``z(0) = z_k``; then come the dynamics
    ``z(j+1) = A z(j) + B u(j)`` for j = 0..N-1, the steady pair and the
    terminal equality ``z(N) = z_s``. The inequality rows are the blocks of
    :func:`_inequality_blocks`, ``x(0) in X~(0)`` among them. Only the
    pinned right-hand side and the offset's linear cost of ``z_s``,
    ``-2 s C_y' y_t``, depend on theta.
    """
    N, n_z, n_u = config.N, model.n_z, model.n_u
    if schedule.horizon != N:
        raise ValueError(f"schedule horizon {schedule.horizon} != config horizon {N}")
    if config.Q.shape != (n_z, n_z) or config.R.shape != (n_u, n_u):
        raise ValueError("Q/R dimensions do not match the model")
    if config.K.shape != (n_u, n_z):
        raise ValueError(f"tube gain K must be {n_u}x{n_z}, got shape {config.K.shape}")
    lay = _Layout(N, n_z, n_u)
    Q2, R2 = 2.0 * config.Q, 2.0 * config.R

    # Stage costs ||z(j) - z_s||_Q^2 + ||u(j) - u_s||_R^2, j = 0..N-1, and the offset.
    P = np.zeros((lay.dim, lay.dim))
    q = np.zeros(lay.dim)
    for j in range(N):
        for v, v_s, W2 in ((lay.u(j), lay.u_s, R2), (lay.z(j), lay.z_s, Q2)):
            P[v, v] = W2
            P[v, v_s] = P[v_s, v] = -W2
    P[lay.u_s, lay.u_s] = N * R2
    P[lay.z_s, lay.z_s] = N * Q2 + 2.0 * config.s * model.C_y.T @ model.C_y

    # Equality row blocks, n_z rows each, as (columns, coefficient) terms.
    eye, A, B = np.eye(n_z), model.A, model.B
    eq_blocks = [[(lay.z(0), eye)]]
    eq_blocks += [[(lay.z(j + 1), eye), (lay.z(j), -A), (lay.u(j), -B)] for j in range(N)]
    eq_blocks += [[(lay.z_s, eye - A), (lay.u_s, -B)], [(lay.z(N), eye), (lay.z_s, -eye)]]
    A_eq = np.zeros((len(eq_blocks) * n_z, lay.dim))
    b_eq = np.zeros(len(eq_blocks) * n_z)
    for i, terms in enumerate(eq_blocks):
        for cols, M in terms:
            A_eq[i * n_z : (i + 1) * n_z, cols] = M

    rows_A, rows_b = [], []
    for S, cols, through in _inequality_blocks(model, schedule, lay):
        block = np.zeros((S.normals.shape[0], lay.dim))
        block[:, cols] = S.normals if through is None else S.normals @ through
        rows_A.append(block)
        rows_b.append(S.offsets)

    F_eq = np.zeros((A_eq.shape[0], n_z + model.n_y))
    F_q = np.zeros((lay.dim, n_z + model.n_y))
    F_eq[:n_z, :n_z], F_q[lay.z_s, n_z:] = eye, -2.0 * config.s * model.C_y.T
    return qps.QuadraticProgram(
        P=P, q=q, A_eq=A_eq, b_eq=b_eq, A_in=np.vstack(rows_A), b_in=np.concatenate(rows_b),
        F_q=F_q, F_eq=F_eq,
    )


def _candidate_map(model: KoopmanModel, K: np.ndarray, lay: _Layout) -> np.ndarray:
    """The shifted candidate of :func:`shifted_candidate` as one linear map:
    ``x_c = L @ [x*; z_next]``, with ``x*`` the previous optimum as a decision
    vector. Every step of the candidate's rollout is linear, so rolling it out
    once on the identity gives ``L``, of shape dim x (dim + n_z)."""
    eye = np.eye(lay.dim + model.n_z)
    u, z, z_s, u_s = lay.split(eye[: lay.dim])
    L = np.empty((lay.dim, eye.shape[1]))
    u_c, z_c, z_sc, u_sc = lay.split(L)
    z_c[0] = eye[lay.dim :]
    for j in range(lay.N - 1):
        u_c[j] = u[j + 1] + K @ (z_c[j] - z[j + 1])
        z_c[j + 1] = model.A @ z_c[j] + model.B @ u_c[j]
    u_c[lay.N - 1] = u_s
    z_c[lay.N] = model.A @ z_c[lay.N - 1] + model.B @ u_c[lay.N - 1]
    z_sc[:] = z_s
    u_sc[:] = u_s
    return L


class TrackingProblem:
    """The tracking QP of one (model, config, schedule) and its steady-target
    QP, each built once by :func:`build_qp` and :func:`_steady_qp` and factored
    on its first solve. Both are affine families of QPs: each step solves
    ``qp`` at ``theta = (psi(x_k), y_t)``, which enters only as ``b_eq[:n_z]``
    and the linear cost of ``z_s``, and each new reference ``steady_qp`` at
    ``theta = y_t`` (:func:`solve_steady`); the solver keeps each one's
    theta-columns and the map of its stored support. ``block_starts`` holds
    the first ``A_in`` row of each inequality block, in :func:`build_qp`'s
    order, ``candidate_map`` the map of :func:`_candidate_map`, and
    ``steady_targets`` the target :func:`solve_steady` found for each
    reference, keyed by the bytes of ``y_t`` as a float array.
    """

    def __init__(self, model: KoopmanModel, config: KtmpcConfig, schedule: TighteningSchedule):
        if any(S.offsets.size == 0 for S in (*schedule.state_sets, *schedule.input_sets)):
            raise ValueError("every set of the tightening schedule needs at least one row")
        self.model, self.config, self.schedule = model, config, schedule
        self.layout = _Layout(config.N, model.n_z, model.n_u)
        self.qp = build_qp(model, config, schedule)
        rows = [S.offsets.size for S, _, _ in _inequality_blocks(model, schedule, self.layout)]
        self.block_starts = np.cumsum([0] + rows[:-1])
        self.candidate_map = _candidate_map(model, config.K, self.layout)
        self.steady_qp = _steady_qp(model, schedule, config.s)
        self.steady_targets: dict[bytes, SteadyTarget] = {}


def solve_step(problem: TrackingProblem, z_k, y_t) -> tuple[np.ndarray, KtmpcSolution]:
    """Solve the tracking QP of ``problem`` at the lifted state ``z_k`` and
    return the first input to apply. A state outside X~(0) makes the QP
    infeasible, certified like any other infeasible step."""
    model, config = problem.model, problem.config
    z_k = _as_vector(z_k, model.n_z, "z_k")
    y_t = _as_vector(y_t, model.n_y, "y_t")
    sol = qps.solve(problem.qp, np.concatenate((z_k, y_t)))
    if sol.status == qps.PRIMAL_INFEASIBLE:
        raise Infeasible("tracking QP is primal infeasible")

    u_bar, z_bar, z_s, u_s = problem.layout.split(sol.x_star)
    target = _steady_target(model, config.s, z_s, u_s, y_t)
    J_N = sol.objective + config.s * float(y_t @ y_t)
    return u_bar[0].copy(), KtmpcSolution(u_bar=u_bar, z_bar=z_bar, target=target, total_cost=J_N)


def diagnostics(solution: KtmpcSolution, offline: SteadyTarget) -> LyapunovDiag:
    """Lyapunov-style quantities: V1 (tracking part) and V2 = J_N* - J_eq~*; J_N* is total_cost."""
    V1 = max(solution.total_cost - solution.target.offset_cost, 0.0)
    V2 = solution.total_cost - offline.offset_cost
    return LyapunovDiag(V1=V1, V2=V2, J_eq_tilde=offline.offset_cost)


def shifted_candidate(
    problem: TrackingProblem, prev: KtmpcSolution, z_next
) -> tuple[np.ndarray, np.ndarray]:
    """One-step-shifted candidate built from the previous optimum, as a
    decision vector ``x_c`` of ``problem``'s QP; returns ``(x_c, margins)``.

    The candidate starts at the lifted successor state, ``z_c(0) = z_next``,
    and tracks the shifted previous trajectory under the tube gain
    ``K = config.K``, ``u_c(j) = u*(j+1) + K (z_c(j) - z*(j+1))``, finishing
    with the previous steady input; the previous steady pair is reused as the
    candidate target. That rollout is linear in the previous optimum and
    ``z_next``, so it is one product with ``problem.candidate_map``.
    ``margins`` holds the worst margin (negative = violated) of each block of
    the QP's inequality rows against the tightened schedule, in the order of
    :func:`_inequality_blocks`: U~(0..N-1), X~(0..N-1), X~(N) on z_s, U~(N) on u_s.
    """
    z_next = _as_vector(z_next, problem.model.n_z, "z_next")
    x_c = problem.candidate_map @ np.concatenate(
        [prev.u_bar.ravel(), prev.z_bar.ravel(), prev.target.z_s, prev.target.u_s, z_next]
    )
    return x_c, np.minimum.reduceat(problem.qp.b_in - problem.qp.A_in @ x_c, problem.block_starts)
