"""Tracking MPC in the lifted space with artificial steady-state targets.

Each step solves one QP over the nominal lifted trajectory, a steady pair
(z_s, u_s) acting as an adjustable target, and tightened state/input sets from
a :class:`~koopmpc.sets.TighteningSchedule`.  The offset term ``s * ||C_y z_s
- y_t||^2`` pulls the artificial target toward the requested reference while
the tracking terms pull the trajectory toward the artificial target, which
keeps the problem feasible even for unreachable or stepping references.

The QP is condensed over the predictions that the tube gain K stabilises:
its variables are the corrections c(j) of u(j) = K z(j) + c(j), the first
lifted state z(0) and the steady pair, and the dynamics are maps rolled out
once rather than rows (Rossiter, Kouvaritakis & Rice, Automatica 34(1), 1998),
which keeps them well conditioned on an unstable model. The QP takes the
lifted state z = psi(x_k) through the equality z(0) = z, and x(0) in X~(0)
is one more block of its rows; it is built once, as a family of QPs in
theta = (z, y_t), and solved at each step's theta. A loop lifts each
measured state once, solves one :class:`TrackingProblem` with ``solve_step(problem,
z, y_t)``, which forms u_k and x* (the target and J_N on first read), and checks the
recursive-feasibility candidate ``shifted_candidate(problem, prev, z)``, a decision
vector of the same QP whose margins are read off its rows through one precomputed map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qp as qps
from .gains import _as_spd
from .model import KoopmanModel, _as_vector, _is_finite, _is_number
from .sets import TighteningSchedule


class Infeasible(Exception):
    """A controller QP is certified primal infeasible."""


@dataclass(frozen=True)
class KtmpcConfig:
    """Horizon N, a positive integer, tracking weights, offset weight s (for
    S = s*I), a finite positive number (a bool or a string is neither), and
    tube gain (whose shape :func:`build_qp` checks against the model)."""

    N: int
    Q: np.ndarray
    R: np.ndarray
    s: float
    K: np.ndarray

    def __post_init__(self):
        if not (_is_number(self.N, integer=True) and self.N >= 1):
            raise ValueError(f"horizon N must be a positive integer, got {self.N!r}")
        object.__setattr__(self, "Q", _as_spd("Q", self.Q))
        object.__setattr__(self, "R", _as_spd("R", self.R))
        if not (_is_finite(self.s) and self.s > 0):
            raise ValueError(f"offset weight s must be finite and positive, got {self.s!r}")
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "K", np.asarray(self.K, dtype=float))


@dataclass(frozen=True)
class SteadyTarget:
    """A steady pair of the lifted model with its output and offset cost."""

    z_s: np.ndarray
    u_s: np.ndarray
    y_s: np.ndarray
    offset_cost: float


@dataclass(eq=False)
class KtmpcSolution:
    """One step's optimum ``x_star`` of ``problem``'s QP at ``y_t`` and the QP's
    ``objective``. Its artificial ``target`` and J_N, ``total_cost`` = objective + s ||y_t||^2
    (the constant the QP leaves out), are formed on first read. ``u_bar`` (N x n_u) and
    ``z_bar`` (N + 1 x n_z) are its predictions; the target's z_s and u_s view x_star."""

    x_star: np.ndarray
    objective: float
    y_t: np.ndarray
    problem: TrackingProblem
    layout = property(lambda self: self.problem.layout)
    u_bar = property(lambda self: self.layout.U @ self.x_star)
    z_bar = property(lambda self: self.layout.Z @ self.x_star)

    @functools.cached_property
    def target(self) -> SteadyTarget:
        p, x, lay = self.problem, self.x_star, self.layout
        return _steady_target(p.model, p.config.s, x[lay.z_s], x[lay.u_s], self.y_t)

    @functools.cached_property
    def total_cost(self) -> float:
        return self.objective + self.problem.config.s * float(self.y_t @ self.y_t)


@dataclass(frozen=True)
class LyapunovDiag:
    """Tracking cost V1, optimality gap V2 = J_N* - J_eq~*, and J_eq~* itself,
    one entry per step of a run.

    V2 >= 0 up to the rounding of the two costs it subtracts, so its floor is
    -1e-7 relative to J_eq~* (absolute when J_eq~* <= 1); a failure names its first step."""

    V1: np.ndarray
    V2: np.ndarray
    J_eq_tilde: np.ndarray

    def __post_init__(self):
        floor = -1e-7 * np.fmax(1.0, self.J_eq_tilde)
        for name, value, bound in (("V1", self.V1, 0.0), ("V2", self.V2, floor)):
            if not (holds := np.greater_equal(value, bound)).all():
                k = np.argmin(holds)  # the first failing step
                v, b = (np.broadcast_to(a, holds.shape).flat[k] for a in (value, bound))
                raise ValueError(f"{name} = {v} violates its {b:.3g} lower bound at step {k}")


# --- the decision vector [c(0..N-1); z(0); z_s; u_s] and its predictions ----------

class _Layout:
    """Slices of the decision vector x = [c(0..N-1); z(0); z_s; u_s] and the
    predictions it makes under the tube gain K, u(j) = K z(j) + c(j) and
    z(j+1) = (A + BK) z(j) + B c(j), rolled out once as maps of x:
    z(j) = Z[j] x for j = 0..N and u(j) = U[j] x for j = 0..N-1."""

    def __init__(self, model: KoopmanModel, K: np.ndarray, N: int):
        n_z, n_u = model.n_z, model.n_u
        if K.shape != (n_u, n_z):
            raise ValueError(f"tube gain K must be {n_u}x{n_z}, got shape {K.shape}")
        self.N, self.n_z, self.n_u = N, n_z, n_u
        self.z0 = slice(N * n_u, N * n_u + n_z)
        self.z_s = slice(self.z0.stop, self.z0.stop + n_z)
        self.u_s = slice(self.z_s.stop, self.z_s.stop + n_u)
        self.dim = self.u_s.stop
        A_K, eye = model.A + model.B @ K, np.eye(self.dim)
        self.Z = np.empty((N + 1, n_z, self.dim))
        self.Z[0] = eye[self.z0]
        for j in range(N):
            np.matmul(A_K, self.Z[j], out=self.Z[j + 1])
            self.Z[j + 1, :, self.c(j)] += model.B
        self.U = K @ self.Z[:N] + eye[: N * n_u].reshape(N, n_u, self.dim)

    def c(self, j: int) -> slice:
        return slice(j * self.n_u, (j + 1) * self.n_u)


def _inequality_blocks(schedule: TighteningSchedule) -> list:
    """The sets of the tracking QP's inequality blocks, in row order: U~(0..N-1)
    on u(j), X~(0..N-1) on C_x z(j), X~(N) on C_x z_s and U~(N) on u_s."""
    N = schedule.horizon
    return [*schedule.input_sets[:N], *schedule.state_sets, schedule.input_sets[N]]


# --- steady-target optimizers ---------------------------------------------------

def _steady_qp(problem: TrackingProblem) -> qps.QuadraticProgram:
    """The steady-pair QP over ``[z_s; u_s]``, a family in ``theta = y_t``: the
    offset ``s*||C_y z_s - y_t||^2`` less its constant, under the rows of
    ``problem.qp`` that hold ``[z_s; u_s]`` alone, sliced out of it: the steady
    pair ``(I - A) z_s - B u_s = 0``, ``C_x z_s`` in X~(N) and ``u_s`` in
    U~(N), and the offset's linear cost ``-2 s C_y' y_t``."""
    n_z, lay, qp = problem.model.n_z, problem.layout, problem.qp
    pair, rows = slice(lay.z_s.start, lay.dim), slice(problem.block_starts[-2], None)
    P = np.zeros((lay.dim - lay.z_s.start,) * 2)
    P[:n_z, :n_z] = 2.0 * problem.config.s * problem.model.C_y.T @ problem.model.C_y
    return qps.QuadraticProgram(
        P=P, q=qp.q[pair], A_eq=qp.A_eq[n_z : 2 * n_z, pair], b_eq=qp.b_eq[n_z : 2 * n_z],
        A_in=qp.A_in[rows, pair], b_in=qp.b_in[rows], F_q=qp.F_q[pair, n_z:],
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
    y_t = _as_vector(y_t, problem.model.n_y, "y_t")
    key = y_t.tobytes()
    if (target := problem.steady_targets.get(key)) is None:
        model, s = problem.model, problem.config.s
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


# --- per-step QP ---------------------------------------------------------------------

def build_qp(
    model: KoopmanModel,
    config: KtmpcConfig,
    schedule: TighteningSchedule,
    layout: _Layout | None = None,
) -> qps.QuadraticProgram:
    """Assemble the tracking QP, condensed over the predictions of
    :class:`_Layout`, as a family in ``theta = (z_k, y_t)`` with
    ``z_k = psi(x_k)`` the lifted state and ``y_t`` the reference.

    Decision vector: ``[c(0..N-1); z(0); z_s; u_s]``, where
    ``u(j) = K z(j) + c(j)`` for the tube gain ``K = config.K``, so the
    dynamics are the layout's maps rather than rows. The first ``n_z``
    equality rows pin ``z(0) = z_k``; then come the steady pair and the
    terminal equality ``z(N) = z_s``, 3 n_z rows in all. The inequality rows
    are the blocks of :func:`_inequality_blocks`, ``x(0) in X~(0)`` among
    them. Only the pinned right-hand side and the offset's linear cost of
    ``z_s``, ``-2 s C_y' y_t``, depend on theta. A caller that holds the
    layout of (model, config) passes it as ``layout`` and saves its rollout.
    """
    N, n_z, n_u = config.N, model.n_z, model.n_u
    if schedule.horizon != N:
        raise ValueError(f"schedule horizon {schedule.horizon} != config horizon {N}")
    if config.Q.shape != (n_z, n_z) or config.R.shape != (n_u, n_u):
        raise ValueError("Q/R dimensions do not match the model")
    lay = _Layout(model, config.K, N) if layout is None else layout
    eye = np.eye(lay.dim)

    # Stage costs ||z(j) - z_s||_Q^2 + ||u(j) - u_s||_R^2, j = 0..N-1, from one
    # stacked product of their maps D, and the offset.
    D_z, D_u = lay.Z[:N] - eye[lay.z_s], lay.U - eye[lay.u_s]
    D = np.concatenate((D_z, D_u), axis=1).reshape(-1, lay.dim)
    WD = np.concatenate((config.Q @ D_z, config.R @ D_u), axis=1).reshape(-1, lay.dim)
    P = 2.0 * D.T @ WD
    P[lay.z_s, lay.z_s] += 2.0 * config.s * model.C_y.T @ model.C_y

    # Equality rows: z(0) = z_k, the steady pair (I - A) z_s = B u_s, and z(N) = z_s.
    A_eq = np.zeros((3 * n_z, lay.dim))
    A_eq[:n_z, lay.z0] = np.eye(n_z)
    A_eq[n_z : 2 * n_z, lay.z_s], A_eq[n_z : 2 * n_z, lay.u_s] = np.eye(n_z) - model.A, -model.B
    A_eq[2 * n_z :] = lay.Z[N] - eye[lay.z_s]

    blocks = _inequality_blocks(schedule)
    maps = [*lay.U, *(model.C_x @ lay.Z[:N]), model.C_x @ eye[lay.z_s], eye[lay.u_s]]
    F_eq = np.zeros((3 * n_z, n_z + model.n_y))
    F_q = np.zeros((lay.dim, n_z + model.n_y))
    F_eq[:n_z, :n_z], F_q[lay.z_s, n_z:] = np.eye(n_z), -2.0 * config.s * model.C_y.T
    return qps.QuadraticProgram(
        P=P, q=np.zeros(lay.dim), A_eq=A_eq, b_eq=np.zeros(3 * n_z),
        A_in=np.vstack([S.normals @ M for S, M in zip(blocks, maps)]),
        b_in=np.concatenate([S.offsets for S in blocks]), F_q=F_q, F_eq=F_eq,
    )


def _candidate_map(K: np.ndarray, lay: _Layout) -> np.ndarray:
    """The shifted candidate of :func:`shifted_candidate` as one linear map:
    ``x_c = L @ [x*; z_next]``, with ``x*`` the previous optimum as a decision
    vector, of shape dim x (dim + n_z). The candidate shifts the corrections,
    ``c_c(j) = c*(j+1)`` for j < N-1, starts at ``z_c(0) = z_next``, keeps the
    steady pair and closes with ``c_c(N-1) = u_s* - K z_c(N-1)``, so that
    ``u_c(N-1) = u_s*``; z_c(N-1) = Z[N-1] x_c does not depend on c_c(N-1),
    so that last block is one product with the rows before it."""
    N, n_z, n_u, d = lay.N, lay.n_z, lay.n_u, lay.dim
    L = np.zeros((d, d + n_z))
    L[: (N - 1) * n_u, n_u : N * n_u] = np.eye((N - 1) * n_u)
    L[lay.z0, d:], L[lay.z_s, lay.z_s], L[lay.u_s, lay.u_s] = np.eye(n_z), np.eye(n_z), np.eye(n_u)
    L[lay.c(N - 1)] = L[lay.u_s] - K @ (lay.Z[N - 1] @ L)
    return L


class TrackingProblem:
    """The tracking QP of one (model, config, schedule) and its steady-target
    QP, each built once by :func:`build_qp` and :func:`_steady_qp` and factored
    on its first solve. Both are affine families of QPs: each step solves
    ``qp`` at ``theta = (psi(x_k), y_t)``, which enters only as ``b_eq[:n_z]``
    and the linear cost of ``z_s``, and each new reference ``steady_qp`` at
    ``theta = y_t`` (:func:`solve_steady`); the solver keeps each one's
    theta-columns and the map of its stored support. ``layout`` holds the
    predictions of :class:`_Layout`, rolled out once for the QP, the
    candidate and each solution's ``u_bar`` and ``z_bar``. ``block_starts`` holds
    the first ``A_in`` row of each inequality block, in :func:`build_qp`'s
    order, ``candidate_map`` the map of :func:`_candidate_map` and
    ``candidate_rows`` the QP's inequality rows through it, ``A_in @ candidate_map``, and
    ``steady_targets`` the target :func:`solve_steady` found for each
    reference, keyed by the bytes of ``y_t`` as a float array.
    """

    def __init__(self, model: KoopmanModel, config: KtmpcConfig, schedule: TighteningSchedule):
        if any(S.offsets.size == 0 for S in (*schedule.state_sets, *schedule.input_sets)):
            raise ValueError("every set of the tightening schedule needs at least one row")
        self.model, self.config, self.schedule = model, config, schedule
        self.layout = _Layout(model, config.K, config.N)
        self.qp = build_qp(model, config, schedule, self.layout)
        rows = [S.offsets.size for S in _inequality_blocks(schedule)]
        self.block_starts = np.cumsum([0] + rows[:-1])
        self.candidate_map = _candidate_map(config.K, self.layout)
        self.candidate_rows = self.qp.A_in @ self.candidate_map
        self.steady_qp = _steady_qp(self)
        self.steady_targets: dict[bytes, SteadyTarget] = {}


def solve_step(problem: TrackingProblem, z_k, y_t) -> tuple[np.ndarray, KtmpcSolution]:
    """Solve the tracking QP of ``problem`` at the lifted state ``z_k`` and
    return the first input to apply, ``u_k = K z*(0) + c*(0)``. A state
    outside X~(0) makes the QP infeasible, certified like any other
    infeasible step."""
    model, lay = problem.model, problem.layout
    z_k = _as_vector(z_k, model.n_z, "z_k")
    y_t = _as_vector(y_t, model.n_y, "y_t")
    sol = qps.solve(problem.qp, np.concatenate((z_k, y_t)))
    if sol.status == qps.PRIMAL_INFEASIBLE:
        raise Infeasible("tracking QP is primal infeasible")

    x = sol.x_star
    u_k = problem.config.K.dot(x[lay.z0]) + x[lay.c(0)]  # .dot skips the ufunc machinery of @
    return u_k, KtmpcSolution(x, sol.objective, y_t, problem)


def diagnostics(J_N, offset_costs) -> LyapunovDiag:
    """V1 = max(J_N* - its target's offset cost, 0) and V2 = J_N* - J_eq~* for a
    run's (k,) costs J_N* and (k, 2) offset costs (targets', then offline J_eq~*),
    bit for bit per entry."""
    own, J_eq = offset_costs[..., 0], offset_costs[..., 1]
    return LyapunovDiag(V1=np.maximum(J_N - own, 0.0), V2=J_N - J_eq, J_eq_tilde=J_eq)


def shifted_candidate(problem: TrackingProblem, prev: KtmpcSolution, z_next) -> np.ndarray:
    """The worst margin (negative = violated) of each block of ``problem``'s
    QP inequality rows at the one-step-shifted candidate built from the
    previous optimum, in the order of :func:`_inequality_blocks`: U~(0..N-1),
    X~(0..N-1), X~(N) on z_s, U~(N) on u_s.

    The candidate starts at the lifted successor state, ``z_c(0) = z_next``,
    and tracks the shifted previous trajectory under the tube gain
    ``K = config.K``, ``u_c(j) = u*(j+1) + K (z_c(j) - z*(j+1))``, finishing
    with the previous steady input; the previous steady pair is reused as the
    candidate target. With ``u(j) = K z(j) + c(j)`` that is a plain shift of
    the corrections, ``c_c(j) = c*(j+1)``, closed by
    ``c_c(N-1) = u_s* - K z_c(N-1)`` (:func:`_candidate_map`): a decision
    vector ``x_c = candidate_map @ [x*; z_next]``, so its row values are one
    product with ``problem.candidate_rows`` and x_c itself is never formed.
    """
    z_next = _as_vector(z_next, problem.model.n_z, "z_next")
    return np.minimum.reduceat(_candidate_slack(problem, prev.x_star, z_next), problem.block_starts)


def _candidate_slack(problem: TrackingProblem, x_prev, z_next) -> np.ndarray:
    """The slack of every QP inequality row at :func:`shifted_candidate`'s candidate."""
    return problem.qp.b_in - problem.candidate_rows @ np.concatenate((x_prev, z_next))
