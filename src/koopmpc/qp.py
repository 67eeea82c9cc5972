"""Dense convex quadratic programming with certified KKT residuals.

Problems have the form

    minimize    0.5 x'Px + q'x
    subject to  A_eq x  = b_eq
                A_in x <= b_in

and are solved by a null-space primal active-set method. Everything the solver
derives from P, A_eq and A_in (the PSD check, one SVD of A_eq giving an
orthonormal null basis Z and the pseudo-inverse, the Cholesky factorization
Z'PZ = LL' and the reduced rows) is computed once per problem, on first use,
and stays valid while q, b_eq and b_in change. The iterations work in the
basis Y = Z L^-T, in which the reduced Hessian is the identity, so each step
is a projection on the working-set basis: the reduced gradient with its
component along the working rows removed. The multipliers come from one
triangular solve with the Gram-Schmidt factor that the independence test of
each added row builds anyway (as in Goldfarb & Idnani, 1983, the Hessian is
factored once and only the working rows' factor changes). A singular Z'PZ is
handled by an eigendecomposition on the working rows' complement instead.

A warm start is projected onto the equalities, then the rows it violates are
held at their bounds by the correction of least P-norm, taken from the working
set's own factor; the held rows are the iterations' first working set. A
feasible start is otherwise produced by a phase-1 linear program (HiGHS), whose
optimal slack also certifies primal infeasibility. Pure linear programs (P = 0)
are dispatched to HiGHS directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs
from scipy.optimize import linprog

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"
MAX_ITERATIONS = "MaxIterations"

_FEAS_TOL = 1e-9
_MULT_TOL = 1e-8  # optimal once every working-row multiplier is >= -_MULT_TOL


class NonConvex(Exception):
    """The quadratic term has a negative eigenvalue beyond tolerance."""


class SolverFailed(RuntimeError):
    """A QP could not be solved: an LP failed, the objective is unbounded
    below on the feasible set, or the iterations ran out."""


@dataclass
class QuadraticProgram:
    """Convex QP data. P is symmetrized on construction; empty constraint
    blocks are normalized to 0-row matrices so downstream code never branches
    on None. P, A_eq and A_in are private read-only copies, since the solver's
    factors of them are kept; q, b_eq and b_in may be rewritten in place."""

    P: np.ndarray
    q: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_in: np.ndarray | None = None
    b_in: np.ndarray | None = None

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).ravel()
        d = self.q.size
        self.P = np.atleast_2d(np.asarray(self.P, dtype=float))
        if self.P.shape != (d, d):
            raise ValueError(f"P shape {self.P.shape} does not match q size {d}")
        self.P = 0.5 * (self.P + self.P.T)

        def _block(A, b, name):
            if A is None:
                return np.zeros((0, d)), np.zeros(0)
            A = np.atleast_2d(np.array(A, dtype=float))
            b = np.asarray(b, dtype=float).ravel()
            if A.shape != (b.size, d):
                raise ValueError(
                    f"{name} shape {A.shape} inconsistent with rhs size {b.size} "
                    f"and dimension {d}"
                )
            return A, b

        self.A_eq, self.b_eq = _block(self.A_eq, self.b_eq, "A_eq")
        self.A_in, self.b_in = _block(self.A_in, self.b_in, "A_in")
        for M in (self.P, self.A_eq, self.A_in):
            M.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.q.size

    @cached_property
    def factors(self) -> "_Factors":
        """The solver's factors of P, A_eq and A_in, computed on first use.

        They stay valid while q, b_eq and b_in change; P, A_eq and A_in are
        read-only."""
        return _factor(self)


@dataclass
class QpSolution:
    x_star: np.ndarray
    objective: float
    status: str
    kkt_residuals: dict[str, float]
    iterations: int = 0
    eq_multipliers: np.ndarray | None = None
    in_multipliers: np.ndarray | None = None
    active_set: tuple[int, ...] = ()


def _objective(qp: QuadraticProgram, x: np.ndarray) -> float:
    return float(0.5 * x @ qp.P @ x + qp.q @ x)


def _kkt_residuals(qp, x, nu, lam) -> dict[str, float]:
    stat = qp.P @ x + qp.q + qp.A_eq.T @ nu + qp.A_in.T @ lam
    r_in, r_eq = qp.A_in @ x - qp.b_in, qp.A_eq @ x - qp.b_eq
    return {
        "stationarity": float(np.max(np.abs(stat), initial=0.0)),
        "primal_eq": float(np.max(np.abs(r_eq), initial=0.0)),
        "primal_in": float(np.max(r_in, initial=0.0)),
        "complementarity": float(np.max(np.abs(lam * r_in), initial=0.0)),
    }


def _validate_psd(P: np.ndarray) -> None:
    if P.size == 0:
        return
    scale = max(1.0, float(np.max(np.abs(P))))
    if np.linalg.eigvalsh(P).min() < -1e-10 * scale:
        raise NonConvex("quadratic term is not positive semidefinite")


def _solve_lp(qp: QuadraticProgram) -> QpSolution:
    res = linprog(
        qp.q,
        A_ub=qp.A_in if qp.A_in.shape[0] else None,
        b_ub=qp.b_in if qp.A_in.shape[0] else None,
        A_eq=qp.A_eq if qp.A_eq.shape[0] else None,
        b_eq=qp.b_eq if qp.A_eq.shape[0] else None,
        bounds=[(None, None)] * qp.dim,
        method="highs",
    )
    if res.status == 2:
        return QpSolution(
            x_star=np.full(qp.dim, np.nan),
            objective=np.nan,
            status=PRIMAL_INFEASIBLE,
            kkt_residuals={},
        )
    if res.status == 3:
        raise SolverFailed("linear objective is unbounded below on the feasible set")
    if not res.success:
        raise SolverFailed(f"LP solve failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    lam = -np.asarray(res.ineqlin.marginals) if qp.A_in.shape[0] else np.zeros(0)
    nu = -np.asarray(res.eqlin.marginals) if qp.A_eq.shape[0] else np.zeros(0)
    active = tuple(
        int(i) for i in np.flatnonzero(qp.b_in - qp.A_in @ x <= _FEAS_TOL)
    )
    return QpSolution(
        x_star=x,
        objective=_objective(qp, x),
        status=OPTIMAL,
        kkt_residuals=_kkt_residuals(qp, x, nu, lam),
        eq_multipliers=nu,
        in_multipliers=lam,
        active_set=active,
    )


@dataclass(frozen=True)
class _Factors:
    """What the solver derives from P, A_eq and A_in alone.

    Z is an orthonormal basis of the null space of A_eq, and A_eq_pinv its
    pseudo-inverse, whose product with r is the minimum-norm solution of
    A_eq x = r (and whose transpose solves A_eq' nu = r the same way).

    The projection and the iterations use the basis Y = Z L^-T of the same
    null space, where Z'PZ = LL' is the Cholesky factorization of the reduced
    Hessian, so that Y'PY = I, and the rows AY = A_in Y. H is None then; when
    Z'PZ is singular (its factorization fails, or a pivot falls below 1e-11 of
    its largest diagonal entry) H = Z'PZ and Y = Z. tol_Y is the tolerance
    below which a row of AY counts as dependent: 1e-10 of the norm of the
    full row, scaled by how Y stretches the reduced row A_in Z."""

    Z: np.ndarray
    A_eq_pinv: np.ndarray
    Y: np.ndarray
    AY: np.ndarray
    H: np.ndarray | None
    tol_Y: np.ndarray


def _factor(qp: QuadraticProgram) -> _Factors:
    """Validate P, take one SVD of A_eq and one Cholesky factorization of Z'PZ."""
    _validate_psd(qp.P)
    A_eq, d = qp.A_eq, qp.dim
    if A_eq.shape[0] == 0:
        Z, A_eq_pinv = np.eye(d), np.zeros((d, 0))
    else:
        u, s, vt = np.linalg.svd(A_eq)
        rank = int(np.sum(s > s[0] * max(A_eq.shape) * np.finfo(float).eps))
        Z, A_eq_pinv = vt[rank:].T, (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    H = Z.T @ qp.P @ Z
    try:
        L = np.linalg.cholesky(H)
        if L.size and np.min(np.diag(L)) ** 2 <= 1e-11 * np.max(np.diag(H)):
            raise np.linalg.LinAlgError("reduced Hessian is singular")
        Y, H = solve_triangular(L, Z.T, lower=True).T, None
    except np.linalg.LinAlgError:
        Y = Z
    AY = qp.A_in @ Y
    tol = 1e-10 * np.linalg.norm(qp.A_in, axis=1)
    norm_Z = np.linalg.norm(qp.A_in @ Z, axis=1)
    tol_Y = np.divide(tol * np.linalg.norm(AY, axis=1), norm_Z, out=np.zeros_like(tol),
                      where=norm_Z > 0)
    return _Factors(Z=Z, A_eq_pinv=A_eq_pinv, Y=Y, AY=AY, H=H, tol_Y=tol_Y)


def _phase1(qp: QuadraticProgram, f: _Factors):
    """A feasible point and an empty working set, or None if certified infeasible."""
    d = qp.dim
    if qp.A_in.shape[0] == 0:
        return _project(qp, f, np.zeros(d))
    # minimize s  s.t.  A_in x - s <= b_in,  A_eq x = b_eq,  s >= 0
    c = np.zeros(d + 1)
    c[-1] = 1.0
    A_ub = np.hstack([qp.A_in, -np.ones((qp.A_in.shape[0], 1))])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=qp.b_in,
        A_eq=np.hstack([qp.A_eq, np.zeros((qp.A_eq.shape[0], 1))])
        if qp.A_eq.shape[0]
        else None,
        b_eq=qp.b_eq if qp.A_eq.shape[0] else None,
        bounds=[(None, None)] * d + [(0.0, None)],
        method="highs",
    )
    if res.status == 2:
        return None  # equality system itself is inconsistent
    if not res.success:
        raise SolverFailed(f"phase-1 LP failed: {res.message}")
    if res.x[-1] > _FEAS_TOL:
        return None  # certified: even the minimal constraint violation is positive
    return np.asarray(res.x[:d], dtype=float), _WorkingSet(f.AY, f.tol_Y)


def _project(qp: QuadraticProgram, f: _Factors, x: np.ndarray):
    """Move x onto the feasible set: return (x, working), or None.

    The minimum-norm correction puts x on the equality manifold. While a row
    is violated, the violated rows join the working set, and with its factor
    AY[held] = R'Q the step w = Q'R'^-1 (b_in - A_in x)[held] puts every held
    row at its bound: the least-norm step in the basis Y, so x + Y w is the
    correction of least P-norm (Euclidean when Y = Z). None means the
    equalities are inconsistent or a held row became dependent; the caller
    then falls back to phase 1.
    """
    if qp.A_eq.shape[0]:
        x = x + f.A_eq_pinv @ (qp.b_eq - qp.A_eq @ x)
        if np.max(np.abs(qp.A_eq @ x - qp.b_eq)) > 1e-8:
            return None
    working = _WorkingSet(f.AY, f.tol_Y)
    while qp.A_in.shape[0]:
        violated = np.flatnonzero(qp.A_in @ x - qp.b_in > _FEAS_TOL)
        if violated.size == 0:
            break
        for i in violated:
            if not working.add(i):
                return None
        Q, R = working.factors()
        r = qp.b_in[working.index] - qp.A_in[working.index] @ x
        x = x + f.Y @ (Q.T @ dtrtrs(R, r, trans=1)[0])
    return x, working


class _WorkingSet:
    """Indices of the inequality rows held active, kept linearly independent
    of each other and of the equality rows, with the factorization
    rows[index]' = Q'R: Q has orthonormal rows spanning the kept rows and R
    is upper triangular.

    A row a_i depends on the equality rows and the kept rows exactly when its
    reduced row lies in the span of the kept reduced rows, so each test is one
    projection onto Q, and a kept row extends Q and R by that projection's
    Gram-Schmidt step.
    """

    def __init__(self, rows: np.ndarray, tol: np.ndarray):
        n = rows.shape[1]
        self._rows, self._tol = rows, tol
        self._Q, self._R = np.empty((n, n)), np.zeros((n, n))
        self._stale = False
        self.index: list[int] = []

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Q and R of the kept rows. They are rebuilt by one QR after drops,
        so a run of drops costs one factorization."""
        k = len(self.index)
        if self._stale:
            q, self._R[:k, :k] = np.linalg.qr(self._rows[self.index].T)
            self._Q[:k] = q.T
            self._stale = False
        return self._Q[:k], self._R[:k, :k]

    def add(self, i: int) -> bool:
        """Keep row i if it is independent; report whether it was kept."""
        Q, _ = self.factors()
        v = self._rows[i]
        c = Q @ v
        r = v - Q.T @ c
        if np.linalg.norm(r) <= self._tol[i]:
            return False
        # A second pass restores the orthogonality one classical
        # Gram-Schmidt pass loses on nearly parallel rows.
        c2 = Q @ r
        r = r - Q.T @ c2
        k, rho = len(self.index), np.linalg.norm(r)
        self._Q[k], self._R[:k, k], self._R[k, k] = r / rho, c + c2, rho
        self.index.append(int(i))
        return True

    def drop(self, k: int) -> None:
        """Release the k-th kept row."""
        del self.index[k]
        self._stale = True

    def multipliers(self, g: np.ndarray) -> np.ndarray:
        """The least-squares solution of rows[index]' lam = -g, from R lam = -Q g."""
        Q, R = self.factors()
        return dtrtrs(R, -(Q @ g))[0] if self.index else np.zeros(0)


def _eqp_direction(f: _Factors, working: _WorkingSet, g: np.ndarray):
    """Solve the equality subproblem  min 0.5 p'(Y'PY)p + g'p  s.t.  C p = 0,
    where C = AY[working.index] and g is the gradient in the basis Y.

    Returns (p, lam, is_ray): lam are the working-row multipliers (None when
    the reduced Hessian is singular), and is_ray flags a direction of linear
    descent along which the subproblem is unbounded. With Y'PY = I the
    minimizer is -g projected off the working rows, and R lam = -Q g.
    """
    Q, _ = working.factors()
    if f.H is None:
        return Q.T @ (Q @ g) - g, working.multipliers(g), False
    # Singular reduced Hessian (Y = Z): minimize on the complement of Q
    # explicitly, by eigh.
    W = np.linalg.svd(Q)[2][Q.shape[0]:].T
    if W.shape[1] == 0:
        return np.zeros(g.size), None, False
    evals, evecs = np.linalg.eigh(W.T @ f.H @ W)
    ch = evecs.T @ (W.T @ g)
    eps_h = 1e-11 * max(1.0, float(evals.max(initial=0.0)))
    eps_c = 1e-9 * max(1.0, float(np.max(np.abs(g))))
    flat = evals <= eps_h
    descent = flat & (np.abs(ch) > eps_c)
    if np.any(descent):
        ray = W @ (evecs @ np.where(descent, -ch, 0.0))
        return ray / np.linalg.norm(ray), None, True
    v = np.where(flat, 0.0, -ch / np.where(flat, 1.0, evals))
    return W @ (evecs @ v), None, False


def _active_set(qp, f, x, working, max_iter):
    """Primal active-set iterations in the null space of A_eq, from the
    feasible point x and the working set its start holds, which the other rows
    at their bounds join in index order. Returns (x, lam, status, iterations,
    working). The gradient g = Y'(Px + q) and the slacks b_in - A_in x are
    updated along each step, so the full-space products run once per solve."""
    m_i = qp.A_in.shape[0]
    Y, AY = f.Y, f.AY
    slack = qp.b_in - qp.A_in @ x
    g = Y.T @ (qp.P @ x + qp.q)
    for i in np.flatnonzero(slack <= 1e-9):
        if i not in working.index:
            working.add(i)

    status = MAX_ITERATIONS
    iterations = 0
    lam = np.zeros(m_i)
    for iterations in range(1, max_iter + 1):
        w, lam_w, is_ray = _eqp_direction(f, working, g)
        p = Y @ w
        step_scale = max(1.0, float(np.max(np.abs(x))))
        if is_ray or np.max(np.abs(p)) > 1e-11 * step_scale:
            # Ratio test against the non-working inequalities; the lowest
            # index wins a tie.
            alpha = np.inf if is_ray else 1.0
            blocking = -1
            Ap = AY @ w
            if m_i:
                ahead = Ap > 1e-13
                ahead[working.index] = False
                ratio = np.full(m_i, np.inf)
                r = np.maximum(slack, 0.0)
                ratio[ahead] = r[ahead] / Ap[ahead]
                i = int(np.argmin(ratio))
                if ratio[i] < alpha - 1e-15:
                    alpha, blocking = float(ratio[i]), i
            if is_ray and blocking < 0:
                raise SolverFailed("objective is unbounded below on the feasible set")
            x = x + alpha * p
            slack = slack - alpha * Ap
            g = g + alpha * (w if f.H is None else f.H @ w)
            if blocking >= 0:
                if not working.add(blocking):
                    # Dependent blocking row: swap it in for a dependent
                    # partner by dropping the working row with the smallest
                    # multiplier. With Y'PY = I the step left Q g, and so
                    # the multipliers, unchanged.
                    lam_now = working.multipliers(g) if lam_w is None else lam_w
                    if lam_now.size:
                        working.drop(int(np.argmin(lam_now)))
                    working.add(blocking)
                continue
        # x now minimizes over the working set: either the step vanished, or
        # the full unblocked step landed on the minimizer, where the
        # multipliers are those of the step's subproblem. Testing them right
        # after a full step, instead of waiting for the next direction to
        # vanish, avoids spinning forever on ill-conditioned problems whose
        # computed steps never drop below the zero-direction threshold.
        if lam_w is None:
            lam_w = working.multipliers(g)
        if lam_w.size == 0 or np.min(lam_w) >= -_MULT_TOL:
            lam[working.index] = np.maximum(lam_w, 0.0)
            status = OPTIMAL
            break
        working.drop(int(np.argmin(lam_w)))
    return x, lam, status, iterations, working.index


def solve(
    qp: QuadraticProgram,
    max_iter: int = 500,
    x0: np.ndarray | None = None,
) -> QpSolution:
    """Solve a convex QP with a null-space primal active-set method.

    `x0` is an optional warm start; correctness never depends on it: a warm
    start that cannot be projected onto the feasible set falls back to
    phase 1.

    Raises NonConvex when P fails the PSD validation (eigenvalues below
    -1e-10 relative to scale), which runs once per problem with its other
    factors.
    """
    if not np.any(qp.P):
        return _solve_lp(qp)

    f = qp.factors
    start = None
    if x0 is not None:
        start = _project(qp, f, np.array(x0, dtype=float).ravel())
    if start is None:
        start = _phase1(qp, f)
        if start is None:
            return QpSolution(
                x_star=np.full(qp.dim, np.nan),
                objective=np.nan,
                status=PRIMAL_INFEASIBLE,
                kkt_residuals={},
            )

    x, lam, status, iterations, working = _active_set(qp, f, *start, max_iter)
    nu = np.zeros(qp.A_eq.shape[0])
    if status == OPTIMAL:
        nu = -f.A_eq_pinv.T @ (qp.P @ x + qp.q + qp.A_in.T @ lam)

    return QpSolution(
        x_star=x,
        objective=_objective(qp, x),
        status=status,
        kkt_residuals=_kkt_residuals(qp, x, nu, lam),
        iterations=iterations,
        eq_multipliers=nu,
        in_multipliers=lam,
        active_set=tuple(sorted(working)),
    )
