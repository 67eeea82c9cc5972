"""Dense convex quadratic programming with certified KKT residuals.

Problems have the form

    minimize    0.5 x'Px + q'x
    subject to  A_eq x  = b_eq
                A_in x <= b_in

and are solved by a null-space primal active-set method. Everything the solver
derives from P, A_eq and A_in (the PSD check, one SVD of A_eq giving an
orthonormal null basis Z and the pseudo-inverse, the reduced Hessian Z'PZ and
the reduced rows A_in Z) is computed once per problem, on first use, and stays
valid while q, b_eq and b_in change. The iterations work on the reduced
variables x = x_feas + Z v, where the KKT systems hold only the working
inequality rows and Z'PZ. A warm start is projected onto the equalities, then
the inequality rows it violates are held at their bounds by minimum-norm steps
in the null space; the held rows, active there, seed the working set. A
feasible start is otherwise produced by a phase-1 linear program (HiGHS),
whose optimal slack also certifies primal infeasibility. Pure linear programs
(P = 0) are dispatched to HiGHS directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"
MAX_ITERATIONS = "MaxIterations"

_FEAS_TOL = 1e-9


class NonConvex(Exception):
    """The quadratic term has a negative eigenvalue beyond tolerance."""


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
    stat = qp.P @ x + qp.q
    if qp.A_eq.shape[0]:
        stat = stat + qp.A_eq.T @ nu
    if qp.A_in.shape[0]:
        stat = stat + qp.A_in.T @ lam
    r_in = qp.A_in @ x - qp.b_in if qp.A_in.shape[0] else np.zeros(0)
    r_eq = qp.A_eq @ x - qp.b_eq if qp.A_eq.shape[0] else np.zeros(0)
    return {
        "stationarity": float(np.max(np.abs(stat))) if stat.size else 0.0,
        "primal_eq": float(np.max(np.abs(r_eq))) if r_eq.size else 0.0,
        "primal_in": float(max(np.max(r_in), 0.0)) if r_in.size else 0.0,
        "complementarity": float(np.max(np.abs(lam * r_in))) if r_in.size else 0.0,
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
        raise RuntimeError("linear objective is unbounded below on the feasible set")
    if not res.success:
        raise RuntimeError(f"LP solve failed: {res.message}")
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
    A_eq x = r (and whose transpose solves A_eq' nu = r the same way). H = Z'PZ
    is the reduced Hessian, AZ = A_in Z holds the reduced inequality rows and
    row_norms the norms of the full rows."""

    Z: np.ndarray
    A_eq_pinv: np.ndarray
    H: np.ndarray
    AZ: np.ndarray
    row_norms: np.ndarray


def _factor(qp: QuadraticProgram) -> _Factors:
    """Validate P and take one SVD of A_eq."""
    _validate_psd(qp.P)
    A_eq, d = qp.A_eq, qp.dim
    if A_eq.shape[0] == 0:
        Z, A_eq_pinv = np.eye(d), np.zeros((d, 0))
    else:
        u, s, vt = np.linalg.svd(A_eq)
        rank = int(np.sum(s > s[0] * max(A_eq.shape) * np.finfo(float).eps))
        Z, A_eq_pinv = vt[rank:].T, (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    H = Z.T @ qp.P @ Z
    return _Factors(Z=Z, A_eq_pinv=A_eq_pinv, H=0.5 * (H + H.T), AZ=qp.A_in @ Z,
                    row_norms=np.linalg.norm(qp.A_in, axis=1))


def _phase1(qp: QuadraticProgram, f: _Factors):
    """Feasible point, or None when infeasibility is certified."""
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
        raise RuntimeError(f"phase-1 LP failed: {res.message}")
    if res.x[-1] > _FEAS_TOL:
        return None  # certified: even the minimal constraint violation is positive
    return np.asarray(res.x[:d], dtype=float)


def _project(qp: QuadraticProgram, f: _Factors, x: np.ndarray):
    """Move x onto the feasible set, or return None.

    The minimum-norm correction puts x on the equality manifold. While an
    inequality row is violated, the violated rows join the held rows, and a
    minimum-norm step v in the null space of A_eq, solving
    (A_in Z)[held] v = b_in[held] - A_in[held] x, puts every held row at its
    bound, so the held rows are active at the returned point and enter the
    initial working set. None means the equalities are inconsistent or the
    held rows became dependent; the caller then falls back to phase 1.
    """
    if qp.A_eq.shape[0]:
        x = x + f.A_eq_pinv @ (qp.b_eq - qp.A_eq @ x)
        if np.max(np.abs(qp.A_eq @ x - qp.b_eq)) > 1e-8:
            return None
    working = _WorkingSet(f.AZ, f.row_norms)
    while qp.A_in.shape[0]:
        violated = np.flatnonzero(qp.A_in @ x - qp.b_in > _FEAS_TOL)
        if violated.size == 0:
            break
        for i in violated:
            if not working.add(i):
                return None
        held = working.index
        v = np.linalg.lstsq(f.AZ[held], qp.b_in[held] - qp.A_in[held] @ x, rcond=None)[0]
        x = x + f.Z @ v
    return x


class _WorkingSet:
    """Indices of the inequality rows held active, kept linearly independent
    of each other and of the equality rows.

    A row a_i depends on the equality rows and the kept rows exactly when its
    reduced row a_i Z lies in the span of the kept reduced rows, so each test
    is one projection onto an orthonormal basis of those rows.
    """

    def __init__(self, rows: np.ndarray, row_norms: np.ndarray):
        self._rows = rows
        self._tol = 1e-10 * row_norms
        self._basis = np.zeros((0, rows.shape[1]))
        self.index: list[int] = []

    def add(self, i: int) -> bool:
        """Keep row i if it is independent; report whether it was kept."""
        if self._basis is None:
            self._basis = np.linalg.qr(self._rows[self.index].T)[0].T
        v = self._rows[i]
        r = v - self._basis.T @ (self._basis @ v)
        norm = float(np.linalg.norm(r))
        if norm <= self._tol[i]:
            return False
        # A second pass restores the orthogonality one classical
        # Gram-Schmidt pass loses on nearly parallel rows.
        r = r - self._basis.T @ (self._basis @ r)
        self._basis = np.vstack([self._basis, r / np.linalg.norm(r)])
        self.index.append(int(i))
        return True

    def drop(self, k: int) -> None:
        """Release the k-th working row. The basis is rebuilt at the next
        add, so a run of drops costs one factorization."""
        del self.index[k]
        self._basis = None


def _eqp_direction(H, C, c):
    """Solve the reduced equality subproblem  min 0.5 p'Hp + c'p  s.t.  C p = 0.

    Returns (p, lam, is_ray): lam are the working-row multipliers from the KKT
    solve (None when the fallback ran), and is_ray flags a direction of
    linear descent along which the subproblem is unbounded.
    """
    n, m = H.shape[0], C.shape[0]
    kkt = np.block([[H, C.T], [C, np.zeros((m, m))]])
    rhs = np.concatenate([-c, np.zeros(m)])
    try:
        sol = np.linalg.solve(kkt, rhs)
        resid = np.max(np.abs(kkt @ sol - rhs))
        if resid <= 1e-7 * max(1.0, np.max(np.abs(rhs))):
            return sol[:n], sol[n:], False
    except np.linalg.LinAlgError:
        pass
    # Singular reduced Hessian on the null space of the working rows: solve
    # there explicitly (deterministic via SVD/eigh). The working rows are
    # independent, so C has full row rank and its null basis is vt[m:].
    W = np.linalg.svd(C)[2][m:].T
    if W.shape[1] == 0:
        return np.zeros(n), None, False
    evals, evecs = np.linalg.eigh(W.T @ H @ W)
    ch = evecs.T @ (W.T @ c)
    eps_h = 1e-11 * max(1.0, float(evals.max(initial=0.0)))
    eps_c = 1e-9 * max(1.0, float(np.max(np.abs(c))))
    flat = evals <= eps_h
    descent = flat & (np.abs(ch) > eps_c)
    if np.any(descent):
        ray = W @ (evecs @ np.where(descent, -ch, 0.0))
        return ray / np.linalg.norm(ray), None, True
    v = np.where(flat, 0.0, -ch / np.where(flat, 1.0, evals))
    return W @ (evecs @ v), None, False


def _active_set(qp, f, x, tol, max_iter, active0):
    """Primal active-set iterations in the null space of A_eq, from the
    feasible point x. Returns (x, lam, status, iterations, working)."""
    m_i = qp.A_in.shape[0]
    Z, H, AZ = f.Z, f.H, f.AZ

    # Initial working set: constraints active at x, warm-start indices first.
    resid = qp.b_in - qp.A_in @ x
    active_now = set(np.flatnonzero(resid <= 1e-9).tolist())
    ordered = [i for i in active0 if i in active_now] if active0 else []
    ordered.extend(i for i in sorted(active_now) if i not in set(ordered))
    working = _WorkingSet(AZ, f.row_norms)
    for i in ordered:
        working.add(i)

    status = MAX_ITERATIONS
    iterations = 0
    lam = np.zeros(m_i)
    for iterations in range(1, max_iter + 1):
        C = AZ[working.index]
        p_z, lam_w, is_ray = _eqp_direction(H, C, Z.T @ (qp.P @ x + qp.q))
        p = Z @ p_z
        step_scale = max(1.0, float(np.max(np.abs(x))))
        if is_ray or np.max(np.abs(p)) > 1e-11 * step_scale:
            # Ratio test against the non-working inequalities; the lowest
            # index wins a tie.
            alpha = np.inf if is_ray else 1.0
            blocking = -1
            if m_i:
                Ap = AZ @ p_z
                ahead = Ap > 1e-13
                ahead[working.index] = False
                ratio = np.full(m_i, np.inf)
                r = np.maximum(qp.b_in - qp.A_in @ x, 0.0)
                ratio[ahead] = r[ahead] / Ap[ahead]
                i = int(np.argmin(ratio))
                if ratio[i] < alpha - 1e-15:
                    alpha, blocking = float(ratio[i]), i
            if is_ray and blocking < 0:
                raise RuntimeError("objective is unbounded below on the feasible set")
            x = x + alpha * p
            if blocking >= 0:
                if not working.add(blocking):
                    # Dependent blocking row: swap it in for a dependent
                    # partner by dropping the working row with the smallest
                    # multiplier.
                    lam_now = _multipliers(C, Z.T @ (qp.P @ x + qp.q))
                    if lam_now.size:
                        working.drop(int(np.argmin(lam_now)))
                    working.add(blocking)
                continue
        # x now minimizes over the working set: either the step vanished, or
        # the full unblocked step landed on the minimizer (the KKT solve
        # gives stationarity at x + p). Testing multipliers right after a
        # full step, instead of waiting for the next direction to vanish,
        # avoids spinning forever on ill-conditioned KKT systems whose
        # computed steps never drop below the zero-direction threshold.
        if lam_w is None:
            lam_w = _multipliers(C, Z.T @ (qp.P @ x + qp.q))
        if lam_w.size == 0 or np.min(lam_w) >= -tol:
            lam[working.index] = np.maximum(lam_w, 0.0)
            status = OPTIMAL
            break
        working.drop(int(np.argmin(lam_w)))
    return x, lam, status, iterations, working.index


def _multipliers(C, c):
    """Minimum-norm working-row multipliers solving C' lam = -c."""
    if C.shape[0] == 0:
        return np.zeros(0)
    lam, *_ = np.linalg.lstsq(C.T, -c, rcond=None)
    return lam


def solve(
    qp: QuadraticProgram,
    tol: float = 1e-8,
    max_iter: int = 500,
    x0: np.ndarray | None = None,
    active0=None,
) -> QpSolution:
    """Solve a convex QP with a null-space primal active-set method.

    `x0`/`active0` are optional warm starts (a candidate point and the
    inequality indices expected active at the optimum); correctness never
    depends on them — a warm start that cannot be projected onto the
    feasible set falls back to phase 1.

    Raises NonConvex when P fails the PSD validation (eigenvalues below
    -1e-10 relative to scale), which runs once per problem with its other
    factors.
    """
    if not np.any(qp.P):
        return _solve_lp(qp)

    f = qp.factors
    x = None
    if x0 is not None:
        x = _project(qp, f, np.array(x0, dtype=float).ravel())
    if x is None:
        x = _phase1(qp, f)
        if x is None:
            return QpSolution(
                x_star=np.full(qp.dim, np.nan),
                objective=np.nan,
                status=PRIMAL_INFEASIBLE,
                kkt_residuals={},
            )

    if f.Z.shape[1]:
        x, lam, status, iterations, working = _active_set(qp, f, x, tol, max_iter, active0)
    else:
        # A_eq has full column rank: the feasible x is the only feasible
        # point, hence optimal, and no inequality needs a multiplier.
        lam, status, iterations, working = np.zeros(qp.A_in.shape[0]), OPTIMAL, 0, []
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
