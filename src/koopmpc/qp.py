"""Dense convex quadratic programming with certified results.

Problems have the form

    minimize    0.5 x'Px + q'x
    subject to  A_eq x  = b_eq
                A_in x <= b_in

with P positive definite on the null space of A_eq. Everything the solver
derives from P, A_eq and A_in (the PSD check, one SVD of A_eq giving an
orthonormal null basis Z and the pseudo-inverse, the Cholesky factorization
Z'PZ = LL' and the reduced rows) is computed once per problem, on first use,
and stays valid while q, b_eq and b_in change. A singular Z'PZ raises
SolverFailed when it is factored.

In the basis Y = Z L^-T, where the reduced Hessian is the identity, the QP is
a least-distance program: with x_p = A_eq^+ b_eq, g = Y'(P x_p + q) and
x = x_p + Y(v - g), it reads  minimize |v|  subject to  G v >= f, where
G = -A_in Y and f = A_in x_p - b_in - A_in Y g. Lawson & Hanson (Solving Least
Squares Problems, 1974, ch. 23) solve it by one nonnegative least-squares
(NNLS) problem on E = [G'; f']: its solution u and residual r = Eu - e_{n+1}
give either the optimum v = -r[:n]/r[n] with multipliers u/|r|^2, or, when
r = 0, a Farkas vector u >= 0 with G'u = 0 and f'u = 1. Each is checked in the
full space before a status is returned. The optimum must have KKT residuals
within 1e-8 of the data's scale. The Farkas vector, with
mu = -(A_eq^+)'A_in'u, must give A_in'u + A_eq'mu = 0 to a scaled tolerance
and b_in'u + b_eq'mu < 0, which no feasible x allows. Inconsistent equalities
are certified by the least-squares residual of x_p. Anything else raises
SolverFailed. Pure linear programs (P = 0) are dispatched to HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import linprog, nnls

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"

_FEAS_TOL = 1e-9
_KKT_TOL = 1e-8


class NonConvex(Exception):
    """The quadratic term has a negative eigenvalue beyond tolerance."""


class SolverFailed(RuntimeError):
    """A QP could not be solved: an LP failed or is unbounded, the reduced
    Hessian is singular, or NNLS gave no result that passes its check."""


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


def _infeasible(qp: QuadraticProgram) -> QpSolution:
    return QpSolution(
        x_star=np.full(qp.dim, np.nan),
        objective=np.nan,
        status=PRIMAL_INFEASIBLE,
        kkt_residuals={},
    )


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
        return _infeasible(qp)
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

    A_eq_pinv is the pseudo-inverse of A_eq, whose product with r is the
    minimum-norm solution of A_eq x = r (and whose transpose solves
    A_eq' nu = r the same way). Y = Z L^-T, where Z is an orthonormal basis of
    the null space of A_eq and Z'PZ = LL' the Cholesky factorization of the
    reduced Hessian, spans the same null space with Y'PY = I; AY = A_in Y."""

    A_eq_pinv: np.ndarray
    Y: np.ndarray
    AY: np.ndarray


def _factor(qp: QuadraticProgram) -> _Factors:
    """Validate P, take one SVD of A_eq and one Cholesky factorization of Z'PZ.

    Raises SolverFailed when Z'PZ is singular: its factorization fails, or a
    pivot falls below 1e-11 of its largest diagonal entry."""
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
    except np.linalg.LinAlgError:
        L = None
    if L is None or (L.size and np.min(np.diag(L)) ** 2 <= 1e-11 * np.max(np.diag(H))):
        raise SolverFailed(
            "reduced Hessian Z'PZ is singular: P must be positive definite on the "
            "null space of A_eq"
        )
    Y = solve_triangular(L, Z.T, lower=True).T
    return _Factors(A_eq_pinv=A_eq_pinv, Y=Y, AY=qp.A_in @ Y)


def _certify_infeasible(qp: QuadraticProgram, f: _Factors, u: np.ndarray) -> QpSolution:
    """The PrimalInfeasible solution once u >= 0 and mu = -(A_eq^+)'A_in'u pass
    the Farkas check, else SolverFailed. A_in'u + A_eq'mu = 0 and
    b_in'u + b_eq'mu < 0 would give 0 = (A_in'u + A_eq'mu)'x <= b_in'u + b_eq'mu < 0
    for any feasible x. Both hold to 1e-9 of the size of the terms summed."""
    a = qp.A_in.T @ u
    mu = -f.A_eq_pinv.T @ a
    residual = np.max(np.abs(a + qp.A_eq.T @ mu))
    gap = qp.b_in @ u + qp.b_eq @ mu
    a_scale = max(1.0, float(np.max(np.abs(qp.A_in).T @ u)))
    b_scale = max(1.0, float(np.abs(qp.b_in) @ u + np.abs(qp.b_eq) @ np.abs(mu)))
    if np.min(u) >= 0.0 and residual <= 1e-9 * a_scale and gap < -1e-9 * b_scale:
        return _infeasible(qp)
    raise SolverFailed(
        f"NNLS gave neither a checked optimum nor a Farkas vector "
        f"(residual {residual:.3g}, gap {gap:.3g})"
    )


def solve(qp: QuadraticProgram) -> QpSolution:
    """Solve a convex QP, with P positive definite on the null space of A_eq,
    by one NNLS solve of its least-distance form; LPs (P = 0) go to HiGHS.

    Returns an Optimal solution whose KKT residuals passed their check, or a
    PrimalInfeasible one certified by a checked Farkas vector (or by the
    residual of inconsistent equalities). Raises NonConvex when P fails the
    PSD validation (eigenvalues below -1e-10 relative to scale), and
    SolverFailed when Z'PZ is singular, NNLS reaches its iteration limit, or
    neither result passes its check.
    """
    if not np.any(qp.P):
        return _solve_lp(qp)

    f = qp.factors
    x_p = f.A_eq_pinv @ qp.b_eq
    tol = _KKT_TOL * max(1.0, *(float(np.max(np.abs(b), initial=0.0))
                                for b in (qp.q, qp.b_eq, qp.b_in)))
    if np.max(np.abs(qp.A_eq @ x_p - qp.b_eq), initial=0.0) > tol:
        return _infeasible(qp)  # the least-squares residual of A_eq x = b_eq
    g = f.Y.T @ (qp.P @ x_p + qp.q)
    n, m = g.size, qp.A_in.shape[0]
    v, lam = np.zeros(n), np.zeros(m)
    if m:  # nnls on a matrix with no columns aborts the process
        E = np.vstack([-f.AY.T, qp.A_in @ x_p - qp.b_in - f.AY @ g])
        e = np.zeros(n + 1)
        e[n] = 1.0
        try:
            u = nnls(E, e)[0]
        except RuntimeError as exc:
            raise SolverFailed(f"NNLS solve of the least-distance program failed: {exc}") from exc
        r = E @ u - e
        if r[n] >= 0.0:  # r = 0 to rounding: u is the only result
            return _certify_infeasible(qp, f, u)
        # At the NNLS optimum |r|^2 = -r[n]; dividing by -r[n] keeps v = G'lam exact.
        v, lam = -r[:n] / r[n], -u / r[n]

    x = x_p + f.Y @ (v - g)
    nu = -f.A_eq_pinv.T @ (qp.P @ x + qp.q + qp.A_in.T @ lam)
    kkt = _kkt_residuals(qp, x, nu, lam)
    if not all(value <= tol for value in kkt.values()):
        if m:
            return _certify_infeasible(qp, f, u)
        raise SolverFailed(f"QP solution failed its KKT check: {kkt}")
    return QpSolution(
        x_star=x,
        objective=_objective(qp, x),
        status=OPTIMAL,
        kkt_residuals=kkt,
        eq_multipliers=nu,
        in_multipliers=lam,
        active_set=tuple(int(i) for i in np.flatnonzero(lam)),
    )
