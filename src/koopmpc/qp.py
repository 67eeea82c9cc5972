"""Dense convex quadratic programming with certified results.

Problems have the form

    minimize    0.5 x'Px + q'x
    subject to  A_eq x  = b_eq
                A_in x <= b_in

with P positive definite on the null space of A_eq (P itself may be
indefinite). Everything the solver derives from P, A_eq and A_in (one SVD of
A_eq giving an orthonormal null basis Z and the pseudo-inverse, the Cholesky
factorization Z'PZ = LL' and the reduced rows) is computed once per problem,
on first use, and stays valid while q, b_eq and b_in change. That Cholesky
factorization is the one check of the contract: a Z'PZ that is not positive
definite, as for P = 0, raises SolverFailed.

In the basis Y = Z L^-T, where the reduced Hessian is the identity, the QP is
a least-distance program: with x_p = A_eq^+ b_eq, g = Y'(P x_p + q) and
x = x_p + Y(v - g), it reads  minimize |v|  subject to  G v >= f, where
G = -A_in Y and f = A_in x_p - b_in - A_in Y g. Lawson & Hanson (Solving Least
Squares Problems, 1974, ch. 23) solve it by one nonnegative least-squares
(NNLS) problem on E = [G'; f']: its solution u and residual r = Eu - e_{n+1}
give either the optimum v = -r[:n]/r[n] with multipliers u/|r|^2, or, when
r = 0, a Farkas vector u >= 0 with G'u = 0 and f'u = 1. Each is checked in the
full space before a status is returned. The optimum must have its
stationarity, equality and complementarity residuals within 1e-8 of the
data's scale and break no inequality row by more than 1e-9 of max(1, |b_in|)
of that row, none NaN; one product with [P; A_in; A_eq] gives Px, A_in x and
A_eq x, and the multipliers act on the support rows only.
The Farkas vector, with mu = -(A_eq^+)'A_in'u, must give A_in'u + A_eq'mu = 0
to a scaled tolerance and b_in'u + b_eq'mu < 0, which no feasible x allows;
the result carries u and mu as its in_multipliers and eq_multipliers.
Inconsistent equalities (possible only for a rank-deficient A_eq) are
certified by the least-squares residual of x_p, with no multipliers.
Anything else raises SolverFailed.

A row of A_in whose row of A_in Y is zero to rounding is one that no step in
the null space of A_eq moves, such as a bound on a variable the equalities
pin: x_p alone decides it. Its column of E would be zero too, and NNLS could
put any weight on it, so NNLS runs on the other columns only. The most
violated such row, when it exceeds its offset by more than 1e-9 of
max(1, |b_in|), is certified by its own Farkas vector; a smaller excess is
rounding, left to the full-space check.

Each QuadraticProgram keeps the support of its last Optimal solve, the rows
with positive NNLS weight (no row before the first), and the next solve
tries it before NNLS: the least squares on those columns of E alone, one
|S| x |S| Cholesky solve, is taken only where its weights are positive and
its result passes the same full-space check, which is Lawson and Hanson's
optimality test on the other columns. So the stored support can make a solve
faster but never changes which results are accepted. A miss costs that
failed attempt on top of the NNLS solve, whose own support then goes through
the same support solve, so that a warm and a cold solve agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dposv
from scipy.optimize import nnls

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"

_FEAS_TOL = 1e-9
_KKT_TOL = 1e-8


class SolverFailed(RuntimeError):
    """A QP could not be solved: the reduced Hessian Z'PZ is not positive
    definite, or NNLS gave no result that passes its check."""


@dataclass
class QuadraticProgram:
    """Convex QP data. P is symmetrized on construction; empty constraint
    blocks are normalized to 0-row matrices so downstream code never branches
    on None. P, A_eq and A_in are private read-only copies, since the solver's
    factors of them are kept; q, b_eq and b_in may be rewritten in place.
    The solver also keeps here the support of the last Optimal solve."""

    P: np.ndarray
    q: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    _support: "_Support | None" = field(default=None, init=False, repr=False, compare=False)

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


def _kkt_residuals(qp, f: "_Factors", S: "_Support", x, lam_S):
    """KKT residuals of x, lam_S on the rows S and nu = -(A_eq^+)'(Px + q + A_in'lam), Px, nu.
    ``primal_in`` is the largest excess of a row of A_in x over b_in in units of
    max(1, |b_in|) of that row; the other three are absolute."""
    d, m, amax = qp.dim, qp.b_in.size, np.maximum.reduce
    PAx = f.PA @ x  # Px, A_in x, A_eq x
    Px, r_in, r_eq = PAx[:d], PAx[d : d + m] - qp.b_in, PAx[d + m :] - qp.b_eq
    grad = Px + qp.q + S.A_in.T @ lam_S
    nu = f.neg_pinv_T @ grad
    return {
        "stationarity": float(amax(np.abs(grad + qp.A_eq.T @ nu), initial=0.0)),
        "primal_eq": float(amax(np.abs(r_eq), initial=0.0)),
        "primal_in": float(amax(r_in / np.maximum(1.0, np.abs(qp.b_in)), initial=0.0)),
        "complementarity": float(amax(np.abs(lam_S * r_in[S.rows]), initial=0.0)),
    }, Px, nu


def _infeasible(qp: QuadraticProgram, u=None, mu=None) -> QpSolution:
    """A PrimalInfeasible result, with its checked Farkas pair (u, mu) if any."""
    return QpSolution(x_star=np.full(qp.dim, np.nan), objective=np.nan, status=PRIMAL_INFEASIBLE,
                      kkt_residuals={}, eq_multipliers=mu, in_multipliers=u)


@dataclass(frozen=True)
class _Factors:
    """What the solver derives from P, A_eq and A_in alone.

    A_eq_pinv is the pseudo-inverse of A_eq, whose product with r is the
    minimum-norm solution of A_eq x = r (and whose transpose solves
    A_eq' nu = r the same way); neg_pinv_T = -A_eq_pinv' and PA = [P; A_in;
    A_eq]. Y = Z L^-T, where Z is an orthonormal basis of the null space of
    A_eq and Z'PZ = LL' the Cholesky factorization of the reduced Hessian,
    spans the same null space with Y'PY = I; AY = A_in Y.
    Only a rank-deficient A_eq admits inconsistent right-hand sides. ``fixed``
    lists the rows of A_in whose row of AY is zero to rounding (1e-12 of the
    largest), and ``free`` the others."""

    A_eq_pinv: np.ndarray
    neg_pinv_T: np.ndarray
    PA: np.ndarray
    Y: np.ndarray
    AY: np.ndarray
    rank_deficient: bool
    free: np.ndarray
    fixed: np.ndarray


def _factor(qp: QuadraticProgram) -> _Factors:
    """Take one SVD of A_eq and one Cholesky factorization of Z'PZ.

    Raises SolverFailed when Z'PZ is not positive definite: its factorization
    fails (an indefinite or zero Z'PZ), or a pivot falls below 1e-11 of its
    largest diagonal entry (a singular one)."""
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
            "reduced Hessian Z'PZ is singular or indefinite: P must be positive "
            "definite on the null space of A_eq"
        )
    Y = solve_triangular(L, Z.T, lower=True).T
    AY = qp.A_in @ Y
    reach = np.max(np.abs(AY), axis=1, initial=0.0)
    moves = reach > 1e-12 * np.max(reach, initial=1.0)
    return _Factors(A_eq_pinv=A_eq_pinv, neg_pinv_T=np.ascontiguousarray(-A_eq_pinv.T),
                    PA=np.vstack((qp.P, qp.A_in, A_eq)), Y=Y, AY=AY,
                    rank_deficient=Z.shape[1] + A_eq.shape[0] > d,
                    free=np.flatnonzero(moves), fixed=np.flatnonzero(~moves))


def _farkas(qp: QuadraticProgram, f: _Factors, u: np.ndarray) -> np.ndarray | None:
    """mu = -(A_eq^+)'A_in'u if u >= 0 and mu pass the Farkas check, else None.
    A_in'u + A_eq'mu = 0 and b_in'u + b_eq'mu < 0 would give
    0 = (A_in'u + A_eq'mu)'x <= b_in'u + b_eq'mu < 0 for any feasible x. Both
    hold to 1e-9 of the size of the terms summed."""
    a = qp.A_in.T @ u
    mu = f.neg_pinv_T @ a
    residual = np.max(np.abs(a + qp.A_eq.T @ mu))
    gap = qp.b_in @ u + qp.b_eq @ mu
    a_scale = max(1.0, float(np.max(np.abs(qp.A_in).T @ u)))
    b_scale = max(1.0, float(np.abs(qp.b_in) @ u + np.abs(qp.b_eq) @ np.abs(mu)))
    return mu if np.min(u) >= 0.0 and residual <= 1e-9 * a_scale and gap < -1e-9 * b_scale else None


@dataclass(frozen=True)
class _Support:
    """Rows S of E's columns with what their support solve and its check
    need: AY_S = (A_in Y)[S], its Gram matrix AY_S AY_S' and A_in[S]."""

    rows: np.ndarray
    AY: np.ndarray
    gram: np.ndarray
    A_in: np.ndarray


def _support(f: _Factors, rows: np.ndarray) -> _Support:
    AY = f.AY[rows]  # A_in's rows of PA start at row d = len(Y)
    return _Support(rows=rows, AY=AY, gram=AY @ AY.T, A_in=f.PA[len(f.Y) + rows])


_NO_ROWS = np.zeros(0, dtype=np.intp)


def _checked(qp, f, x_p, g, tol, S: _Support, u, h_S) -> QpSolution | None:
    """The checked solution of the NNLS weights u on the columns S of E, or
    None. The residual r = Eu - e is (-AY_S'u, h_S'u - 1). r[n] < 0 gives the
    optimum v = -r[:n]/r[n] with multipliers u/|r|^2 (at the NNLS optimum
    |r|^2 = -r[n], and dividing by -r[n] keeps v = G'lam exact); it is
    returned if its KKT residuals pass. Column j's NNLS gradient is
    |r|^2 (A_in x - b_in)_j, so the primal check is also Lawson and Hanson's
    optimality test on the columns outside S. Otherwise u is returned as
    PrimalInfeasible if it passes the Farkas check."""
    lam = np.zeros(qp.A_in.shape[0])
    r_n = h_S @ u - 1.0
    if r_n < 0.0:
        lam_S = -u / r_n
        x = x_p + f.Y @ (S.AY.T @ u / r_n - g)
        kkt, Px, nu = _kkt_residuals(qp, f, S, x, lam_S)
        # primal_in takes the fixed rows' per-row rule; a NaN residual fails.
        if all(value <= (_FEAS_TOL if key == "primal_in" else tol) for key, value in kkt.items()):
            lam[S.rows] = lam_S
            return QpSolution(x_star=x, objective=float(0.5 * x @ Px + qp.q @ x), status=OPTIMAL,
                              kkt_residuals=kkt, eq_multipliers=nu, in_multipliers=lam,
                              active_set=tuple(S.rows.tolist()))
    lam[S.rows] = u
    mu = _farkas(qp, f, lam) if lam.size else None
    return None if mu is None else _infeasible(qp, lam, mu)


def _on_support(qp, f, x_p, g, h, tol, S: _Support) -> QpSolution | None:
    """The support solve: least squares on E's columns S only, that is
    (AY_S AY_S' + h_S h_S') u_S = h_S by one Cholesky factorization, taken
    only where u_S > 0 and its result passes its check."""
    h_S = u = h[S.rows]  # with no row, u is empty
    if S.rows.size:
        _, u, info = dposv(S.gram + h_S[:, None] * h_S, h_S)
        if info or not u.min() > 0.0:
            return None
    return _checked(qp, f, x_p, g, tol, S, u, h_S)


def solve(qp: QuadraticProgram) -> QpSolution:
    """Solve a QP with P positive definite on the null space of A_eq by its
    least-distance form.

    The support of the QP's last Optimal solve (at first, no row) is tried
    first; NNLS runs only when that support's solution fails its check, and
    its own support then goes through the same support solve. Returns an
    Optimal solution whose KKT residuals passed their check, or a
    PrimalInfeasible one certified by a checked Farkas vector (or by the
    residual of inconsistent equalities). Raises SolverFailed when Z'PZ is
    not positive definite, NNLS reaches its iteration limit, or neither
    result passes its check.
    """
    f = qp.factors
    x_p = f.A_eq_pinv @ qp.b_eq
    tol = _KKT_TOL * float(np.abs(np.concatenate((qp.q, qp.b_eq, qp.b_in))).max(initial=1.0))
    if f.rank_deficient and np.max(np.abs(qp.A_eq @ x_p - qp.b_eq)) > tol:
        return _infeasible(qp)  # the least-squares residual of A_eq x = b_eq
    g = f.Y.T @ (qp.P @ x_p + qp.q)
    h = qp.A_in @ x_p - qp.b_in - f.AY @ g
    S = qp._support or _support(f, _NO_ROWS)
    sol = _on_support(qp, f, x_p, g, h, tol, S)
    if sol is None:
        # x_p alone decides the fixed rows; one violated beyond rounding is
        # certified by its own Farkas vector, normalized as NNLS's are.
        excess = h[f.fixed] / np.maximum(1.0, np.abs(qp.b_in[f.fixed]))
        if excess.size and np.max(excess) > _FEAS_TOL:
            u = np.zeros(h.size)
            row = f.fixed[np.argmax(excess)]
            u[row] = 1.0 / h[row]
            if (mu := _farkas(qp, f, u)) is not None:
                return _infeasible(qp, u, mu)
        if not f.free.size:  # nnls on a matrix with no columns aborts the process
            raise SolverFailed("QP solution failed its KKT check")
        n = g.size
        e = np.zeros(n + 1)
        e[n] = 1.0
        try:
            u = nnls(np.vstack([-f.AY[f.free].T, h[f.free]]), e)[0]
        except RuntimeError as exc:
            raise SolverFailed(f"NNLS solve of the least-distance program failed: {exc}") from exc
        S = _support(f, f.free[u > 0])
        sol = _on_support(qp, f, x_p, g, h, tol, S)
        if sol is None:  # the support solve failed: NNLS's own weights
            sol = _checked(qp, f, x_p, g, tol, S, u[u > 0], h[S.rows])
        if sol is None:
            raise SolverFailed("NNLS gave neither a checked optimum nor a Farkas vector")
    if sol.status == OPTIMAL:
        qp._support = S
    return sol
