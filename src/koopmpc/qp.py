"""Dense convex quadratic programming with certified results.

Problems are affine families in a parameter theta of p entries:

    minimize    0.5 x'Px + q(theta)'x
    subject to  A_eq x  = b_eq(theta)
                A_in x <= b_in

with q(theta) = q + F_q theta and b_eq(theta) = b_eq + F_eq theta, and P
positive definite on the null space of A_eq (P itself may be indefinite). A
QP with p = 0 is a plain QP, solved by ``solve(qp)``. All the data are private
read-only copies. Everything the solver derives from them is computed once per
problem, on first use: one SVD of A_eq giving its rank, an orthonormal null
basis Z and the pseudo-inverse, the Cholesky factorization
Z'PZ = LL', the reduced rows, and the p + 1 theta-columns below. That
Cholesky factorization is the one check of the contract: a Z'PZ that is not
positive definite, as for P = 0, raises SolverFailed.

In the basis Y = Z L^-T, where the reduced Hessian is the identity, the QP is
a least-distance program: with x_p = A_eq^+ b_eq, g = Y'(P x_p + q) and the
unconstrained minimizer x_0 = x_p - Y g, x = x_0 + Y v reads  minimize |v|
subject to  G v >= h, where G = -A_in Y and h = A_in x_0 - b_in. Both x_0 and
h are affine in theta; their columns X_0 and H, which multiply [theta; 1], are
formed once. Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23)
solve the program by one nonnegative least-squares (NNLS) problem on
E = [G'; h']: its solution u and residual r = Eu - e_{n+1} give either the
optimum v = -r[:n]/r[n] with multipliers u/|r|^2, or, when r = 0, a Farkas
vector u >= 0 with G'u = 0 and h'u = 1. NNLS is Lawson and Hanson's active-set
algorithm, here on every column of E at once (:func:`_nnls`): its passive
columns are held in a QR factorization that LAPACK builds and a Householder
reflection or Givens rotations update as a column enters or leaves. Column
j's NNLS gradient is -r[n] times (A_in x - b_in)_j at the point
x = x_0 - Y (A_in Y)_P' u / r[n] of the passive columns P, so its
optimality test asks that no row be broken. At a least-squares solution
|r|^2 = -r[n], so NNLS stops at a zero residual, with at most n + 1 passive
columns, and its weights are then a Farkas vector.

The rows S with positive NNLS weight are a support. Held as equalities, they
give the multipliers lam_S = (G_S G_S')^-1 h_S and x = x_0 - Y (A_in Y)_S'
lam_S, again affine in theta: the support's map M_S = [X_S; Lam_S] comes from
one Cholesky solve of S's Gram matrix with the p + 1 columns of H_S as
right-hand sides, and [x; lam_S] = M_S [theta; 1].

Each result is checked in the full space before a status is returned. The
optimum must have its stationarity, equality and complementarity residuals
within 1e-8 of the data's scale and break no inequality row by more than 1e-9
of max(1, |b_in|) of that row, none NaN. For a fixed support each residual is
affine in theta too, so it is formed once per support, with its map: one
product of [A_eq; A_in; P] with X_S and the right-hand-side columns give the
residual map R_S = [stationarity; A_eq x - b_eq; A_in x - b_in; Px; nu], and
the residuals at theta are R_S [theta; 1]. The two maps are kept stacked
under the theta-columns of [q; b_eq] and of the least-squares residual below,
so one product gives a stored support [q; b_eq], that residual, x, lam_S and
its residuals. NNLS's own weights are checked by the residual map of one column.
The Farkas vector, with mu = -(A_eq^+)'A_in'u, must give A_in'u + A_eq'mu = 0
to a scaled tolerance and b_in'u + b_eq'mu < 0, which no feasible x allows;
the result carries u and mu as its in_multipliers and eq_multipliers.
Inconsistent equalities (possible only for a rank-deficient A_eq) are
certified by the least-squares residual of x_p, with no multipliers.
Anything else raises SolverFailed.

A row of A_in whose row of A_in Y is zero to rounding is one that no step in
the null space of A_eq moves, such as a bound on a variable the equalities
pin: x_0 alone decides it. Its column of E would be zero too, and NNLS could
put any weight on it, so NNLS runs on the other columns only. The most
violated such row, when it exceeds its offset by more than 1e-9 of
max(1, |b_in|), is certified by its own Farkas vector; a smaller excess is
rounding, left to the full-space check.

Each QuadraticProgram keeps the support of its last Optimal solve with its maps
(before the first, no row, whose map is X_0), and the next solve tries it
before NNLS: [x; lam_S] = M_S [theta; 1] is taken only where lam_S > 0 and
R_S [theta; 1] passes the full-space check, which is Lawson and Hanson's
optimality test on the other columns. So the stored support can make a solve
faster but never changes which results are accepted. A hit forms only x, its
objective and the verdict (stationarity and equality in one reduction); the
KKT residuals and multipliers are formed on first read (see QpSolution). A
miss starts NNLS where Lawson and Hanson's first step from the stored support
would take it (:func:`_start`; with no row stored, from the rows x_0 breaks),
then builds the maps of NNLS's final support and evaluates them, so that a
warm and a cold Optimal solve that end on the same support agree bit for bit.
A final support with a zero residual gets no map; its weights, and those of
a support whose map fails, are refactored from its columns in row order and
checked, so a warm and a cold Farkas certificate on the same support agree
bit for bit too.

The factors' SVD and Cholesky factorizations and the support's Cholesky
solve are numpy's. NNLS's factorizations and triangular solves are LAPACK's,
through scipy.linalg.lapack, and its column deletion is scipy.linalg.qr_delete;
NNLS imports them when it runs. Building a QuadraticProgram loads
scipy.linalg, and no other scipy subpackage, so that no solve pays the import;
importing this module does not. So a process that solves no QP, such as
``koopmpc tighten``, never loads it, and a closed loop loads it when it builds
its QPs, before its first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import import_module

import numpy as np


OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"

_FEAS_TOL = 1e-9
_KKT_TOL = 1e-8


class SolverFailed(RuntimeError):
    """A QP could not be solved: the reduced Hessian Z'PZ is not positive
    definite, or NNLS gave no result that passes its check."""


@dataclass
class QuadraticProgram:
    """Convex QP data, affine in a parameter theta through the columns of F_q
    (d x p) and F_eq (m_eq x p); either may be omitted as zero, and both
    omitted make p = 0. P is symmetrized on construction; empty constraint
    blocks are normalized to 0-row matrices so downstream code never branches
    on None. Every array is a private read-only copy, since the solver keeps
    what it derives from them. The solver also keeps here the support of the
    last Optimal solve."""

    P: np.ndarray
    q: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    F_q: np.ndarray | None = None
    F_eq: np.ndarray | None = None
    _support: "_Support | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        import_module("scipy.linalg")  # at set-up: no solve pays the import
        self.q = np.array(self.q, dtype=float).ravel()
        d = self.q.size
        self.P = np.atleast_2d(np.asarray(self.P, dtype=float))
        if self.P.shape != (d, d):
            raise ValueError(f"P shape {self.P.shape} does not match q size {d}")
        self.P = 0.5 * (self.P + self.P.T)

        def _block(A, b, name):
            if A is None:
                return np.zeros((0, d)), np.zeros(0)
            A = np.atleast_2d(np.array(A, dtype=float))
            b = np.array(b, dtype=float).ravel()
            if A.shape != (b.size, d):
                raise ValueError(
                    f"{name} shape {A.shape} inconsistent with rhs size {b.size} "
                    f"and dimension {d}"
                )
            return A, b

        self.A_eq, self.b_eq = _block(self.A_eq, self.b_eq, "A_eq")
        self.A_in, self.b_in = _block(self.A_in, self.b_in, "A_in")
        p = next((np.shape(F)[-1] for F in (self.F_q, self.F_eq) if F is not None), 0)
        for name, rows in (("F_q", d), ("F_eq", self.b_eq.size)):
            F = getattr(self, name)
            F = np.zeros((rows, p)) if F is None else np.array(F, dtype=float)
            if F.shape != (rows, p):
                raise ValueError(f"{name} shape {F.shape} is not ({rows}, {p})")
            setattr(self, name, F)
        for M in (self.P, self.q, self.A_eq, self.b_eq, self.A_in, self.b_in, self.F_q, self.F_eq):
            M.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.q.size

    @cached_property
    def factors(self) -> "_Factors":
        """The solver's factors of the data, computed on first use."""
        return _factor(self)


@dataclass
class QpSolution:
    """A solve's result. An Optimal one keeps its check's record (this solve's
    residual column r, S's rows, lam_S, n_eq, primal_in and complementarity),
    from which kkt_residuals, in_multipliers (zero off S) and eq_multipliers
    are formed on first read. A PrimalInfeasible one has NaN x_star and
    objective, and its Farkas pair (u, mu), if any, as its multipliers, set
    when it is made (None without a pair)."""

    x_star: np.ndarray
    objective: float
    status: str
    active_set: tuple[int, ...] = ()
    _record: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def kkt_residuals(self) -> dict[str, float]:
        if not self._record:
            return {}
        r, _, _, n_eq, p_in, comp = self._record
        a, d = np.abs(r), self.x_star.size
        return {"stationarity": float(np.max(a[:d], initial=0.0)),
                "primal_eq": float(np.max(a[d : d + n_eq], initial=0.0)),
                "primal_in": float(p_in), "complementarity": float(comp)}

    @cached_property
    def in_multipliers(self) -> np.ndarray | None:
        r, rows, lam_S, n_eq, _, _ = self._record
        lam = np.zeros(r.size - 2 * (self.x_star.size + n_eq))
        lam[rows] = lam_S
        return lam

    @cached_property
    def eq_multipliers(self) -> np.ndarray | None:
        r, _, _, n_eq, _, _ = self._record
        return r[r.size - n_eq :]


def _infeasible(qp: QuadraticProgram, u=None, mu=None) -> QpSolution:
    """A PrimalInfeasible result, with its checked Farkas pair (u, mu) if any."""
    sol = QpSolution(np.full(qp.dim, np.nan), np.nan, PRIMAL_INFEASIBLE)
    sol.in_multipliers, sol.eq_multipliers = u, mu
    return sol


@dataclass(frozen=True)
class _Support:
    """Rows S of E's columns with their map and residual map stacked under the
    factors' head as M = [head; X_S; Lam_S; R_S] (None where S's Gram matrix
    (A_in Y)_S (A_in Y)_S' is not positive definite), and S as the active set
    of a result. M [theta; 1] is [q; b_eq], the least-squares residual, x,
    lam_S and the residuals."""

    rows: np.ndarray
    M: np.ndarray | None
    active_set: tuple[int, ...] = ()


@dataclass(frozen=True)
class _Factors:
    """What the solver derives from the data, once.

    neg_pinv_T = -(A_eq^+)', whose product with r is minus the minimum-norm
    solution of A_eq' nu = r, and PA = [A_eq; A_in; P]. Y = Z L^-T, where Z
    is an orthonormal basis of the null space of A_eq (both from
    :func:`_null_basis`'s one SVD) and Z'PZ = LL' the
    Cholesky factorization of the reduced Hessian, spans the same null space
    with Y'PY = I; AY = A_in Y. The theta-columns multiply [theta; 1]: QB
    gives [q(theta); b_eq(theta)], X0 the unconstrained minimizer x_0 and H
    the offsets h. ``head`` stacks QB and, for a rank-deficient A_eq (the
    only kind that admits inconsistent right-hand sides), the columns of the
    residual A_eq x_p - b_eq.
    ``fixed`` lists the rows of A_in whose row of AY is zero to rounding
    (1e-12 of the largest), and ``free`` the others. row_scale is
    max(1, |b_in|) and rhs_floor max(1, max |b_in|). ``empty`` is the support
    of no row, whose map is X0, stacked with its residual map. ET and AY2,
    which only NNLS reads, are formed on its first run."""

    neg_pinv_T: np.ndarray
    PA: np.ndarray
    Y: np.ndarray
    AY: np.ndarray
    QB: np.ndarray
    head: np.ndarray
    X0: np.ndarray
    H: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    row_scale: np.ndarray
    rhs_floor: float
    empty: _Support

    @cached_property
    def ET(self) -> np.ndarray:
        """The buffer of E', NNLS's matrix transposed, on the free rows:
        [-AY_free, h_free], whose last column each miss writes."""
        ET = np.zeros((self.free.size, self.Y.shape[1] + 1))
        ET[:, :-1] = -self.AY[self.free]
        return ET

    @cached_property
    def AY2(self) -> np.ndarray:
        """The squared norms of the free rows of AY."""
        return np.einsum("ij,ij->i", self.ET[:, :-1], self.ET[:, :-1])


def _null_basis(A_eq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z, an orthonormal basis of null(A_eq), and (A_eq^+)', from one SVD
    A_eq = U S V'. The rank r counts the singular values above
    s_0 max(shape) eps (``np.linalg.matrix_rank``'s cut), Z = V[:, r:] and
    (A_eq^+)' = U_r S_r^-1 V_r'."""
    n_eq, d = A_eq.shape
    if n_eq == 0:
        return np.eye(d), np.zeros((0, d))
    U, s, Vt = np.linalg.svd(A_eq)
    rank = int(np.sum(s > s[0] * max(A_eq.shape) * _EPS))
    return Vt[rank:].T, (U[:, :rank] / s[:rank]) @ Vt[:rank]


def _factor(qp: QuadraticProgram) -> _Factors:
    """Take the null basis and pseudo-inverse of A_eq from one SVD
    (:func:`_null_basis`) and one Cholesky factorization of Z'PZ, and form
    the theta-columns.

    Raises SolverFailed when Z'PZ is not positive definite: its factorization
    fails (an indefinite or zero Z'PZ), or a pivot falls below 1e-11 of its
    largest diagonal entry (a singular one)."""
    A_eq, A_in, d = qp.A_eq, qp.A_in, qp.dim
    Z, pinv_T = _null_basis(A_eq)
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
    Y = np.linalg.solve(L, Z.T).T
    AY = A_in @ Y
    reach = np.max(np.abs(AY), axis=1, initial=0.0)
    moves = reach > 1e-12 * np.max(reach, initial=1.0)
    QB = np.vstack((np.column_stack((qp.F_q, qp.q)), np.column_stack((qp.F_eq, qp.b_eq))))
    X_p = pinv_T.T @ QB[d:]
    X0 = X_p - Y @ (Y.T @ (qp.P @ X_p + QB[:d]))
    H = A_in @ X0
    H[:, -1] -= qp.b_in
    rank_deficient = Z.shape[1] + A_eq.shape[0] > d
    head = np.vstack((QB, A_eq @ X_p - QB[d:])) if rank_deficient else QB
    f = _Factors(neg_pinv_T=-pinv_T,
                 PA=np.vstack((A_eq, A_in, qp.P)), Y=Y, AY=AY, QB=QB, head=head, X0=X0, H=H,
                 free=np.flatnonzero(moves), fixed=np.flatnonzero(~moves),
                 row_scale=np.maximum(1.0, np.abs(qp.b_in)),
                 rhs_floor=float(np.abs(qp.b_in).max(initial=1.0)), empty=None)
    R = _residual_map(qp, f, _NO_ROWS, X0, X0[:0], QB)
    return replace(f, empty=_Support(_NO_ROWS, np.vstack((head, X0, R))))


_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_WEIGHTS = np.zeros(0)
_ONE = np.ones(1)
_ZERO = np.zeros(1)
_EPS = np.finfo(float).eps


def _support(qp: QuadraticProgram, f: _Factors, rows: np.ndarray) -> _Support:
    """The support S = ``rows`` with its map M_S = [X_S; Lam_S], X_S = X0 - Y AY_S' Lam_S
    and Lam_S = (AY_S AY_S')^-1 H_S, from the Cholesky factorization
    AY_S AY_S' = LL' and two solves with p + 1 right-hand sides, stacked as
    the M of :class:`_Support`; without a map where that factorization fails."""
    if not rows.size:
        return f.empty
    AY = f.AY[rows]
    try:
        L = np.linalg.cholesky(AY @ AY.T)
    except np.linalg.LinAlgError:
        return _Support(rows, None, tuple(rows.tolist()))
    Lam = np.linalg.solve(L.T, np.linalg.solve(L, f.H[rows]))
    X = f.X0 - f.Y @ (AY.T @ Lam)
    return _Support(rows, np.vstack((f.head, X, Lam, _residual_map(qp, f, rows, X, Lam, f.QB))),
                    tuple(rows.tolist()))


def _residual_map(qp: QuadraticProgram, f: _Factors, rows, X, Lam, QB) -> np.ndarray:
    """R = [stationarity; A_eq x - b_eq; A_in x - b_in; Px; nu] of the points X
    with multipliers Lam on the rows S = ``rows`` and right-hand sides
    QB = [q; b_eq], as columns; b_in is taken off the last column. On a
    support's map, R [theta; 1] holds the residuals at theta of the point
    x = X [theta; 1]. grad = Px + q + A_in,S' lam_S and nu = -(A_eq^+)' grad."""
    d, m, n_eq = qp.dim, qp.b_in.size, qp.b_eq.size
    R = np.empty((2 * (d + n_eq) + m, X.shape[1]))
    np.matmul(f.PA, X, out=R[d : 2 * d + n_eq + m])  # A_eq X, A_in X, PX
    grad, nu = R[:d], R[2 * d + n_eq + m :]
    np.add(R[d + n_eq + m : 2 * d + n_eq + m], QB[:d], out=grad)
    grad += f.PA[n_eq + rows].T @ Lam  # A_in's rows of PA start at n_eq
    np.matmul(f.neg_pinv_T, grad, out=nu)
    grad += qp.A_eq.T @ nu  # the stationarity
    R[d : d + n_eq] -= QB[d:]
    R[d + n_eq : d + n_eq + m, -1] -= qp.b_in
    return R


def _farkas(qp: QuadraticProgram, f: _Factors, u: np.ndarray, b_eq) -> np.ndarray | None:
    """mu = -(A_eq^+)'A_in'u if u >= 0 and mu pass the Farkas check, else None.
    A_in'u + A_eq'mu = 0 and b_in'u + b_eq'mu < 0 would give
    0 = (A_in'u + A_eq'mu)'x <= b_in'u + b_eq'mu < 0 for any feasible x. Both
    hold to 1e-9 of the size of the terms summed."""
    a = qp.A_in.T @ u
    mu = f.neg_pinv_T @ a
    residual = np.max(np.abs(a + qp.A_eq.T @ mu))
    gap = qp.b_in @ u + b_eq @ mu
    a_scale = max(1.0, float(np.max(np.abs(qp.A_in).T @ u)))
    b_scale = max(1.0, float(np.abs(qp.b_in) @ u + np.abs(b_eq) @ np.abs(mu)))
    return mu if np.min(u) >= 0.0 and residual <= 1e-9 * a_scale and gap < -1e-9 * b_scale else None


def _checked(qp, f, S: _Support, r, x, lam_S, qb, tol) -> QpSolution | None:
    """The Optimal solution x with multipliers lam_S on the rows S if its KKT
    residuals r (a column of :func:`_residual_map`) pass, else None; qb = [q; b_eq].
    Column j's NNLS gradient is a positive multiple of (A_in x - b_in)_j, so
    the primal check is also Lawson and Hanson's optimality test on the
    columns outside S."""
    d, n_eq, m, amax = qp.dim, qp.b_eq.size, qp.b_in.size, np.maximum.reduce
    n, r_in = d + n_eq, r[d + n_eq : d + n_eq + m]
    p_in = amax(r_in / f.row_scale, initial=0.0)
    comp = amax(np.abs(lam_S * r_in[S.rows])) if lam_S.size else 0.0
    # One reduction for stationarity and equality; primal_in per row; NaN fails.
    if not (amax(np.abs(r[:n]), initial=0.0) <= tol and p_in <= _FEAS_TOL and comp <= tol):
        return None
    Px = r[n + m : n + m + d]
    return QpSolution(x, 0.5 * float(x.dot(Px)) + float(qb[:d].dot(x)), OPTIMAL, S.active_set,
                      (r, S.rows, lam_S, n_eq, p_in, comp))


def _on_support(qp, f, S: _Support, v, qb, tol):
    """The support S's result from v = M_S [theta; 1], whose rows after the
    head are [x; lam_S; r]: taken only where lam_S > 0 and its residuals r
    pass, else None."""
    d, k, n = qp.dim, S.rows.size, len(f.head)
    lam_S = v[n + d : n + d + k]
    if k and not np.minimum.reduce(lam_S) > 0.0:
        return None
    return _checked(qp, f, S, v[n + d + k :], v[n : n + d], lam_S, qb, tol)


def _start(qp, f, S: _Support, v, h):
    """Where NNLS starts a miss of the stored support S: its start columns (as
    positions in ``free``) and, if known, feasible weights on them. With no
    row stored, the rows x_0 = X0 [theta; 1] breaks. When S's map gave
    positive lam_S at theta, its point, from v = M_S [theta; 1], is the
    least-squares point of S's columns, whose weights are
    lam_S / (1 + h_S'lam_S): they start S's columns, and the row that point
    breaks most (where E'r, the gradient of Lawson and Hanson's first step
    from S, is largest) enters at weight 0. Otherwise S's columns alone."""
    if not S.rows.size:
        return np.flatnonzero(h[f.free] > _FEAS_TOL * f.row_scale[f.free]), None
    start, d, k, n = np.searchsorted(f.free, S.rows), qp.dim, S.rows.size, len(f.head)
    lam = None if S.M is None else v[n + d : n + d + k]
    if lam is None or not np.minimum.reduce(lam) > 0.0:
        return start, None
    r_in = v[n + 2 * d + k + qp.b_eq.size :][f.free]  # A_in x - b_in on the free rows
    j = r_in.argmax()
    u = lam / (1.0 + h[S.rows] @ lam)
    if not r_in[j] > 0.0:
        return start, u
    return np.concatenate((start, (j,))), np.concatenate((u, _ZERO))


def _least_squares(ET: np.ndarray, P: np.ndarray):
    """Q, R (in its upper triangle, in an (n+1)-square buffer) and the
    least-squares weights z of the columns P of E = ET' against the last unit
    vector e, from one complete QR factorization E_P = QR (LAPACK's dgeqrf
    and dorgqr): z = R^-1 (Q'e)[:k]."""
    from scipy.linalg.lapack import dgeqrf, dorgqr, dtrtrs  # loaded with the QP

    n1 = ET.shape[1]
    R = np.zeros((n1, n1), order="F")
    if not P.size:
        return np.eye(n1, order="F"), R, _NO_WEIGHTS
    qr, tau, _, _ = dgeqrf(ET[P].T, overwrite_a=1)
    R[:, : P.size] = qr
    Q = dorgqr(R, tau)[0]
    return Q, R, dtrtrs(R[:, : P.size], Q[-1])[0][: P.size]


def _nnls(ET: np.ndarray, norm2: np.ndarray, maxiter: int, start, weights=None):
    """Lawson and Hanson's NNLS (1974, ch. 23): min |Eu - e| over u >= 0, with
    E = ET' ((n+1) x m), e the last unit vector and norm2 the squared column
    norms |E_j|^2. Returns the passive columns P, their weights u_P > 0 (every
    other weight is 0), and whether the residual is zero to rounding,
    |Eu - e| <= (n+1) eps: at a least-squares solution |Eu - e|^2 = 1 - h_P'u,
    so u is then a Farkas vector.

    The passive columns are held in a complete QR factorization E_P = QR: with
    c = Q'e, the least-squares weights are z = R^-1 c[:k], the residual
    e - E_P z is Q[:, k:] c[k:], and the gradient of every column is
    w = E'Q[:, k:] c[k:]. A column enters by one Householder reflection of Q
    and leaves by Givens rotations (scipy's qr_delete); each change of P ends
    in one triangular solve for z.

    The columns ``start`` (at most n + 1) are factored by LAPACK. Given
    feasible ``weights`` on them (positive, or 0 on a column entering), the
    inner loop runs from there; otherwise the columns whose weight is not
    positive, or that the earlier ones span to rounding, are dropped until
    every weight is positive (no column is the classic start). The optimality
    test asks that no gradient exceed 10 (n+1) eps max_j |E_j|, which a zero
    residual passes; n + 1 passive columns end the run, since their residual
    is zero. A column whose weight on entering would not be positive, or
    that E_P spans to within 100 eps of its norm, is skipped for that round.
    Each least-squares solve (a factorization, an entering column or a
    deletion) counts one of at most ``maxiter`` iterations; SolverFailed
    beyond."""
    from scipy.linalg import qr_delete  # loaded with the QP
    from scipy.linalg.lapack import dtrtrs

    m, n1 = ET.shape
    if not m:
        return _NO_ROWS, _NO_WEIGHTS, False
    tol, spanned = 10 * n1 * _EPS * math.sqrt(np.max(norm2)), (100 * _EPS) ** 2 * norm2
    iterations, passive = 0, np.empty(n1, dtype=np.intp)

    def count():
        nonlocal iterations
        iterations += 1
        if iterations > maxiter:
            raise SolverFailed(f"NNLS of the least-distance program reached its iteration "
                               f"limit ({maxiter})")

    def drop(keep):
        """Delete the passive columns that ``keep`` leaves out; the weights of the rest."""
        nonlocal Q, k
        count()
        for i in np.flatnonzero(~keep)[::-1]:
            Q, R[:, : k - 1] = qr_delete(Q, R[:, :k], i, 1, "col", overwrite_qr=True,
                                         check_finite=False)
            k -= 1
        passive[:k] = passive[: keep.size][keep]
        return dtrtrs(R[:, :k], Q[-1])[0][:k] if k else _NO_WEIGHTS

    def feasible(u, z):
        """Lawson and Hanson's inner loop: from the feasible weights u toward
        the least-squares weights z, dropping each column that reaches 0 first,
        until every weight of the least-squares solution is positive."""
        keep = z > 0.0
        while not keep.all():
            d = u - z
            step = np.divide(u, d, out=np.full(k, np.inf), where=~keep)
            i = step.argmin()
            u -= step.item(i) * d
            u[i] = 0.0
            keep = u > 0.0
            u = u[keep]
            z = drop(keep)
            keep = z > 0.0
        return z

    count()
    P = np.asarray(start, dtype=np.intp)[:n1]
    Q, R, z = _least_squares(ET, P)
    k = P.size
    passive[:k] = P
    independent = np.diagonal(R)[:k] ** 2 > spanned[P]
    if weights is not None and independent.all():
        z = feasible(np.array(weights, dtype=float), z)
    else:
        keep = (z > 0.0) & independent
        while not keep.all():
            z = drop(keep)
            keep = z > 0.0
    while k < n1:
        QT = Q.T
        B, c = QT[k:], QT[k:, -1]  # c = (Q'e)[k:], the residual's coordinates
        w = ET @ (c @ B)  # rounding on a passive column, which E_P spans and so skips
        j = w.argmax()
        while w.item(j) > tol:
            v = QT @ ET[j]  # column j in the basis Q
            s = v[k:]
            sigma2 = s @ s
            if sigma2 > spanned.item(j):
                s0 = s.item(0)
                alpha = -math.copysign(math.sqrt(sigma2), s0)
                gamma = sigma2 - s0 * alpha
                s[0] = s0 - alpha  # the reflection I - s s'/gamma maps s to alpha e_1
                t = (s @ B) / gamma
                # j's weight, computed as the triangular solve below computes it
                if (c.item(0) - s.item(0) * t.item(-1)) / alpha > 0.0:
                    break
            w[j] = 0.0
            j = w.argmax()
        else:  # no column may enter
            break
        count()
        B -= s[:, None] * t
        v[k] = alpha
        R[: k + 1, k], passive[k] = v[: k + 1], j
        k += 1
        z_new = dtrtrs(R[:, :k], Q[-1])[0][:k]
        if np.minimum.reduce(z_new) > 0.0:
            z = z_new
        else:
            z = feasible(np.concatenate((z, _ZERO)), z_new)
    c = Q[-1, k:]
    return passive[:k].copy(), z, c @ c <= (n1 * _EPS) ** 2


def _from_weights(qp, f, S: _Support, u, h_S, tb, qb, tol, farkas) -> QpSolution | None:
    """The checked solution of NNLS's own weights u on the columns S of E,
    or None. The residual r = Eu - e is (-AY_S'u, h_S'u - 1). r[n] < 0 gives
    the optimum v = -r[:n]/r[n] with multipliers u/|r|^2 (at the NNLS optimum
    |r|^2 = -r[n], and dividing by -r[n] keeps v = G'lam exact), checked from
    its one-column residual map, unless NNLS ended on a zero residual
    (``farkas``), which puts that optimum at infinity. Otherwise u is
    returned as PrimalInfeasible if it passes the Farkas check."""
    r_n = h_S @ u - 1.0
    if r_n < 0.0 and not farkas:
        x, lam_S = f.X0 @ tb + f.Y @ (f.AY[S.rows].T @ u / r_n), -u / r_n
        r = _residual_map(qp, f, S.rows, x[:, None], lam_S[:, None], qb[:, None])[:, 0]
        if (sol := _checked(qp, f, S, r, x, lam_S, qb, tol)) is not None:
            return sol
    lam = np.zeros(qp.b_in.size)
    lam[S.rows] = u
    mu = _farkas(qp, f, lam, qb[qp.dim :])
    return None if mu is None else _infeasible(qp, lam, mu)


def solve(qp: QuadraticProgram, theta=()) -> QpSolution:
    """Solve the QP of ``qp`` at ``theta`` (p entries; none for a plain QP),
    with P positive definite on the null space of A_eq, by its
    least-distance form.

    The support of the QP's last Optimal solve (at first, no row) is tried
    first through its map, whose one product M_S [theta; 1] gives [q; b_eq],
    the least-squares residual of the equalities, x, lam_S and R_S [theta; 1]
    (a support stored without a map gives the first two from the factors'
    head); NNLS runs, on every free column and started from that support,
    only when that fails its check, and the map of its final support is then
    built and tried. Returns an Optimal solution whose KKT residuals passed
    their check, or a PrimalInfeasible one certified by a checked Farkas
    vector (or by the residual of inconsistent equalities). Raises
    SolverFailed when Z'PZ is not positive definite, NNLS reaches its
    iteration limit, or neither result passes its check, and ValueError when
    theta does not have p entries.
    """
    f, n = qp.factors, qp.dim + qp.b_eq.size
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (qp.F_q.shape[1],):
        raise ValueError(f"theta must have shape ({qp.F_q.shape[1]},), got {theta.shape}")
    tb = np.concatenate((theta, _ONE))
    S = qp._support or f.empty
    v = (f.head if S.M is None else S.M) @ tb
    qb = v[:n]  # [q; b_eq] at theta
    tol = _KKT_TOL * max(f.rhs_floor, float(np.maximum.reduce(np.abs(qb), initial=0.0)))
    if len(f.head) > n and np.maximum.reduce(np.abs(v[n : len(f.head)])) > tol:
        return _infeasible(qp)  # the least-squares residual of A_eq x = b_eq
    sol = None if S.M is None else _on_support(qp, f, S, v, qb, tol)
    if sol is None:
        h = f.H @ tb
        # x_0 alone decides the fixed rows; one violated beyond rounding is
        # certified by its own Farkas vector, normalized as NNLS's are.
        excess = h[f.fixed] / f.row_scale[f.fixed]
        if excess.size and np.max(excess) > _FEAS_TOL:
            u = np.zeros(h.size)
            row = f.fixed[np.argmax(excess)]
            u[row] = 1.0 / h[row]
            if (mu := _farkas(qp, f, u, qb[qp.dim :])) is not None:
                return _infeasible(qp, u, mu)
        # NNLS on every free column, from where Lawson and Hanson's first
        # step from the stored support takes it
        ET, h_free = f.ET, h[f.free]
        ET[:, -1] = h_free
        P, _, farkas = _nnls(ET, f.AY2 + h_free * h_free, 3 * f.free.size,
                             *_start(qp, f, S, v, h))
        P.sort()
        rows = f.free[P]
        # a zero residual leaves no optimum to map: its weights are a Farkas vector
        S = _Support(rows, None, tuple(rows.tolist())) if farkas else _support(qp, f, rows)
        sol = None if S.M is None else _on_support(qp, f, S, S.M @ tb, qb, tol)
        if sol is None:  # no map, or it failed: NNLS's weights, refactored in row order
            # (a weight that is 0 in exact arithmetic can come out at -eps)
            u = np.maximum(_least_squares(ET, P)[2], 0.0)
            sol = _from_weights(qp, f, S, u, h[rows], tb, qb, tol, farkas)
        if sol is None:
            raise SolverFailed("NNLS gave neither a checked optimum nor a Farkas vector")
    if sol.status == OPTIMAL:
        qp._support = S
    return sol
