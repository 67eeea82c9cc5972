"""Exact set algebra on H-polytopes and zonotopes.

Constraint sets are halfspace polytopes {x : normals @ x <= offsets}; error and
disturbance sets are zonotopes {center + generators @ xi : |xi| <= 1}. The
Pontryagin difference of a polytope and a zonotope is exact per halfspace via
the zonotope support function, which is what the constraint tightening needs —
no vertex enumeration in lifted dimensions. It builds the tube once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gains import spectral_radius
from .qp import SolverFailed, _scipy

linprog = _scipy("scipy.optimize.linprog")  # only a set that is not a box needs it

CONTAINS_TOL = 1e-9


class EmptyTightenedSet(Exception):
    """A tightened constraint set became empty at horizon index `index`."""

    def __init__(self, index: int, which: str):
        self.index = index
        self.which = which
        super().__init__(f"tightened {which} set is empty at horizon index {index}")


@dataclass(frozen=True)
class Zonotope:
    """center + generators @ xi over xi in [-1, 1]^g, generators an (n, g)
    matrix; g = 0 is a singleton."""

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        G = np.asarray(self.generators, dtype=float)
        if c.ndim != 1:
            raise ValueError(f"center must be a list of numbers, got shape {c.shape}")
        if G.ndim != 2:
            raise ValueError(f"generators must be an (n, g) matrix ([[], ...] for g = 0), "
                             f"got shape {G.shape}")
        if G.shape[0] != c.size:
            raise ValueError(
                f"generators have {G.shape[0]} rows for a {c.size}-dim center"
            )
        if not (np.isfinite(c).all() and np.isfinite(G).all()):
            raise ValueError("zonotope data must be finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "generators", G)

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class HPolytope:
    """Halfspace intersection {x : normals @ x <= offsets}."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.normals, dtype=float))
        b = np.asarray(self.offsets, dtype=float).ravel()
        if A.shape[0] != b.size:
            raise ValueError("row count of normals must match offsets")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("polytope data must be finite")
        if np.any(np.linalg.norm(A, axis=1) == 0.0):
            raise ValueError("every normal row must be nonzero")
        object.__setattr__(self, "normals", A)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]


def _built(cls, **fields):
    """A set from arrays that are checked already; they are not checked again."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class TighteningSchedule:
    """Tightened state/input sets X~(0..N), U~(0..N) and error sets R(1..N); from
    `tighten_constraints`, R(j).generators is the read-only prefix R(N).generators[:, :j·g]."""

    state_sets: list
    input_sets: list
    error_sets: list

    def __post_init__(self):
        if len(self.state_sets) != len(self.input_sets):
            raise ValueError("state and input set lists must have equal length")
        if len(self.state_sets) != len(self.error_sets) + 1:
            raise ValueError("need exactly one error set per tightened step")

    @property
    def horizon(self) -> int:
        return len(self.error_sets)


def box_zonotope(half_extents, center=None) -> Zonotope:
    """Axis-aligned box as a zonotope with a diagonal generator matrix."""
    h = np.asarray(half_extents, dtype=float)
    if h.ndim != 1 or np.any(h < 0):
        raise ValueError(f"half_extents must be a list of numbers >= 0, got {h.tolist()}")
    return Zonotope(center=np.zeros(h.size) if center is None else center, generators=np.diag(h))


def box_polytope(lo, hi) -> HPolytope:
    """Axis-aligned box [lo, hi] with rows ordered [I; -I]."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if lo.size != hi.size:
        raise ValueError("lo and hi must have equal length")
    if np.any(lo > hi):
        raise ValueError("need lo <= hi componentwise")
    n = lo.size
    return HPolytope(
        normals=np.vstack([np.eye(n), -np.eye(n)]),
        offsets=np.concatenate([hi, -lo]),
    )


def support(Z: Zonotope, a: np.ndarray) -> float:
    """Support function max_{z in Z} a'z = a'c + sum_i |a'g_i|."""
    a = np.asarray(a, dtype=float).ravel()
    return float(a @ Z.center + np.sum(np.abs(a @ Z.generators)))


def _support_rows(normals, center, generators):
    """The support of the zonotope (center, generators) along each row of normals."""
    return normals @ center + np.abs(normals @ generators).sum(axis=1)


def pontryagin_diff(P: HPolytope, Z: Zonotope) -> HPolytope:
    """P eroded by Z: identical normals, offsets reduced by the support of Z.

    The result may be empty; emptiness is detected by is_empty, not here.
    """
    if P.dim != Z.dim:
        raise ValueError("dimension mismatch in Pontryagin difference")
    drop = _support_rows(P.normals, Z.center, Z.generators)
    return HPolytope(normals=P.normals, offsets=P.offsets - drop)


def _empty_rows(normals, offsets, tol):
    """Is {x : normals @ x <= b} empty, for each row b of `offsets`, in row order?

    Empty iff the minimal slack of min s s.t. a_i'x - s <= b_i, s >= 0 exceeds
    tol. A box (signed unit rows, as in every set the CLI builds) has a closed
    form, taken for all rows at once; otherwise HiGHS solves one LP per row as
    it is read, and SolverFailed is raised when it does not report success.
    """
    m, n = normals.shape
    rows, axis = np.nonzero(normals)
    sign = normals[rows, axis]
    if np.array_equal(rows, np.arange(m)) and np.all(np.abs(sign) == 1.0):
        # Each row bounds one coordinate: the minimal slack is half the
        # widest gap between a lower and an upper bound.
        hi, lo = np.full((len(offsets), n), np.inf), np.full((len(offsets), n), -np.inf)
        np.minimum.at(hi.T, axis[sign > 0], offsets[:, sign > 0].T)
        np.maximum.at(lo.T, axis[sign < 0], -offsets[:, sign < 0].T)
        yield from np.max(lo - hi, axis=1, initial=0.0) / 2 > tol
        return
    for b in offsets:
        res = linprog(c=np.eye(n + 1)[n], A_ub=np.hstack([normals, -np.ones((m, 1))]), b_ub=b,
                      bounds=[(None, None)] * n + [(0.0, None)], method="highs")
        if not res.success:
            raise SolverFailed(f"slack program did not solve: {res.message}")
        yield bool(res.x[n] > tol)


def is_empty(P: HPolytope, tol: float = CONTAINS_TOL) -> bool:
    """Whether P is empty, decided as `_empty_rows` decides it."""
    return bool(next(_empty_rows(P.normals, P.offsets[None], tol)))


def contains(P: HPolytope, x, tol: float = CONTAINS_TOL) -> bool:
    """Whether x lies in P up to ``tol``; a wrong-size point raises as in :func:`margin`."""
    return margin(P, x) >= -tol


def margin(P: HPolytope, x):
    """Worst halfspace slack of x in P (negative: outside; +inf for no rows). A
    (k, P.dim) stack X gives its k slacks, offsets[:, None] - normals @ X.T over
    axis 0: exact, so bit for bit the one-point calls, on box rows (as the CLI
    builds); other normals may round otherwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2 and x.shape[1] == P.dim:
        return np.minimum.reduce(P.offsets[:, None] - P.normals @ x.T, axis=0, initial=np.inf)
    if (x := x.ravel()).size != P.dim:
        raise ValueError(f"point of dimension {x.size} for a set of dimension {P.dim}")
    return float(np.minimum.reduce(P.offsets - P.normals @ x, initial=np.inf))


def point(Z: Zonotope, xi) -> np.ndarray:
    """The point c + G xi of Z, or the (k, n) points of a (k, g) stack xi, each
    its own matrix-vector product, so bit for bit ``point(Z, xi[j])`` (xi G'
    rounds otherwise); copies of the center when g = 0, so -0.0 stays -0.0."""
    xi = np.asarray(xi, dtype=float)
    if Z.generators.shape[1] == 0:
        return np.tile(Z.center, xi.shape[:-1] + (1,))
    return Z.center + (Z.generators @ xi[..., None])[..., 0]


def sample(Z: Zonotope, rng: np.random.Generator) -> np.ndarray:
    """Point c + G xi with xi uniform on [-1, 1]^g; deterministic given rng.

    A closed-loop run draws every step's xi at once and calls :func:`point`.
    """
    return point(Z, rng.uniform(-1.0, 1.0, size=Z.generators.shape[1]))


def tighten_constraints(X, U, disturbance, A, B, K, C_x, N: int) -> TighteningSchedule:
    """Constraint tightening against the reachable error sets, with the tube built once.

    X~(0) = X - V, U~(0) = U; for j = 1..N, R(j) = R(j-1) + (A+BK)^{j-1} W,
    X~(j) = X - (C_x R(j) + V) and U~(j) = U - K R(j) (differences Pontryagin,
    sums Minkowski). R(j) is the first j·g columns of one read-only matrix of the
    terms (A+BK)^i W; each offset keeps the recursion's products and sum order,
    bit for bit, and one check and one emptiness test cover all stacked offsets.

    Parameters
    ----------
    disturbance : object with zonotope attributes W (lifted space) and V
        (state space), e.g. a DisturbanceModel.

    Raises
    ------
    EmptyTightenedSet
        At the first empty set along the horizon, the state set first.
    ValueError
        If N < 1, if A + BK is not Schur stable, or naming a mismatched argument.
    """
    if N < 1:
        raise ValueError("horizon must be at least 1")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).reshape(len(B), -1)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    C_x = np.atleast_2d(np.asarray(C_x, dtype=float))
    W, V = disturbance.W, disturbance.V
    n_z, n_u, n_x = A.shape[0], B.shape[1], C_x.shape[0]
    for name, what, got, need in (
            ("A", "shape", A.shape, (n_z, n_z)), ("B", "rows", len(B), n_z),
            ("K", "shape", K.shape, (n_u, n_z)), ("C_x", "columns", C_x.shape[1], n_z),
            ("X", "dimension", X.dim, n_x), ("disturbance.V", "dimension", V.dim, n_x),
            ("disturbance.W", "dimension", W.dim, n_z), ("U", "dimension", U.dim, n_u)):
        if got != need:
            raise ValueError(f"tighten_constraints: {name} has {what} {got}, need {need} "
                             f"(n_z = {n_z} from A, n_u = {n_u} from B, n_x = {n_x} from C_x)")
    A_K = A + B @ K
    rho = spectral_radius(A_K)
    if rho >= 1.0:
        raise ValueError(f"A + BK must be Schur stable (spectral radius {rho:.6g})")

    g = W.generators.shape[1]
    G, centers = np.empty((n_z, N * g)), np.empty((N, n_z))
    x_off, u_off = np.empty((N + 1, X.offsets.size)), np.tile(U.offsets, (N + 1, 1))
    x_off[0] = X.offsets - _support_rows(X.normals, V.center, V.generators)
    M, c = np.eye(n_z), None  # running power (A+BK)^{j-1} and center of R(j)
    for j in range(1, N + 1):
        G[:, (j - 1) * g : j * g] = M @ W.generators
        c = M @ W.center if c is None else c + M @ W.center
        M = M @ A_K
        # A contiguous R(j), as in the recursion: BLAS rounds a strided view differently.
        R = G[:, : j * g].copy()
        CR = np.concatenate((C_x @ R, V.generators), axis=1)
        x_off[j] = X.offsets - _support_rows(X.normals, C_x @ c + V.center, CR)
        u_off[j] = U.offsets - _support_rows(U.normals, K @ c, K @ R)
        centers[j - 1] = c
    for a in (G, centers, x_off, u_off):
        a.flags.writeable = False
    for P, offsets in ((X, x_off), (U, u_off)):  # all N+1 sets' halfspaces, checked as one polytope
        HPolytope(normals=np.tile(P.normals, (N + 1, 1)), offsets=offsets)
    inputs_empty = _empty_rows(U.normals, u_off, CONTAINS_TOL)
    for j, state_empty in enumerate(_empty_rows(X.normals, x_off, CONTAINS_TOL)):
        if state_empty or next(inputs_empty):
            raise EmptyTightenedSet(j, "state" if state_empty else "input")
    return TighteningSchedule(  # state, input and error sets
        [_built(HPolytope, normals=X.normals, offsets=b) for b in x_off],
        [_built(HPolytope, normals=U.normals, offsets=b) for b in u_off],
        [_built(Zonotope, center=c, generators=G[:, : j * g]) for j, c in enumerate(centers, 1)],
    )
