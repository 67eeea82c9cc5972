"""Exact set algebra on H-polytopes and zonotopes.

Constraint sets are halfspace polytopes {x : normals @ x <= offsets}; error and
disturbance sets are zonotopes {center + generators @ xi : |xi| <= 1}. The
Pontryagin difference of a polytope and a zonotope is exact per halfspace via
the zonotope support function, which is what the constraint-tightening
recursion needs — no vertex enumeration in lifted dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .gains import spectral_radius
from .qp import SolverFailed

CONTAINS_TOL = 1e-9


class EmptyTightenedSet(Exception):
    """A tightened constraint set became empty at horizon index `index`."""

    def __init__(self, index: int, which: str):
        self.index = index
        self.which = which
        super().__init__(f"tightened {which} set is empty at horizon index {index}")


@dataclass(frozen=True)
class Zonotope:
    """center + generators @ xi over xi in [-1, 1]^g; g = 0 is a singleton."""

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).ravel()
        G = np.asarray(self.generators, dtype=float)
        if G.ndim != 2:
            G = G.reshape(c.size, -1)
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


@dataclass(frozen=True)
class TighteningSchedule:
    """Tightened state/input sets X~(0..N), U~(0..N) and error sets R(1..N)."""

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
    h = np.asarray(half_extents, dtype=float).ravel()
    if np.any(h < 0):
        raise ValueError("half extents must be nonnegative")
    c = np.zeros(h.size) if center is None else np.asarray(center, dtype=float).ravel()
    return Zonotope(center=c, generators=np.diag(h))


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


def minkowski_sum(Z1: Zonotope, Z2: Zonotope) -> Zonotope:
    """Centers add, generator lists concatenate."""
    if Z1.dim != Z2.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    return Zonotope(
        center=Z1.center + Z2.center,
        generators=np.hstack([Z1.generators, Z2.generators]),
    )


def linear_map(M: np.ndarray, Z: Zonotope) -> Zonotope:
    """Image of a zonotope under x -> Mx."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != Z.dim:
        raise ValueError("matrix column count must match zonotope dimension")
    return Zonotope(center=M @ Z.center, generators=M @ Z.generators)


def pontryagin_diff(P: HPolytope, Z: Zonotope) -> HPolytope:
    """P eroded by Z: identical normals, offsets reduced by the support of Z.

    The result may be empty; emptiness is detected by is_empty, not here.
    """
    if P.dim != Z.dim:
        raise ValueError("dimension mismatch in Pontryagin difference")
    drop = P.normals @ Z.center + np.sum(np.abs(P.normals @ Z.generators), axis=1)
    return HPolytope(normals=P.normals, offsets=P.offsets - drop)


def is_empty(P: HPolytope, tol: float = CONTAINS_TOL) -> bool:
    """Emptiness via the slack program min s s.t. a_i'x - s <= b_i, s >= 0.

    Empty iff the minimal slack exceeds the feasibility tolerance. When every
    row is a signed unit vector (a box, as every set the CLI builds), the
    minimal slack has a closed form; otherwise HiGHS solves the LP, and
    SolverFailed is raised when it does not report success.
    """
    m, n = P.normals.shape
    rows, axis = np.nonzero(P.normals)
    sign = P.normals[rows, axis]
    if np.array_equal(rows, np.arange(m)) and np.all(np.abs(sign) == 1.0):
        # Each row bounds one coordinate: the minimal slack is half the
        # widest gap between a lower and an upper bound.
        hi, lo = np.full(n, np.inf), np.full(n, -np.inf)
        np.minimum.at(hi, axis[sign > 0], P.offsets[sign > 0])
        np.maximum.at(lo, axis[sign < 0], -P.offsets[sign < 0])
        return bool(np.max(lo - hi, initial=0.0) / 2 > tol)
    res = linprog(
        c=np.eye(n + 1)[n],
        A_ub=np.hstack([P.normals, -np.ones((m, 1))]),
        b_ub=P.offsets,
        bounds=[(None, None)] * n + [(0.0, None)],
        method="highs",
    )
    if not res.success:
        raise SolverFailed(f"slack program did not solve: {res.message}")
    return bool(res.x[n] > tol)


def contains(P: HPolytope, x, tol: float = CONTAINS_TOL) -> bool:
    x = np.asarray(x, dtype=float).ravel()
    return bool(np.all(P.normals @ x <= P.offsets + tol))


def margin(P: HPolytope, x) -> float:
    """Worst halfspace slack of x in P; negative means x is outside."""
    x = np.asarray(x, dtype=float).ravel()
    return float(np.min(P.offsets - P.normals @ x))


def sample(Z: Zonotope, rng: np.random.Generator) -> np.ndarray:
    """Point c + G xi with xi uniform on [-1, 1]^g; deterministic given rng."""
    g = Z.generators.shape[1]
    if g == 0:
        return Z.center.copy()
    xi = rng.uniform(-1.0, 1.0, size=g)
    return Z.center + Z.generators @ xi


def tighten_constraints(X, U, disturbance, A, B, K, C_x, N: int) -> TighteningSchedule:
    """Constraint-tightening recursion against the reachable error sets.

    X~(0) = X - V, U~(0) = U; for j = 1..N the error set R(j) accumulates
    (A+BK)^{j-1} W onto R(j-1), and X~(j) = X - (C_x R(j) + V),
    U~(j) = U - K R(j) (all differences Pontryagin, sums Minkowski).

    Parameters
    ----------
    disturbance : object with zonotope attributes W (lifted space) and V
        (state space), e.g. a DisturbanceModel.

    Raises
    ------
    EmptyTightenedSet
        As soon as any tightened set along the horizon is empty.
    ValueError
        If A + BK is not Schur stable or N < 1.
    """
    if N < 1:
        raise ValueError("horizon must be at least 1")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(A.shape[0], -1)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    C_x = np.atleast_2d(np.asarray(C_x, dtype=float))
    A_K = A + B @ K
    rho = spectral_radius(A_K)
    if rho >= 1.0:
        raise ValueError(f"A + BK must be Schur stable (spectral radius {rho:.6g})")
    W, V = disturbance.W, disturbance.V

    state_sets = [pontryagin_diff(X, V)]
    input_sets = [HPolytope(normals=U.normals, offsets=U.offsets)]
    error_sets = []
    if is_empty(state_sets[0]):
        raise EmptyTightenedSet(0, "state")
    if is_empty(input_sets[0]):
        raise EmptyTightenedSet(0, "input")

    M = np.eye(A.shape[0])  # running power (A+BK)^{j-1}
    R = None
    for j in range(1, N + 1):
        term = linear_map(M, W)
        R = term if R is None else minkowski_sum(R, term)
        M = M @ A_K
        Xj = pontryagin_diff(X, minkowski_sum(linear_map(C_x, R), V))
        Uj = pontryagin_diff(U, linear_map(K, R))
        if is_empty(Xj):
            raise EmptyTightenedSet(j, "state")
        if is_empty(Uj):
            raise EmptyTightenedSet(j, "input")
        error_sets.append(R)
        state_sets.append(Xj)
        input_sets.append(Uj)

    return TighteningSchedule(
        state_sets=state_sets, input_sets=input_sets, error_sets=error_sets
    )
