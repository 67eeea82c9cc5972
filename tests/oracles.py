"""Independent brute-force oracles used to freeze expected values in tests.

Everything here is deliberately written from first principles (interval
arithmetic, exhaustive vertex enumeration, closed-form roots) so that the
library under test is checked against a second, independent computation.
"""

import itertools
import math

import numpy as np


def scalar_dare_root(a, b, q, r):
    """Positive root of the scalar discrete algebraic Riccati equation.

    P = q + a^2 P - a^2 b^2 P^2 / (r + b^2 P) rearranges to the quadratic
    b^2 P^2 + (r - q b^2 - a^2 r) P - q r = 0; the positive root is the
    stabilizing solution.
    """
    c2 = b * b
    c1 = r - q * b * b - a * a * r
    c0 = -q * r
    disc = c1 * c1 - 4.0 * c2 * c0
    return (-c1 + math.sqrt(disc)) / (2.0 * c2)


def riccati_value_iterates(A, B, Q, R, steps):
    """The plain one-step Riccati value iteration from P_0 = Q: returns the
    list [P_0, P_1, ..., P_steps] with
    P_{j+1} = Q + A'P_jA - A'P_jB (R + B'P_jB)^{-1} B'P_jA."""
    P = np.array(Q, dtype=float)
    iterates = [P]
    for _ in range(steps):
        AtPB = A.T @ P @ B
        P = Q + A.T @ P @ A - AtPB @ np.linalg.solve(R + B.T @ P @ B, AtPB.T)
        P = 0.5 * (P + P.T)
        iterates.append(P)
    return iterates


def grid_membership_diff(normals, offsets, center, generators, points):
    """Brute-force membership of `points` in  P minus-sweep Z  (erosion).

    A point p is a member iff p + z lies in P for every z in the zonotope Z.
    Since P is convex it suffices to check every sign-pattern vertex
    c + G s, s in {-1, 1}^g — an exhaustive, support-function-free oracle.

    Returns a boolean array aligned with `points` (rows).
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    center = np.asarray(center, dtype=float)
    generators = np.asarray(generators, dtype=float)
    points = np.asarray(points, dtype=float)
    g = generators.shape[1]
    member = np.ones(len(points), dtype=bool)
    for bits in range(2 ** g):
        signs = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(g)])
        z = center + generators @ signs
        lhs = points @ normals.T + normals @ z  # row-wise a_i'(p + z)
        member &= np.all(lhs <= offsets + 1e-12, axis=1)
        if not member.any():
            break
    return member


def zonotope_vertices(center, generators):
    """All sign-pattern points c + G s (superset of the vertex set)."""
    center = np.asarray(center, dtype=float)
    generators = np.asarray(generators, dtype=float)
    g = generators.shape[1]
    out = []
    for bits in range(2 ** g):
        signs = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(g)])
        out.append(center + generators @ signs)
    return np.array(out)


def box_vertices(lo, hi):
    """Corner points of an axis-aligned box."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    corners = []
    for bits in range(2 ** n):
        corners.append(
            np.array([hi[i] if bits & (1 << i) else lo[i] for i in range(n)])
        )
    return np.array(corners)


def steady_pair_numerical_example(lam, mu, y_t):
    """Fixed point of the two-state benchmark plant hitting output y_t.

    x1+ = lam*x1 forces x1 = 0 (|lam| < 1); then x2+ = mu*x2 + u = x2
    gives u = (1 - mu) * x2, and the output is x2 itself.
    """
    x = np.array([0.0, float(y_t)])
    u = np.array([(1.0 - mu) * float(y_t)])
    return x, u


def numerical_example_matrices(lam, mu):
    """Ground-truth lifted-space matrices of the two-state benchmark.

    With psi = (x1, x2, x1^2): x1+ = lam x1; x2+ = mu x2 + (lam^2 - mu) x1^2 + u;
    (x1+)^2 = lam^2 x1^2.
    """
    A = np.array(
        [
            [lam, 0.0, 0.0],
            [0.0, mu, lam * lam - mu],
            [0.0, 0.0, lam * lam],
        ]
    )
    B = np.array([[0.0], [1.0], [0.0]])
    return A, B


def qp_by_active_set_enumeration(P, q, A_eq, b_eq, A_in, b_in, tol=1e-9):
    """Optimum of a convex QP over a bounded feasible set, by enumerating
    candidate active sets.

    For every subset S of at most d inequality rows, the KKT system of
    ``min 0.5 x'Px + q'x  s.t.  A_eq x = b_eq,  A_S x = b_S`` is solved by
    least squares. A consistent system gives a minimizer on that affine set;
    it is a candidate when it also satisfies every inequality, to rounding
    (1e-12 of the right-hand side's scale) rather than to ``tol``: least
    squares merges rows 1e-11 off parallel, so a consistent system can give a
    point just off one of them, and such a point is not feasible. The optimal set
    of a convex QP over a bounded polyhedron has a vertex v, and a maximal
    independent subset S of the rows active at v (at most d of them) makes v
    the only minimizer on its affine set, so the least candidate objective is
    the optimum.

    Returns (objective, x); (inf, None) when no candidate exists.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    q = np.asarray(q, dtype=float)
    d = q.size
    A_eq = np.zeros((0, d)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    A_in = np.atleast_2d(np.asarray(A_in, dtype=float))
    b_in = np.asarray(b_in, dtype=float)
    best = (math.inf, None)
    for k in range(min(d, A_in.shape[0]) + 1):
        for S in itertools.combinations(range(A_in.shape[0]), k):
            M = np.vstack([A_eq, A_in[list(S)]])
            b = np.concatenate([b_eq, b_in[list(S)]])
            m = M.shape[0]
            kkt = np.block([[P, M.T], [M, np.zeros((m, m))]])
            rhs = np.concatenate([-q, b])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            scale = 1.0 + np.max(np.abs(rhs))
            if np.max(np.abs(kkt @ sol - rhs)) > tol * scale:
                continue  # no minimizer on this affine set
            x = sol[:d]
            if np.any(A_in @ x > b_in + 1e-12 * scale):
                continue
            obj = float(0.5 * x @ P @ x + q @ x)
            if obj < best[0]:
                best = (obj, x)
    return best


def kkt_check_dense(qp, f, S, x, lam_S, q, b_eq, tol):
    """The full-space check of ``qp._checked`` as it was written with dense
    products: for the point x and the multipliers lam_S on the support S,
    with q and b_eq the right-hand sides at theta, the full-length
    multipliers lam (lam_S on S.rows, zero elsewhere), grad = Px + q + A_in'lam,
    nu = -(A_eq^+)'grad and the four KKT residuals from the three separate
    products Px, A_in x and A_eq x. Returns (lam, nu, kkt, accepted), with
    accepted = every residual <= tol, but ``primal_in``, each row's excess in
    units of max(1, |b_in|) of that row, <= 1e-9."""
    lam = np.zeros(qp.A_in.shape[0])
    lam[S.rows] = lam_S
    grad = qp.P @ x + q + qp.A_in.T @ lam
    nu = f.neg_pinv_T @ grad
    stat = grad + qp.A_eq.T @ nu
    r_in, r_eq = qp.A_in @ x - qp.b_in, qp.A_eq @ x - b_eq
    kkt = {
        "stationarity": float(np.max(np.abs(stat), initial=0.0)),
        "primal_eq": float(np.max(np.abs(r_eq), initial=0.0)),
        "primal_in": float(np.max(r_in / np.maximum(1.0, np.abs(qp.b_in)), initial=0.0)),
        "complementarity": float(np.max(np.abs(lam * r_in), initial=0.0)),
    }
    limits = {key: tol for key in kkt} | {"primal_in": 1e-9}
    return lam, nu, kkt, all(kkt[key] <= limits[key] for key in kkt)


def plain_qp(family, theta):
    """The p = 0 QP of the affine family ``family`` at ``theta``: the same P,
    A_eq, A_in and b_in, with q = q0 + F_q theta and b_eq = b0 + F_eq theta."""
    from koopmpc.qp import QuadraticProgram

    theta = np.asarray(theta, dtype=float)
    return QuadraticProgram(P=family.P, q=family.q + family.F_q @ theta, A_eq=family.A_eq,
                            b_eq=family.b_eq + family.F_eq @ theta, A_in=family.A_in,
                            b_in=family.b_in)


def tracking_cost(config, u_bar, z_bar, z_s, u_s):
    """J_N's tracking part, summed term by term as the controller once did:
    the sum over j < N of ||z(j) - z_s||_Q^2 + ||u(j) - u_s||_R^2."""
    dz = z_bar[: config.N] - z_s
    du = u_bar[: config.N] - u_s
    return float(np.sum((dz @ config.Q) * dz) + np.sum((du @ config.R) * du))


def monomials_by_pow(F, exponents):
    """Every monomial of the coordinates F (one state a row) by float pow:
    each coordinate raised to each exponent, then multiplied along the row."""
    return np.prod(F[:, None, :] ** exponents[None, :, :], axis=2)


def shifted_rollout(A, B, K, N, u_bar, z_bar, z_s, u_s, z_next):
    """The shifted candidate rolled out step by step: from z_c(0) = z_next,
    u_c(j) = u*(j+1) + K (z_c(j) - z*(j+1)) and z_c(j+1) = A z_c(j) + B u_c(j)
    for j < N-1, then u_c(N-1) = u_s. Returns (u_c, z_c) of shapes (N, n_u)
    and (N+1, n_z)."""
    z_c = [np.asarray(z_next, dtype=float)]
    u_c = []
    for j in range(N - 1):
        u_c.append(u_bar[j + 1] + K @ (z_c[j] - z_bar[j + 1]))
        z_c.append(A @ z_c[j] + B @ u_c[j])
    u_c.append(np.asarray(u_s, dtype=float))
    z_c.append(A @ z_c[N - 1] + B @ u_c[N - 1])
    return np.array(u_c), np.array(z_c)


def transitions(data):
    """The (x, u, x+) triples of every trajectory of a ``TrajectoryData``,
    stacked one trajectory at a time from its (states, inputs) pairs."""
    trajs = data.trajectories
    return (np.vstack([s[:-1] for s, _ in trajs]), np.vstack([u for _, u in trajs]),
            np.vstack([s[1:] for s, _ in trajs]))


def fit_edmd_two_lifts(data, lifting, ridge=1e-8, output_matrix=None):
    """EDMD as it was written before each state was lifted once: the x rows and
    the x+ rows of ``transitions(data)`` lifted by two ``lift_many`` calls,
    then the same regression (least squares for ``ridge=0``). Returns (A, B)."""
    from koopmpc.model import lift_many, make_model

    X, U, Xp = transitions(data)
    n_z, n_u = lifting.n_z, U.shape[1]
    probe = make_model(np.zeros((n_z, n_z)), np.zeros((n_z, n_u)), lifting, output_matrix)
    Phi = np.hstack([lift_many(probe, X), U])
    Psi_next = lift_many(probe, Xp)
    if ridge == 0.0:
        Theta = np.linalg.lstsq(Phi, Psi_next, rcond=None)[0].T
    else:
        G = Phi.T @ Phi + ridge * np.eye(n_z + n_u)
        Theta = np.linalg.solve(G, Phi.T @ Psi_next).T
    return Theta[:, :n_z], Theta[:, n_z:]


def disturbance_boxes_three_lifts(model, data, inflation=1.0):
    """``estimate_disturbance_sets`` as it was written with three lifts (x, x+
    and every state): the residuals psi(x+) - A psi(x) - B u and
    x - C_x psi(x), each bounded by the box mid +- inflation * (hi - lo) / 2.
    Returns the (center, generators) of W and of V."""
    from koopmpc.model import lift_many

    X, U, Xp = transitions(data)
    W_res = lift_many(model, Xp) - lift_many(model, X) @ model.A.T - U @ model.B.T
    states = np.vstack([s for s, _ in data.trajectories])
    V_res = states - lift_many(model, states) @ model.C_x.T
    boxes = []
    for res in (W_res, V_res):
        lo, hi = res.min(axis=0), res.max(axis=0)
        boxes.append(((lo + hi) / 2.0, np.diag((hi - lo) / 2.0 * inflation)))
    return boxes


def minkowski_sum(Z1, Z2):
    """Zonotope Minkowski sum: centers add, generator lists concatenate."""
    from koopmpc.sets import Zonotope

    if Z1.dim != Z2.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    return Zonotope(
        center=Z1.center + Z2.center,
        generators=np.hstack([Z1.generators, Z2.generators]),
    )


def linear_map(M, Z):
    """Image of a zonotope under x -> Mx."""
    from koopmpc.sets import Zonotope

    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != Z.dim:
        raise ValueError("matrix column count must match zonotope dimension")
    return Zonotope(center=M @ Z.center, generators=M @ Z.generators)


def tighten_recursive(X, U, disturbance, A, B, K, C_x, N):
    """``tighten_constraints`` as it was written step by step: for j = 1..N a
    new R(j) = R(j-1) + (A+BK)^{j-1} W, two fresh Pontryagin differences
    X - (C_x R(j) + V) and U - K R(j), each a validated set, and two
    ``is_empty`` calls, state before input. Returns a TighteningSchedule or
    raises EmptyTightenedSet at the first empty set."""
    from koopmpc.gains import spectral_radius
    from koopmpc.sets import EmptyTightenedSet, HPolytope, TighteningSchedule, is_empty, pontryagin_diff

    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(A.shape[0], -1)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    C_x = np.atleast_2d(np.asarray(C_x, dtype=float))
    A_K = A + B @ K
    if spectral_radius(A_K) >= 1.0:
        raise ValueError("A + BK must be Schur stable")
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
    return TighteningSchedule(state_sets=state_sets, input_sets=input_sets, error_sets=error_sets)


def segment_inequality_check(y_s_star, y_sr_tilde, y_t, s: float, sigma_samples) -> bool:
    """Offset-cost decrease along the segment from y_s* toward the best output.

    For each sigma, the blend ``y_s = (1-sigma) y_s* + sigma y_sr~`` must cut
    the offset cost by at least ``s (2 sigma - sigma^2) ||y_s* - y_sr~||^2``.
    This holds whenever ``y_sr~`` optimizes the offset over a convex set
    containing ``y_s*``; violations mean the two points came from different
    constraint sets (or a non-optimal y_sr~).

    Both endpoints come out of finite-tolerance solvers, so the slack scales
    with ``s`` and the offset magnitude; the verdict is invariant to ``s``,
    which multiplies both sides of the inequality.
    """
    y_star = np.atleast_1d(np.asarray(y_s_star, dtype=float))
    y_sr = np.atleast_1d(np.asarray(y_sr_tilde, dtype=float))
    y_t = np.atleast_1d(np.asarray(y_t, dtype=float))
    gap = float(np.sum((y_star - y_sr) ** 2))
    base = float(np.sum((y_star - y_t) ** 2))
    tol = 1e-8 * s * (1.0 + base)
    for sigma in np.atleast_1d(np.asarray(sigma_samples, dtype=float)):
        y_s = (1.0 - sigma) * y_star + sigma * y_sr
        lhs = s * (float(np.sum((y_s - y_t) ** 2)) - base)
        rhs = -s * (2.0 * sigma - sigma**2) * gap
        if lhs > rhs + tol:
            return False
    return True
