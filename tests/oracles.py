"""Independent brute-force oracles used to freeze expected values in tests.

Everything here is deliberately written from first principles (interval
arithmetic, exhaustive vertex enumeration, closed-form roots) so that the
library under test is checked against a second, independent computation.
"""

import dataclasses
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
    products Px, A_in x and A_eq x. Returns (lam, nu, kkt, accepted, blocks),
    with accepted = every residual <= tol, but ``primal_in``, each row's excess
    in units of max(1, |b_in|) of that row, <= 1e-9, and blocks the residual
    vectors (stationarity, A_eq x - b_eq, A_in x - b_in, Px, nu)."""
    lam = np.zeros(qp.A_in.shape[0])
    lam[S.rows] = lam_S
    Px = qp.P @ x
    grad = Px + q + qp.A_in.T @ lam
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
    return lam, nu, kkt, all(kkt[key] <= limits[key] for key in kkt), (stat, r_eq, r_in, Px, nu)


def kkt_term_scales(qp, x, lam, nu) -> dict[str, float]:
    """For each KKT residual, the largest sum of the magnitudes of the terms
    it adds up: what its rounding error is relative to."""
    P, A_in, A_eq = np.abs(qp.P), np.abs(qp.A_in), np.abs(qp.A_eq)
    r_in = A_in @ np.abs(x) + np.abs(qp.b_in)
    grad = P @ np.abs(x) + np.abs(qp.q) + A_in.T @ np.abs(lam) + A_eq.T @ np.abs(nu)
    return {"stationarity": grad.max(initial=0.0),
            "primal_eq": (A_eq @ np.abs(x) + np.abs(qp.b_eq)).max(initial=0.0),
            "primal_in": r_in.max(initial=0.0),
            "complementarity": (np.abs(lam) * r_in).max(initial=0.0)}


def assert_checks_match_the_dense_check(calls):
    """For each recorded call (args, result) of ``qp._checked``, its residuals
    r are those of :func:`kkt_check_dense`, block by block, to 1e-12 of the
    size of the terms they sum (at least 1): Px to the stationarity's scale,
    nu to the scale of -(A_eq^+)'grad, and the stationarity, which adds
    A_eq' nu, to its own scale plus nu's bound carried through |A_eq|'. The
    two accept the same results, and an accepted one carries the point, the
    multipliers and the dense check's four residuals."""
    for (qp, f, S, r, x, lam_S, qb, tol), sol in calls:
        q, b_eq = qb[: qp.dim], qb[qp.dim :]
        lam, nu, kkt, dense_accepted, dense = kkt_check_dense(qp, f, S, x, lam_S, q, b_eq, tol)
        scales = kkt_term_scales(dataclasses.replace(qp, q=q, b_eq=b_eq, F_q=None, F_eq=None),
                                 x, lam, nu)
        grad = np.abs(qp.P) @ np.abs(x) + np.abs(q) + np.abs(qp.A_in).T @ np.abs(lam)
        nu_scale = (np.abs(f.neg_pinv_T) @ grad).max(initial=0.0)
        err = {key: 1e-12 * max(1.0, scale) for key, scale in scales.items()}
        nu_err = 1e-12 * max(1.0, nu_scale)
        # The stationarity adds A_eq' nu, so each entry also carries the error
        # that nu's own block allows, through |A_eq|'.
        stat_err = err["stationarity"] + nu_err * np.abs(qp.A_eq).sum(axis=0)
        blocks = np.split(r, np.cumsum([qp.dim, b_eq.size, qp.b_in.size, qp.dim]))
        for got, want, bound in zip(blocks, dense, (stat_err, err["primal_eq"], err["primal_in"],
                                                    err["stationarity"], nu_err)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= bound)
        assert (sol is not None) == dense_accepted
        if sol is not None:
            assert np.array_equal(sol.x_star, x) and np.array_equal(sol.in_multipliers, lam)
            assert sol.active_set == tuple(S.rows.tolist())
            for key, value in kkt.items():
                assert abs(sol.kkt_residuals[key] - value) <= 1e-12 * max(1.0, scales[key]), key


def scipys_nnls(ET, norm2, maxiter, start):
    """The least-distance program's NNLS as ``scipy.optimize.nnls`` solves it:
    on every column of E = ET', from zero, with scipy's default iteration
    limit, with the signature and the results of ``qp._nnls`` (``norm2``,
    ``maxiter`` and ``start`` are not read): the columns of positive weight,
    their weights, and whether the residual is zero to rounding
    (|Eu - e| <= (n+1) eps)."""
    from scipy.optimize import nnls

    m, n1 = ET.shape
    if not m:  # nnls on a matrix with no columns aborts the process
        return np.zeros(0, dtype=np.intp), np.zeros(0), False
    e = np.zeros(n1)
    e[-1] = 1.0
    u, rnorm = nnls(ET.T, e)
    P = np.flatnonzero(u > 0.0)
    return P, u[P], rnorm <= n1 * np.finfo(float).eps


def solve_by_both_nnls(solve, qp, theta=()):
    """Solve ``qp`` at theta with ``solve`` (``qp.solve``) twice from the
    support it holds: first with :func:`scipys_nnls` in place of the solver's
    own NNLS, then as it is. Returns the two outcomes, each a result or the
    SolverFailed it raised, and how many NNLS runs the second made (one per
    miss). The QP keeps the support that the second solve stored."""
    from koopmpc import qp as qp_module

    held, own, outcomes, misses = qp._support, qp_module._nnls, [], []

    def counted(*args):
        misses.append(1)
        return own(*args)

    for miss in (scipys_nnls, counted):
        qp._support = held
        qp_module._nnls = miss
        try:
            outcomes.append(solve(qp, theta))
        except qp_module.SolverFailed as exc:
            outcomes.append(exc)
        finally:
            qp_module._nnls = own
    return outcomes[0], outcomes[1], len(misses)


def assert_same_outcome_as_scipys_nnls(qp, theta, want, got):
    """``got`` (the own NNLS) has the status of ``want`` (scipy's), or both
    raised. An Optimal pair has the same active set and the same bits of x. A
    Farkas vector that ``got`` carries passes ``qp._farkas`` against every row
    of A_in."""
    from koopmpc import qp as qp_module

    if isinstance(want, qp_module.SolverFailed) or isinstance(got, qp_module.SolverFailed):
        assert type(got) is type(want), (want, got)
        return
    assert got.status == want.status
    if got.status == qp_module.OPTIMAL:
        assert got.active_set == want.active_set
        assert np.array_equal(got.x_star, want.x_star)
    elif got.in_multipliers is not None:
        f = qp.factors
        b_eq = f.QB[qp.dim :] @ np.append(np.asarray(theta, dtype=float), 1.0)
        assert got.in_multipliers.shape == qp.b_in.shape
        assert qp_module._farkas(qp, f, got.in_multipliers, b_eq) is not None


def assert_null_basis_and_pinv(A_eq):
    """``qp._null_basis`` of A_eq: A_eq Z = 0 to 1e-12 of max(1, max |A_eq|),
    Z'Z = I to 1e-12, a rank d - cols(Z) equal to ``np.linalg.matrix_rank``
    and a pseudo-inverse within 1e-11 of max |A_eq^+| of ``np.linalg.pinv``
    taken with matrix_rank's cut (max(shape) eps of the largest singular
    value)."""
    from koopmpc import qp as qp_module

    Z, pinv_T = qp_module._null_basis(A_eq)
    d = A_eq.shape[1]
    assert Z.shape[0] == d and pinv_T.shape == A_eq.shape
    assert np.max(np.abs(A_eq @ Z), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(A_eq)))
    assert np.max(np.abs(Z.T @ Z - np.eye(Z.shape[1])), initial=0.0) <= 1e-12
    assert d - Z.shape[1] == np.linalg.matrix_rank(A_eq)
    pinv = np.linalg.pinv(A_eq, rcond=max(A_eq.shape) * np.finfo(float).eps)
    assert np.max(np.abs(pinv_T.T - pinv)) <= 1e-11 * np.max(np.abs(pinv))


def null_basis_by_pivoted_qr(A_eq):
    """Z, an orthonormal basis of null(A_eq), and (A_eq^+)', as ``qp._null_basis``
    once took them from one pivoted QR A_eq'[:, piv] = QR: the rank r counts
    the |R_ii| above |R_00| max(shape) eps, Z = Q[:, r:], and with
    Q_1 = Q[:, :r] and R_1 = R[:r], A_eq^+[:, piv] = Q_1 R_1^-T, or
    Q_1 R_2^-1 Q_2' through the QR R_1' = Q_2 R_2 when r is below the row
    count."""
    from scipy.linalg import qr, solve_triangular

    n_eq, d = A_eq.shape
    pinv_T = np.zeros((n_eq, d))
    if n_eq == 0:
        return np.eye(d), pinv_T
    Q, R, piv = qr(A_eq.T, pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > diag[0] * max(A_eq.shape) * np.finfo(float).eps))
    Q1, R1 = Q[:, :rank].T, R[:rank]
    if rank == n_eq:
        pinv_T[piv] = solve_triangular(R1, Q1)
    elif rank:
        Q2, R2 = qr(R1.T, mode="economic")
        pinv_T[piv] = Q2 @ solve_triangular(R2, Q1, trans="T")
    return Q[:, rank:], pinv_T


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


def training_data_by_list(plant, n_traj, traj_len, input_box, state_box, seed):
    """Random-restart rollouts drawn as ``sim.generate_training_data`` draws
    them, each step appended to a list of state arrays that is stacked at the
    end. Returns (states, inputs) of shapes (n_traj, traj_len + 1, n_x) and
    (n_traj, traj_len, n_u)."""
    rng = np.random.default_rng(seed)
    g_x, g_u = state_box.generators.shape[1], input_box.generators.shape[1]
    xi = rng.uniform(-1.0, 1.0, size=(n_traj, g_x + traj_len * g_u))
    inputs = input_box.center + xi[:, g_x:].reshape(n_traj, traj_len, g_u) @ input_box.generators.T
    states = [state_box.center + xi[:, :g_x] @ state_box.generators.T]
    for t in range(traj_len):
        states.append(plant.f(states[-1], inputs[:, t]))
    return np.stack(states, axis=1), inputs


def steady_qp_by_block_diag(model, schedule, s):
    """The steady-pair QP's (P, A_in, b_in, F_q), its blocks placed by
    ``scipy.linalg.block_diag`` and stacked by ``concatenate``/``vstack``."""
    from scipy.linalg import block_diag

    X_N, U_N = schedule.state_sets[-1], schedule.input_sets[-1]
    return (block_diag(2.0 * s * model.C_y.T @ model.C_y, np.zeros((model.n_u, model.n_u))),
            block_diag(X_N.normals @ model.C_x, U_N.normals),
            np.concatenate([X_N.offsets, U_N.offsets]),
            np.vstack([-2.0 * s * model.C_y.T, np.zeros((model.n_u, model.n_y))]))


def transitions(data):
    """The (x, u, x+) triples of every trajectory of a ``TrajectoryData``,
    stacked one trajectory at a time from its (states, inputs) pairs."""
    trajs = data.trajectories
    return (np.vstack([s[:-1] for s, _ in trajs]), np.vstack([u for _, u in trajs]),
            np.vstack([s[1:] for s, _ in trajs]))


def pre_map_by_column_stack(lifting, X):
    """The pre-features of the states X, stacked from their columns: X itself,
    or (p_x, p_y, sin theta, cos theta) for the ``planar_heading`` map."""
    if lifting.pre == "identity":
        return X
    return np.column_stack([X[:, 0], X[:, 1], np.sin(X[:, 2]), np.cos(X[:, 2])])


def lift_by_pow(lifting, X):
    """[X, every monomial of the pre-features by float pow], stacked by hstack."""
    return np.hstack([X, monomials_by_pow(pre_map_by_column_stack(lifting, X), lifting.exponents)])


def fit_edmd_two_lifts(data, lifting, ridge=1e-8, output_matrix=None):
    """EDMD as it was written before each state was lifted once: the x rows and
    the x+ rows of ``transitions(data)`` lifted by two :func:`lift_by_pow`
    calls, then the same regression (least squares for ``ridge=0``). Returns
    (A, B); ``output_matrix`` enters neither."""
    X, U, Xp = transitions(data)
    n_z, n_u = lifting.n_z, U.shape[1]
    Phi = np.hstack([lift_by_pow(lifting, X), U])
    Psi_next = lift_by_pow(lifting, Xp)
    if ridge == 0.0:
        Theta = np.linalg.lstsq(Phi, Psi_next, rcond=None)[0].T
    else:
        G = Phi.T @ Phi + ridge * np.eye(n_z + n_u)
        Theta = np.linalg.solve(G, Phi.T @ Psi_next).T
    return Theta[:, :n_z], Theta[:, n_z:]


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


def step_diagnostics(sol, offline):
    """``controller.diagnostics`` of one step as a run of one: the (1,) cost
    J_N* of ``sol`` and the (1, 2) offset costs of its target and of the
    offline target ``offline``; each entry of the result is (1,)."""
    from koopmpc.controller import diagnostics

    return diagnostics(np.array([sol.total_cost]),
                       np.array([[sol.target.offset_cost, offline.offset_cost]]))


def reference_closed_loop(plant, problem, refs, disturbances=None, T=100, seed=0, x0=None):
    """The closed loop one step at a time, rows kept in lists: each step draws
    its noise with a ``sets.sample`` call per set (W, then V), steps the plant
    inline and recomputes ``y = C x``. Columns get the widths of the run's
    dimensions, so an empty run's columns are (0, n)."""
    from koopmpc.controller import (
        Infeasible, shifted_candidate, solve_steady, solve_step,
    )
    from koopmpc.model import lift
    from koopmpc.sets import margin, sample
    from koopmpc.sim import SimLog, _RefCursor

    rng = np.random.default_rng(seed)
    x = np.zeros(plant.n_x) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    W = disturbances.W if disturbances is not None else None
    V = disturbances.V if disturbances is not None else None
    n_w, n_v = plant.noise_dims
    model, schedule = problem.model, problem.schedule
    n_y = model.n_y
    widths = {"k": None, "x": plant.n_x, "u": plant.n_u, "y": plant.C.shape[0], "y_t": n_y,
              "y_s": n_y, "u_s": plant.n_u, "y_sr": n_y, "J_N": None, "V1": None, "V2": None,
              "feasible": None, "margin_min": None, "state_margin": None,
              "input_margin": None, "w_inj": n_w, "v_inj": n_v}
    dtypes = {"k": int, "feasible": bool}
    rows = {name: [] for name in widths}
    cursor = _RefCursor(refs)
    prev = None

    def build(halted_at):
        out = {}
        for name, width in widths.items():
            col = np.array(rows[name], dtype=dtypes.get(name, float))
            out[name] = col.reshape((len(rows[name]),) + (() if width is None else (width,)))
        return SimLog(reached_steps=tuple(cursor.reached_steps), halted_at=halted_at, **out)

    def append(**kw):
        for name, value in kw.items():
            rows[name].append(value)

    for k in range(T):
        y = plant.C @ x
        y_t = cursor.advance(k, position=y)
        z = lift(model, x)
        cand_margin = np.nan if prev is None else shifted_candidate(problem, prev, z).min()
        try:
            offline = solve_steady(problem, y_t)
            u_k, sol = solve_step(problem, z, y_t)
        except Infeasible:
            append(k=k, x=x, u=np.full(plant.n_u, np.nan), y=y, y_t=y_t,
                   y_s=np.full(n_y, np.nan), u_s=np.full(plant.n_u, np.nan),
                   y_sr=np.full(n_y, np.nan), J_N=np.nan, V1=np.nan, V2=np.nan,
                   feasible=False, margin_min=cand_margin,
                   state_margin=margin(schedule.state_sets[0], x), input_margin=np.nan,
                   w_inj=np.zeros(n_w), v_inj=np.zeros(n_v))
            return build(halted_at=k)
        diag = step_diagnostics(sol, offline)
        w = sample(W, rng) if W is not None else np.zeros(n_w)
        v = sample(V, rng) if V is not None else np.zeros(n_v)
        x_next = plant.f(x[None], np.atleast_1d(u_k)[None])[0]
        if n_w:
            x_next = x_next + w[:n_v] + v
        append(k=k, x=x, u=u_k, y=y, y_t=y_t, y_s=sol.target.y_s, u_s=sol.target.u_s,
               y_sr=offline.y_s, J_N=sol.total_cost, V1=diag.V1[0], V2=diag.V2[0], feasible=True,
               margin_min=cand_margin, state_margin=margin(schedule.state_sets[0], x),
               input_margin=margin(schedule.input_sets[0], u_k), w_inj=w, v_inj=v)
        x = x_next
        prev = sol
    return build(halted_at=None)


def save_log_csv_with_csv_writer(log, path):
    """The log CSV written through ``csv.writer``, one numpy scalar at a time:
    k, x, u, y, y_t, y_s, u_s, J_N, V1, V2, feasible, margin_min."""
    import csv

    def expand(tag, n):
        return [f"{tag}_{i}" for i in range(n)]

    header = (["k"] + expand("x", log.x.shape[1]) + expand("u", log.u.shape[1])
              + expand("y", log.y.shape[1]) + expand("yt", log.y_t.shape[1])
              + expand("ys", log.y_s.shape[1]) + expand("us", log.u_s.shape[1])
              + ["JN", "V1", "V2", "feasible", "margin_min"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(log.k.size):
            row = [int(log.k[i])]
            for arr in (log.x, log.u, log.y, log.y_t, log.y_s, log.u_s):
                row.extend(repr(float(v)) for v in arr[i])
            row.extend(repr(float(v[i])) for v in (log.J_N, log.V1, log.V2))
            row.append(int(log.feasible[i]))
            row.append(repr(float(log.margin_min[i])))
            writer.writerow(row)


# --- the sparse tracking QP: the controller's assembly before it was condensed -------------

class SparseLayout:
    """Slices of the sparse decision vector [u(0..N-1); z(0..N); z_s; u_s]."""

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


def sparse_inequality_blocks(model, schedule, lay: SparseLayout):
    """The tracking QP's inequality blocks in row order, as (set, columns, map into the
    set's space): U~(0..N-1) on u(j), X~(0..N-1) on z(j), X~(N) on z_s, U~(N) on u_s."""
    N = lay.N
    for j in range(N):
        yield schedule.input_sets[j], lay.u(j), None
    for j in range(N):
        yield schedule.state_sets[j], lay.z(j), model.C_x
    yield schedule.state_sets[N], lay.z_s, model.C_x
    yield schedule.input_sets[N], lay.u_s, None


def sparse_tracking_qp(model, config, schedule):
    """The tracking QP in its sparse form, a family in ``theta = (z_k, y_t)``
    with ``z_k = psi(x_k)`` the lifted state and ``y_t`` the reference.

    Decision vector: ``[u(0..N-1); z(0..N); z_s; u_s]``. The first ``n_z``
    equality rows pin ``z(0) = z_k``; then come the dynamics
    ``z(j+1) = A z(j) + B u(j)`` for j = 0..N-1, the steady pair and the
    terminal equality ``z(N) = z_s``. The inequality rows are the blocks of
    :func:`sparse_inequality_blocks`, ``x(0) in X~(0)`` among them, in the
    order of the condensed QP's. Only the pinned right-hand side and the
    offset's linear cost of ``z_s``, ``-2 s C_y' y_t``, depend on theta.
    """
    from koopmpc import qp as qps

    N, n_z, n_u = config.N, model.n_z, model.n_u
    if schedule.horizon != N:
        raise ValueError(f"schedule horizon {schedule.horizon} != config horizon {N}")
    if config.Q.shape != (n_z, n_z) or config.R.shape != (n_u, n_u):
        raise ValueError("Q/R dimensions do not match the model")
    if config.K.shape != (n_u, n_z):
        raise ValueError(f"tube gain K must be {n_u}x{n_z}, got shape {config.K.shape}")
    lay = SparseLayout(N, n_z, n_u)
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
    for S, cols, through in sparse_inequality_blocks(model, schedule, lay):
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


def sparse_candidate_map(model, K, lay: SparseLayout) -> np.ndarray:
    """The shifted candidate on the sparse decision vector as one linear map:
    ``x_c = L @ [x*; z_next]``, with ``x*`` the previous sparse optimum. Every
    step of the candidate's rollout is linear, so rolling it out once on the
    identity gives ``L``, of shape dim x (dim + n_z)."""
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


def sparse_from_condensed(layout) -> np.ndarray:
    """The map T of a condensed decision vector x = [c(0..N-1); z(0); z_s; u_s]
    (of the controller's ``_Layout``) to the sparse one, T x =
    [u(0..N-1); z(0..N); z_s; u_s], through the layout's prediction maps."""
    eye = np.eye(layout.dim)
    return np.vstack([layout.U.reshape(-1, layout.dim), layout.Z.reshape(-1, layout.dim),
                      eye[layout.z_s], eye[layout.u_s]])
