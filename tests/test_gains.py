import re
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from koopmpc import gains
from koopmpc.gains import (
    RICCATI_TOL,
    GainResult,
    NoConvergence,
    NotStabilizing,
    _as_spd,
    _doubling_rounds,
    dlqr,
    spectral_radius,
)
from oracles import numerical_example_matrices, riccati_value_iterates, scalar_dare_root

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9, abs=1e-12)


def test_spectral_radius_scaled_rotation():
    theta = 0.73
    rot = 0.7 * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert spectral_radius(rot) == pytest.approx(0.7, abs=1e-10)


def test_spectral_radius_open_loop_benchmark():
    A, _ = numerical_example_matrices(-0.1, 2.0)
    assert spectral_radius(A) == pytest.approx(2.0, abs=1e-10)


def test_spectral_radius_of_an_empty_matrix_is_zero():
    assert spectral_radius(np.zeros((0, 0))) == 0.0


def test_dlqr_takes_a_single_input_as_a_vector():
    A, B = numerical_example_matrices(-0.1, 2.0)
    column, vector = dlqr(A, B, np.eye(3), np.eye(1)), dlqr(A, B[:, 0], np.eye(3), np.eye(1))
    assert column.K.tobytes() == vector.K.tobytes()


def test_spectral_radius_rejects_nonsquare():
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((2, 3)))


def test_dlqr_scalar_matches_quadratic_formula():
    # Closed-form oracle: positive root of P^2 - 0.25 P - 1 = 0.
    p_expected = scalar_dare_root(0.5, 1.0, 1.0, 1.0)
    assert p_expected == pytest.approx(1.1327822185373186, abs=1e-12)

    res = dlqr(np.array([[0.5]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    p = res.riccati_P[0, 0]
    k = res.K[0, 0]
    assert p == pytest.approx(p_expected, abs=1e-9)
    assert p == pytest.approx(1.13278, abs=1e-5)
    assert k == pytest.approx(-0.5 * p_expected / (1.0 + p_expected), abs=1e-9)
    assert k == pytest.approx(-0.26556, abs=1e-5)
    assert 0.5 + k == pytest.approx(0.23444, abs=1e-5)
    assert res.spectral_radius_AK == pytest.approx(0.5 + k, abs=1e-10)


def test_dlqr_deadbeat_plant_needs_no_feedback():
    res = dlqr(np.zeros((2, 2)), np.array([[1.0], [0.5]]), np.eye(2), np.eye(1))
    assert np.allclose(res.K, 0.0, atol=1e-12)
    assert res.spectral_radius_AK == pytest.approx(0.0, abs=1e-12)


def test_dlqr_uncontrollable_unstable_raises():
    with pytest.raises(NotStabilizing):
        dlqr(np.array([[2.0]]), np.array([[0.0]]), np.eye(1), np.eye(1))


def test_dlqr_benchmark_closed_loop_spectrum():
    # Only x2 is controllable; its scalar subproblem (a=2, b=1, q=r=1) has
    # P = 2 + sqrt(5) and closed-loop pole a*r/(r + P) = (3 - sqrt(5))/2.
    # The x1 and x3 modes are untouched, so the spectrum is known exactly.
    A, B = numerical_example_matrices(-0.1, 2.0)
    res = dlqr(A, B, np.eye(3), np.eye(1))
    pole = (3.0 - np.sqrt(5.0)) / 2.0
    eigs = np.sort(np.abs(np.linalg.eigvals(A + B @ res.K)))
    assert np.allclose(eigs, np.sort(np.abs([-0.1, pole, 0.01])), atol=1e-9)
    assert res.spectral_radius_AK == pytest.approx(pole, abs=1e-9)

    p2 = scalar_dare_root(2.0, 1.0, 1.0, 1.0)
    assert p2 == pytest.approx(2.0 + np.sqrt(5.0), abs=1e-12)
    assert res.K[0, 1] == pytest.approx(-2.0 * p2 / (1.0 + p2), abs=1e-8)


def test_dlqr_riccati_residual_small():
    rng = np.random.default_rng(7)
    A = 0.9 * rng.standard_normal((4, 4)) / 2
    B = rng.standard_normal((4, 2))
    res = dlqr(A, B, np.eye(4), np.eye(2))
    P = res.riccati_P
    S = np.eye(2) + B.T @ P @ B
    back = np.eye(4) + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(S, B.T @ P @ A)
    assert np.max(np.abs(P - back)) <= 10 * 1e-12
    # P must be symmetric positive definite.
    assert np.allclose(P, P.T, atol=1e-12)
    assert np.linalg.eigvalsh(P).min() > 0


def test_dlqr_error_dynamics_contract():
    A, B = numerical_example_matrices(-0.1, 2.0)
    res = dlqr(A, B, np.eye(3), np.eye(1))
    AK = A + B @ res.K
    rng = np.random.default_rng(3)
    for _ in range(5):
        e = rng.standard_normal(3)
        e0 = np.linalg.norm(e)
        for _ in range(50):
            e = AK @ e
        assert np.linalg.norm(e) < 1e-3 * e0


def test_dlqr_rejects_indefinite_weights():
    with pytest.raises(ValueError):
        dlqr(np.eye(2) * 0.5, np.eye(2), np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError):
        dlqr(np.eye(2) * 0.5, np.eye(2), np.eye(2), np.zeros((2, 2)))


def test_dlqr_names_the_round_cap_when_it_stops_there(monkeypatch):
    # The benchmark pair reaches its fixed point in round 6; a cap of 5 rounds
    # stops it short, with a stabilizing gain.
    A, B = numerical_example_matrices(-0.1, 2.0)
    monkeypatch.setattr(gains, "MAX_ROUNDS", 5)
    with pytest.raises(NoConvergence, match="^Riccati iteration reached no fixed point in 5 "
                                            "doubling rounds$"):
        dlqr(A, B, np.eye(3), np.eye(1))


def test_dlqr_names_the_divergence_bound_when_it_stops_there():
    # P starts at Q = 1e13 I, past the bound, although the plant is stable.
    with pytest.raises(NoConvergence, match="divergence bound 1e12"):
        dlqr(np.array([[0.5]]), np.array([[1.0]]), 1e13 * np.eye(1), np.eye(1))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_doubling_rounds_equal_one_step_iterates(seed):
    # Round k ends at the one-step value iterate P_{2^k - 1}; the random
    # pairs are generically controllable and mostly open-loop unstable.
    rng = np.random.default_rng(seed)
    A = 0.6 * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 2))
    Q, R = np.diag([1.0, 2.0, 0.5, 1.0]), np.diag([1.0, 3.0])
    iterates = riccati_value_iterates(A, B, Q, R, 2**6 - 1)
    for k, P in enumerate(islice(_doubling_rounds(A, B, Q, R), 6), start=1):
        expected = iterates[2**k - 1]
        assert np.abs(P - expected).max() <= 1e-12 * np.abs(expected).max()


def test_dlqr_near_unit_closed_loop_matches_are():
    # Open-loop modes 1.02 (actuated) and 0.999 (barely actuated), mixed by a
    # rotation: rho(A + BK) is about 0.999, like the unicycle's lifted model.
    c, s = np.cos(0.4), np.sin(0.4)
    T = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    A = T @ np.array([[1.02, 0.0, 0.0], [0.0, 0.999, 0.01], [0.0, 0.0, 0.5]]) @ T.T
    B = T @ np.array([[1.0], [1e-3], [0.2]])
    Q, R = np.eye(3), np.array([[100.0]])
    assert np.abs(np.linalg.eigvals(A)).max() > 1.0
    res = dlqr(A, B, Q, R)
    assert 0.998 < res.spectral_radius_AK < 1.0
    X = solve_discrete_are(A, B, Q, R)
    P = res.riccati_P
    assert np.abs(P - X).max() <= 1e-8 * np.abs(X).max()
    AtPB = A.T @ P @ B
    step = Q + A.T @ P @ A - AtPB @ np.linalg.solve(R + B.T @ P @ B, AtPB.T)
    # P is the iteration's fixed point: one more step moves it by rounding.
    assert np.abs(step - P).max() <= 1e-14 * np.abs(P).max()


def fixed_point_round(A, B, Q, R):
    """The first doubling round whose P equals the one before it bit for bit,
    and that P."""
    before = Q
    for k, P in enumerate(islice(_doubling_rounds(A, B, Q, R), 64), start=1):
        if np.array_equal(P, before):
            return k, P
        before = P
    raise AssertionError("no fixed point in 64 rounds")


def test_dlqr_stops_at_the_first_round_that_leaves_P_unchanged():
    # The benchmark pair's round 5 still moves P (by 3.4e-12); round 6 does
    # not, and dlqr returns its iterate, that of 63 one-step Riccati steps.
    A, B = numerical_example_matrices(-0.1, 2.0)
    Q, R = np.eye(3), np.eye(1)
    k, P = fixed_point_round(A, B, Q, R)
    assert k == 6
    assert dlqr(A, B, Q, R).riccati_P.tobytes() == P.tobytes()
    iterates = riccati_value_iterates(A, B, Q, R, 2**k - 1)
    assert np.abs(P - iterates[2**k - 1]).max() <= 1e-12 * np.abs(P).max()


def test_jointly_scaled_weights_give_the_same_gain_bit_for_bit():
    # (Q, R) -> 2^k (Q, R) scales every iterate by 2^k exactly, so the fixed
    # point is reached in the same round and K is bit-equal. From k = 38 on,
    # Q itself passes the divergence bound 1e12.
    A, B = numerical_example_matrices(-0.1, 2.0)
    K = dlqr(A, B, np.eye(3), np.eye(1)).K
    for k in range(-60, 37):
        scale = 2.0**k
        assert dlqr(A, B, scale * np.eye(3), scale * np.eye(1)).K.tobytes() == K.tobytes(), k


def test_gain_result_validates_its_invariants():
    # Its rho < 1 is dlqr's NotStabilizing test, made on the same rho just before.
    with pytest.raises(ValueError, match="riccati_P must be positive definite"):
        GainResult(K=np.zeros((1, 1)), riccati_P=-np.eye(1), spectral_radius_AK=0.5)


def test_dlqr_gives_exactly_symmetric_riccati_matrices(seed=5):
    # GainResult no longer checks symmetry: every doubling round makes P exact.
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((4, 4)), rng.standard_normal((4, 2))
    M = rng.standard_normal((4, 4))
    res = dlqr(A, B, M @ M.T + np.eye(4), np.eye(2))
    assert np.array_equal(res.riccati_P, res.riccati_P.T)


@pytest.mark.parametrize("shapes, named", [
    (((2, 3), (2, 1), (2, 2), (1, 1)), r"A must be square, got shape \(2, 3\)"),
    (((2, 2), (3, 1), (2, 2), (1, 1)), r"B row count 3 does not match A \(2\)"),
    (((2, 2), (2, 1), (3, 3), (1, 1)), "Q_k dimension does not match A"),
    (((2, 2), (2, 1), (2, 2), (2, 2)), "R_k dimension does not match B"),
    (((2, 2), (2, 1), (2, 3), (1, 1)), r"Q_k must be square, got shape \(2, 3\)"),
], ids=["A-not-square", "B-rows", "Q_k-size", "R_k-size", "Q_k-not-square"])
def test_dlqr_rejects_mismatched_shapes(shapes, named):
    # An identity in each square position, ones elsewhere.
    args = [np.eye(*shape) if shape[0] == shape[1] else np.ones(shape) for shape in shapes]
    with pytest.raises(ValueError, match=named):
        dlqr(*args)


def passes_the_symmetry_test(M) -> bool:
    """Whether ``_as_spd`` lets M past its symmetry test (it may refuse it later)."""
    try:
        _as_spd("M", M)
    except ValueError as exc:
        return "must be symmetric" not in str(exc)
    return True


def _near(value, steps=2):
    """``value`` and its 2 * steps nearest doubles."""
    out = [value]
    for direction in (np.inf, -np.inf):
        v = value
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return out


# Off-diagonal pairs (M[0, 1], M[1, 0]) of [[2, a], [b, 2]]: at and around
# the absolute bound 1e-10 (b = 0) and the relative one 1e-5 |b| (b = 1e3,
# where it dominates), NaN and infinities.
SYMMETRY_PAIRS = (
    [(a, 0.0) for a in _near(1e-10)] + [(0.0, -a) for a in _near(1e-10)]
    + [(a, 1e3) for a in _near(1e3 + (1e-10 + 1e-5 * 1e3))]
    + [(-1e3, -a) for a in _near(1e3 + (1e-10 + 1e-5 * 1e3))]
    + [(np.nan, 1.0), (np.nan, np.nan), (np.inf, np.inf), (-np.inf, -np.inf),
       (np.inf, -np.inf), (np.inf, 1.0), (1.0, -np.inf), (np.inf, np.nan)]
)


def test_the_symmetry_test_gives_np_allclose_verdicts():
    # The test written out in _as_spd against np.allclose(M, M.T, atol=1e-10)
    # on both sides of its bounds. Non-finite entries, off and on the
    # diagonal and symmetric or not, are refused before it.
    verdicts = []
    for a, b in SYMMETRY_PAIRS:
        M = np.array([[2.0, a], [b, 2.0]])
        if not np.isfinite(M).all():
            with pytest.raises(ValueError, match="^M must hold finite numbers$"):
                _as_spd("M", M)
            continue
        verdicts.append(passes_the_symmetry_test(M))
        assert verdicts[-1] == np.allclose(M, M.T, atol=1e-10), (a, b)
    assert any(verdicts) and not all(verdicts)
    for d in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^M must hold finite numbers$"):
            _as_spd("M", np.diag([d, 1.0]))


@pytest.mark.parametrize("M", [[[1.0, np.inf], [np.inf, 1.0]], [[np.inf]], [[np.nan]],
                               [[1.0, 0.0], [0.0, -np.inf]]],
                         ids=["symmetric-inf", "inf", "nan", "negative-inf"])
def test_weights_that_are_not_finite_are_refused_by_name(M):
    with pytest.raises(ValueError, match="^Q_k must hold finite numbers$"):
        dlqr(np.eye(len(M)) * 0.5, np.ones((len(M), 1)), M, np.eye(1))
    with pytest.raises(ValueError, match="^R_k must hold finite numbers$"):
        dlqr(np.eye(len(M)) * 0.5, np.ones((len(M), len(M))), np.eye(len(M)), M)


def test_the_symmetry_test_gives_np_allclose_verdicts_on_random_near_symmetric_matrices():
    rng = np.random.default_rng(7)
    verdicts = []
    for _ in range(500):
        n = int(rng.integers(1, 5))
        S = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-12, 6)
        M = S + S.T + rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-16, -3)
        verdicts.append(passes_the_symmetry_test(M))
        assert verdicts[-1] == np.allclose(M, M.T, atol=1e-10)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("A", [[[0.5, 0.1], [0.0, 0.9]], [[2.0, 1.0], [0.0, 1.5]]],
                         ids=["stable", "unstable"])
def test_a_W_that_rounding_makes_singular_raises_no_convergence(A):
    # With Q = 2^60 I the first W = I + 2^60 (1, 1)'(1, 1) loses its I: it is
    # exactly singular, so no round of the doubling recursion can be taken.
    A, B, Q = np.array(A), np.array([[1.0], [1.0]]), 2.0**60 * np.eye(2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.eye(2) + B @ B.T @ Q, np.eye(2))
    with pytest.raises(NoConvergence, match=re.escape("W = I + GP is singular")):
        dlqr(A, B, Q, np.eye(1))


def test_a_singular_final_solve_raises_no_convergence():
    # B'PB of this one-state, two-input system has rank 1 and entries near
    # 8.4e12, which swamp R = 3.58e-5 I: R + B'PB is singular in floating
    # point, and the gain K = -(R + B'PB)^{-1} B'PA cannot be formed.
    A, B, Q, R = [[0.5]], [[3.4e3, 3.4e3]], [[7.27e5]], 3.58e-5 * np.eye(2)
    with pytest.raises(NoConvergence, match=re.escape("R_k + B'PB is singular")):
        dlqr(A, B, Q, R)


def _scaled_riccati_residual(A, B, Q, R, K, P):
    """max |Q + A'PA - P - A'PB (R + B'PB)^-1 B'PA| over the sum of the four
    terms' magnitudes, entrywise, with the middle term formed from R."""
    APA, BPA = A.T @ P @ A, B.T @ P @ A
    APBK = -BPA.T @ np.linalg.solve(R + B.T @ P @ B, BPA)
    scale = np.abs(Q) + np.abs(APA) + np.abs(P) + np.abs(APBK)
    return float(np.max(np.abs(Q + APA - P + APBK) / scale))


def test_a_riccati_matrix_rounded_indefinite_raises_no_convergence():
    # The lifted benchmark with Q = 1e-10 I and R = 1e6: P's entries reach
    # 3e6, which swamps its smallest eigenvalue, near 1e-10, so P is not
    # positive definite in floating point. GainResult would refuse it with a
    # ValueError; dlqr refuses it first.
    A, B = numerical_example_matrices(-0.1, 2.0)
    with pytest.raises(NoConvergence, match="P is not positive definite"):
        dlqr(A, B, 1e-10 * np.eye(3), 1e6 * np.eye(1))
    assert dlqr(A, B, 1e-10 * np.eye(3), 1e4 * np.eye(1)).riccati_P[0, 0] > 0.0


def test_every_gain_returned_on_an_extreme_scale_draw_passes_its_certificate():
    # n 1-5, m 1-2, with B, Q and R scaled by 10^U(-8, 8): each gain dlqr
    # returns solves the Riccati equation to RICCATI_TOL of its terms' size,
    # checked here with the middle term formed from R (not from K), and has
    # a positive definite P. Of 500 systems dlqr returns 348 gains and
    # refuses 55 with NoConvergence from the certificate: 52 residuals above
    # the bound (some near 1) and 3 P that are not positive definite. The
    # other 97 are refused before it: 49 not stabilizable, 24 with a singular
    # W, 22 stopped by the divergence bound and 2 with a singular R + B'PB.
    rng, returned, refused, not_stabilizing = np.random.default_rng(0), 0, [], 0
    for _ in range(500):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-8, 8)
        M = rng.standard_normal((n, n))
        Q = (M @ M.T + 0.1 * np.eye(n)) * 10.0 ** rng.uniform(-8, 8)
        M = rng.standard_normal((m, m))
        R = (M @ M.T + 0.1 * np.eye(m)) * 10.0 ** rng.uniform(-8, 8)
        try:
            gain = dlqr(A, B, Q, R)
        except NoConvergence as exc:
            refused.append(str(exc))
            continue
        except NotStabilizing:
            not_stabilizing += 1
            continue
        returned += 1
        assert _scaled_riccati_residual(A, B, Q, R, gain.K, gain.riccati_P) <= 2 * RICCATI_TOL
        np.linalg.cholesky(gain.riccati_P)
    assert returned == 348 and not_stabilizing == 49
    assert sum("Riccati residual" in msg for msg in refused) == 52
    assert sum("P is not positive definite" in msg for msg in refused) == 3
    assert sum("W = I + GP is singular" in msg for msg in refused) == 24
    assert sum("divergence bound 1e12" in msg for msg in refused) == 22
    assert sum("R_k + B'PB is singular" in msg for msg in refused) == 2
    assert len(refused) == 55 + 24 + 22 + 2


@pytest.mark.parametrize("name, rounds", [("a1", 6), ("a2", 6), ("unicycle_square", 16)])
def test_the_shipped_gains_solve_the_riccati_equation_to_rounding(name, rounds):
    # The certificate is a check: the shipped gains pass it with residuals
    # near eps (1.1e-16 on a1 and a2, 2.0e-16 on the unicycle), and their K
    # is scipy's to 5.6e-10 of its size. Their P is the doubling iterate of
    # the round that first leaves P unchanged: round 6 on a1 and a2 (round 5
    # moves P by 3.4e-12) and round 16 on the unicycle (round 15 by 1.6e-7).
    from koopmpc import cli

    stack = cli.build_stack(SCENARIOS / f"{name}.json")
    lqr = stack.sc["controller"]["lqr"]
    model, n_z, n_u = stack.model, stack.model.n_z, stack.model.B.shape[1]
    Q, R = lqr["Qk"] * np.eye(n_z), lqr["Rk"] * np.eye(n_u)
    gain = dlqr(model.A, model.B, Q, R)
    k, P_k = fixed_point_round(model.A, model.B, Q, R)
    assert k == rounds and gain.riccati_P.tobytes() == P_k.tobytes()
    P = solve_discrete_are(model.A, model.B, Q, R)
    K = -np.linalg.solve(R + model.B.T @ P @ model.B, model.B.T @ P @ model.A)
    assert np.max(np.abs(gain.K - K)) <= 1e-9 * np.max(np.abs(K))
    assert _scaled_riccati_residual(model.A, model.B, Q, R, gain.K, gain.riccati_P) <= 1e-15
