"""Tube-feedback gain synthesis: discrete-time LQR by Riccati value iteration
from Q, run in doubling rounds (:func:`dlqr`). Round k ends at the iterate after
2^k - 1 steps, so a closed loop near the unit circle costs a few rounds; the
iteration stops at the first round that leaves P unchanged bit for bit."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np


class NoConvergence(Exception):
    """Riccati iteration stopped before a fixed point, or its result failed the
    certificate of :func:`dlqr`."""


class NotStabilizing(Exception):
    """No Schur-stabilizing gain exists for the given pair (A, B)."""


RICCATI_TOL = 1e-8
# A backstop, not a setting: after 64 rounds (A + BK)^(2^64) underflows in
# double precision for any spectral radius below 1, so P stops changing.
MAX_ROUNDS = 64


@dataclass(frozen=True)
class GainResult:
    """Stabilizing state-feedback gain u = K z with its Riccati certificate.

    Attributes
    ----------
    K : (n_u, n_z) ndarray
        Feedback gain.
    riccati_P : (n_z, n_z) ndarray
        Converged cost-to-go matrix, positive definite; each doubling round
        leaves it exactly symmetric.
    spectral_radius_AK : float
        Largest eigenvalue modulus of A + B K, below 1: :func:`dlqr` raises
        NotStabilizing on any other.
    """

    K: np.ndarray
    riccati_P: np.ndarray
    spectral_radius_AK: float

    def __post_init__(self):
        try:
            np.linalg.cholesky(np.asarray(self.riccati_P, dtype=float))
        except np.linalg.LinAlgError:
            raise ValueError("riccati_P must be positive definite") from None


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix, through the dense
    eigenvalue decomposition (Hessenberg reduction followed by QR iteration)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _as_spd(name: str, M) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must hold finite numbers")
    # np.allclose(M, M.T, atol=1e-10) of a finite M, written out.
    if not (np.abs(M - M.T) <= 1e-10 + 1e-5 * np.abs(M.T)).all():
        raise ValueError(f"{name} must be symmetric")
    M = 0.5 * (M + M.T)
    if np.linalg.eigvalsh(M).min() <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    return M


def _doubling_rounds(A, B, Q, R):
    """Yield the Riccati value iterate P_{2^k - 1} (started from P_0 = Q) after
    each doubling round k = 1, 2, ...; see :func:`dlqr` for the recursion."""
    n = A.shape[0]
    Ak, G, P = A, B @ np.linalg.solve(R, B.T), Q
    G = 0.5 * (G + G.T)
    eye = np.eye(n)
    while True:
        # W = I + GP is similar to I + P^(1/2) G P^(1/2), whose eigenvalues are
        # at least 1, so W is singular only where rounding loses I in GP (as
        # for B = (1, 1)', R = 1 and Q = 2^60 I).
        try:
            WinvAG = np.linalg.solve(eye + G @ P, np.hstack([Ak, G]))
        except np.linalg.LinAlgError:
            raise NoConvergence("the doubling round's W = I + GP is singular: rounding "
                                "lost its I, so the Riccati iteration cannot go on") from None
        WinvA, WinvG = WinvAG[:, :n], WinvAG[:, n:]
        P = P + Ak.T @ P @ WinvA
        P = 0.5 * (P + P.T)
        G = G + Ak @ WinvG @ Ak.T
        G = 0.5 * (G + G.T)
        Ak = Ak @ WinvA
        yield P


def dlqr(A, B, Q_k, R_k) -> GainResult:
    """LQR gain for z+ = A z + B u by Riccati value iteration, taken in doubling rounds.

    The value iteration P <- Q_k + A'PA - A'PB (R_k + B'PB)^{-1} B'PA from
    P = Q_k is run by the structure-preserving doubling algorithm (Chu, Fan &
    Lin 2005). From A_0 = A, G_0 = B R_k^{-1} B', P_0 = Q_k and with
    W = I + G_j P_j, round j computes

        A_{j+1} = A_j W^{-1} A_j
        G_{j+1} = G_j + A_j W^{-1} G_j A_j'
        P_{j+1} = P_j + A_j' P_j W^{-1} A_j

    so after k rounds P_k is the one-step iterate after 2^k - 1 Riccati steps.

    The iteration stops at its floating-point fixed point: the first round
    whose P equals the one before it bit for bit (round 6 on a1 and a2, round
    16 on the unicycle), whatever the size of P. A round that moves P stops
    it early where some entry of P passes 1e12 in magnitude or is NaN (a
    diverging cost-to-go: some unstable mode is out of reach of B), and so
    does the end of MAX_ROUNDS (64) rounds. Returns
    K = -(R_k + B'PB)^{-1} B'PA with the certified closed-loop spectral radius.

    The gain is certified before it is returned: P must be positive definite
    (GainResult's Cholesky factorization), and the Riccati residual
    Q_k + A'PA - P + A'PBK must be within RICCATI_TOL (1e-8) of the sum of its
    four terms' magnitudes, entry by entry. The check reads K and P and
    changes neither.

    Raises
    ------
    NotStabilizing
        The closed loop A + BK is not Schur stable — this covers diverging
        iterations caused by unstabilizable unstable modes.
    NoConvergence
        The iteration stopped at the 1e12 bound or the round cap with a
        stabilizing K, the message naming which; a round's W = I + G_j P_j, or
        the final R_k + B'PB, is singular in floating point; or the converged P
        fails the certificate (not positive definite, or a scaled Riccati
        residual above RICCATI_TOL, named in the message).
    ValueError
        Dimension mismatches or non-SPD weights.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    n = A.shape[0]
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(n, 1)
    if B.shape[0] != n:
        raise ValueError(f"B row count {B.shape[0]} does not match A ({n})")
    Q = _as_spd("Q_k", Q_k)
    R = _as_spd("R_k", R_k)
    if Q.shape[0] != n:
        raise ValueError("Q_k dimension does not match A")
    if R.shape[0] != B.shape[1]:
        raise ValueError("R_k dimension does not match B")

    P, stop = Q, f"reached no fixed point in {MAX_ROUNDS} doubling rounds"
    for P_next in islice(_doubling_rounds(A, B, Q, R), MAX_ROUNDS):
        fixed, P = np.array_equal(P_next, P), P_next
        if fixed or not np.abs(P).max() <= 1e12:  # NaN fails the bound too
            stop = None if fixed else "stopped where |P| passed its divergence bound 1e12"
            break

    try:
        K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    except np.linalg.LinAlgError:
        raise NoConvergence("R_k + B'PB is singular in floating point: no gain "
                            "K = -(R_k + B'PB)^{-1} B'PA") from None
    rho = spectral_radius(A + B @ K)
    if rho >= 1.0:
        raise NotStabilizing(f"closed-loop spectral radius {rho:.6g} >= 1")
    if stop:
        raise NoConvergence(f"Riccati iteration {stop}")
    try:
        gain = GainResult(K=K, riccati_P=P, spectral_radius_AK=rho)
    except ValueError:  # GainResult's one check: P is not positive definite
        raise NoConvergence(
            f"the Riccati matrix P is not positive definite in floating point (smallest "
            f"eigenvalue {np.linalg.eigvalsh(P).min():.3g}, largest entry {np.abs(P).max():.3g})"
        ) from None
    _certify(A, B, Q, K, P)
    return gain


def _certify(A, B, Q, K, P) -> None:
    """Raise NoConvergence unless the Riccati residual Q + A'PA - P + A'PBK,
    where A'PBK = -A'PB (R + B'PB)^{-1} B'PA, is within RICCATI_TOL of the sum
    of its terms' magnitudes, entrywise."""
    APA, APBK = A.T @ P @ A, (B.T @ P @ A).T @ K
    scale = np.abs(Q) + np.abs(APA) + np.abs(P) + np.abs(APBK)
    residual = np.abs(Q + APA - P + APBK)
    scaled = float(np.max(np.divide(residual, scale, out=np.zeros_like(scale), where=scale > 0)))
    if not scaled <= RICCATI_TOL:
        raise NoConvergence(f"Riccati residual {scaled:.3g} of its terms' size exceeds "
                            f"{RICCATI_TOL:g}: P does not solve the Riccati equation")
