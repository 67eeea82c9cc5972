"""Tube-feedback gain synthesis: discrete-time LQR by Riccati value iteration
from Q, run in doubling rounds (:func:`dlqr`). Round k ends at the iterate after
2^k - 1 steps, so a closed loop near the unit circle costs a few rounds;
``max_iter`` counts Riccati steps and ``tol`` bounds a round's change."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np


class NoConvergence(Exception):
    """Riccati iteration did not converge within the iteration budget."""


class NotStabilizing(Exception):
    """No Schur-stabilizing gain exists for the given pair (A, B)."""


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
    # np.allclose(M, M.T, atol=1e-10), written out: equal entries (an infinity
    # and itself too), or a finite M' entry within 1e-10 + 1e-5 |M'| of M's.
    Mt = M.T
    with np.errstate(invalid="ignore"):  # inf - inf
        symmetric = ((np.abs(M - Mt) <= 1e-10 + 1e-5 * np.abs(Mt)) & np.isfinite(Mt) | (M == Mt))
    if not symmetric.all():
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


def dlqr(A, B, Q_k, R_k, tol: float = 1e-12, max_iter: int = 10_000) -> GainResult:
    """LQR gain for z+ = A z + B u by Riccati value iteration, taken in doubling rounds.

    The value iteration P <- Q_k + A'PA - A'PB (R_k + B'PB)^{-1} B'PA from
    P = Q_k is run by the structure-preserving doubling algorithm (Chu, Fan &
    Lin 2005). From A_0 = A, G_0 = B R_k^{-1} B', P_0 = Q_k and with
    W = I + G_j P_j, round j computes

        A_{j+1} = A_j W^{-1} A_j
        G_{j+1} = G_j + A_j W^{-1} G_j A_j'
        P_{j+1} = P_j + A_j' P_j W^{-1} A_j

    so after k rounds P_k is the one-step iterate after 2^k - 1 Riccati steps.

    `max_iter` counts Riccati steps: a round that would take the count past
    it is not taken, so a budget is used only up to its largest 2^k - 1, and
    a budget that would admit the one-step iteration's own step count may
    fall short of the next power of two. The shipped scenarios need 63 of
    10,000 steps (a1, a2) and 65,535 of 300,000 (the unicycle). The iterates
    rise monotonically from Q_k, so a round's sup-norm change bounds every
    one-step change inside it: the iteration has converged when that change
    is at most `tol`. Returns
    K = -(R_k + B'PB)^{-1} B'PA with the certified closed-loop spectral radius.

    Raises
    ------
    NotStabilizing
        The closed loop A + BK is not Schur stable — this covers diverging
        iterations caused by unstabilizable unstable modes.
    NoConvergence
        The iteration budget ran out without divergence, or a round's
        W = I + G_j P_j, or the final R_k + B'PB, is singular in floating
        point.
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

    # Round k ends after 2^k - 1 steps: the most rounds within max_iter steps.
    rounds = (max(max_iter, 0) + 1).bit_length() - 1
    P = Q
    converged = False
    for P_next in islice(_doubling_rounds(A, B, Q, R), rounds):
        delta = np.abs(P_next - P).max()
        P = P_next
        if not np.abs(P).max() <= 1e12:
            # Diverging cost-to-go (NaN fails the test too): some unstable
            # mode is out of reach of B.
            break
        if delta <= tol:
            converged = True
            break

    try:
        K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    except np.linalg.LinAlgError:
        raise NoConvergence("R_k + B'PB is singular in floating point: no gain "
                            "K = -(R_k + B'PB)^{-1} B'PA") from None
    rho = spectral_radius(A + B @ K)
    if rho >= 1.0:
        raise NotStabilizing(f"closed-loop spectral radius {rho:.6g} >= 1")
    if not converged:
        raise NoConvergence(f"Riccati iteration did not converge in {max_iter} steps")
    return GainResult(K=K, riccati_P=P, spectral_radius_AK=rho)
