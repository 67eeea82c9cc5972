"""Tube-feedback gain synthesis: discrete-time LQR via Riccati value iteration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack


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
        Converged cost-to-go matrix (symmetric positive definite).
    spectral_radius_AK : float
        Largest eigenvalue modulus of A + B K; strictly below 1.
    """

    K: np.ndarray
    riccati_P: np.ndarray
    spectral_radius_AK: float

    def __post_init__(self):
        if not self.spectral_radius_AK < 1.0:
            raise ValueError(
                f"closed loop not Schur stable (rho = {self.spectral_radius_AK})"
            )
        P = np.asarray(self.riccati_P, dtype=float)
        if not np.allclose(P, P.T, atol=1e-9):
            raise ValueError("riccati_P must be symmetric")
        try:
            np.linalg.cholesky(P)
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
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    M = 0.5 * (M + M.T)
    if np.linalg.eigvalsh(M).min() <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    return M


def dlqr(A, B, Q_k, R_k, tol: float = 1e-12, max_iter: int = 10_000) -> GainResult:
    """LQR gain for z+ = A z + B u by value iteration on the Riccati recursion.

    Iterates P <- Q_k + A'PA - A'PB (R_k + B'PB)^{-1} B'PA until the sup-norm
    change drops below `tol`, then returns K = -(R_k + B'PB)^{-1} B'PA together
    with the certified closed-loop spectral radius.

    Raises
    ------
    NotStabilizing
        The closed loop A + BK is not Schur stable — this covers diverging
        iterations caused by unstabilizable unstable modes.
    NoConvergence
        The iteration budget ran out without divergence.
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

    # The loop runs thousands of times on small matrices when rho(A+BK) is
    # near 1, so it calls LAPACK's LU solve (the one np.linalg.solve uses)
    # without np.linalg's per-call checks. S = R + B'PB is positive definite,
    # so no pivot vanishes.
    P = Q.copy()
    converged = False
    for _ in range(max_iter):
        S = R + B.T @ P @ B
        AtP = A.T @ P
        APB = AtP @ B
        P_next = Q + AtP @ A - APB @ lapack.dgesv(S, APB.T)[2]
        P_next = 0.5 * (P_next + P_next.T)
        delta = np.abs(P_next - P).max()
        P = P_next
        if not np.abs(P).max() <= 1e12:
            # Diverging cost-to-go (NaN fails the test too): some unstable
            # mode is out of reach of B.
            break
        if delta <= tol:
            converged = True
            break

    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    rho = spectral_radius(A + B @ K)
    if rho >= 1.0:
        raise NotStabilizing(f"closed-loop spectral radius {rho:.6g} >= 1")
    if not converged:
        raise NoConvergence(f"Riccati iteration did not converge in {max_iter} steps")
    return GainResult(K=K, riccati_P=P, spectral_radius_AK=rho)
