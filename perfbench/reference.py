"""Reference description lengths, computed apart from the program.

The DL of a fitted order is the negative observation loglik at the smoothed
state means, plus half the log-determinant of the stationary observation
covariance C Q C^T + R2 (Q from the discrete Lyapunov equation for A, R1),
plus the order penalty (d/2) log(2 N^2 / (2 pi)^2).  Smoothed means come
from explicit joint-Gaussian conditioning for short sequences and from a
textbook covariance-form Kalman filter and RTS smoother for long ones;
neither shares code with ``ldsmdl._engine``.
"""
from __future__ import annotations

import math

import numpy as np

#: sequences up to this length are smoothed by joint-Gaussian conditioning
JOINT_GAUSSIAN_MAX_T = 200


def smoothed_means_joint(A, C, R1, R2, mu0, R0, Y) -> np.ndarray:
    """E[x_t | y_1..y_T] by conditioning the joint Gaussian of (x, y).

    Cov(x_t, x_s) = A^(t-s) P_s for t >= s, with P_1 = R0 and
    P_{t+1} = A P_t A^T + R1; y_t = C x_t + v_t with independent v_t.
    """
    T, p = Y.shape
    d = A.shape[0]
    P = np.empty((T, d, d))
    mean = np.empty((T, d))
    P[0], mean[0] = R0, mu0
    for t in range(1, T):
        P[t] = A @ P[t - 1] @ A.T + R1
        mean[t] = A @ mean[t - 1]
    powers = np.empty((T, d, d))
    powers[0] = np.eye(d)
    for k in range(1, T):
        powers[k] = A @ powers[k - 1]
    t_idx, s_idx = np.tril_indices(T)
    Sxx = np.zeros((T, T, d, d))
    Sxx[t_idx, s_idx] = powers[t_idx - s_idx] @ P[s_idx]
    Sxx[s_idx, t_idx] = np.swapaxes(Sxx[t_idx, s_idx], -1, -2)
    Sxy = Sxx @ C.T                                     # (T, T, d, p)
    Syy = C @ Sxy                                       # (T, T, p, p)
    Syy[np.arange(T), np.arange(T)] += R2
    Sxy = Sxy.transpose(0, 2, 1, 3).reshape(T * d, T * p)
    Syy = Syy.transpose(0, 2, 1, 3).reshape(T * p, T * p)
    resid = (Y - mean @ C.T).reshape(-1)
    L = np.linalg.cholesky(Syy)
    w = np.linalg.solve(L.T, np.linalg.solve(L, resid))
    return mean + (Sxy @ w).reshape(T, d)


def smoothed_means_rts(A, C, R1, R2, mu0, R0, Y) -> np.ndarray:
    """E[x_t | y_1..y_T] from a textbook Kalman filter and RTS smoother."""
    T = Y.shape[0]
    d = A.shape[0]
    xp, Pp = np.empty((T, d)), np.empty((T, d, d))
    xf, Pf = np.empty((T, d)), np.empty((T, d, d))
    x, P = mu0, R0
    I = np.eye(d)
    for t in range(T):
        xp[t], Pp[t] = x, P
        K = P @ C.T @ np.linalg.inv(C @ P @ C.T + R2)
        x = x + K @ (Y[t] - C @ x)
        P = (I - K @ C) @ P
        xf[t], Pf[t] = x, P
        x, P = A @ x, A @ P @ A.T + R1
    m = np.empty((T, d))
    m[-1] = xf[-1]
    for t in range(T - 2, -1, -1):
        J = Pf[t] @ A.T @ np.linalg.inv(Pp[t + 1])
        m[t] = xf[t] + J @ (m[t + 1] - xp[t + 1])
    return m


def description_length(params, Y: np.ndarray, order: int) -> float:
    """Reference DL of fitted ``params`` (an object with A, C, R1, R2, mu0,
    R0) on observations ``Y`` of shape (N, p)."""
    from scipy.linalg import solve_discrete_lyapunov

    A, C, R1, R2 = (np.asarray(params.A), np.asarray(params.C),
                    np.asarray(params.R1), np.asarray(params.R2))
    mu0, R0 = np.asarray(params.mu0), np.asarray(params.R0)
    N, p = Y.shape
    smooth = smoothed_means_joint if N <= JOINT_GAUSSIAN_MAX_T else smoothed_means_rts
    means = smooth(A, C, R1, R2, mu0, R0, Y)
    resid = Y - means @ C.T
    _, logdet_r2 = np.linalg.slogdet(R2)
    quad = np.einsum("tp,tp->", resid @ np.linalg.inv(R2), resid)
    fit = 0.5 * (N * (p * math.log(2.0 * math.pi) + logdet_r2) + quad)
    Q = solve_discrete_lyapunov(A, R1)
    _, logdet_obs = np.linalg.slogdet(C @ Q @ C.T + R2)
    penalty = 0.5 * order * math.log(2.0 * N * N / (2.0 * math.pi) ** 2)
    return float(fit + 0.5 * logdet_obs + penalty)
