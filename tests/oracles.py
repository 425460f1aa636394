"""Independent brute-force references used by the tests.

Everything here works on the explicit joint Gaussian of (x_{1:T}, y_{1:T}),
on direct series summation, or on the textbook per-step recursions written
out for one sequence at a time, never on the batched code paths under test.
"""
import dataclasses

import numpy as np

from ldsmdl.model import STABILITY_MARGIN, STABILITY_RESCALE


def joint_gaussian(params, T):
    """Mean and covariance of the stacked vector (x_{1:T}, y_{1:T}).

    Built from the linear map of the independent noise vector
    (x1-noise, w_1..w_{T-1}, v_1..v_T).
    """
    d, p = params.d, params.d_out
    ne = d * T + p * T
    cov_e = np.zeros((ne, ne))
    cov_e[:d, :d] = params.R0
    for t in range(T - 1):
        i = d + t * d
        cov_e[i:i + d, i:i + d] = params.R1
    for t in range(T):
        i = d * T + t * p
        cov_e[i:i + p, i:i + p] = params.R2
    Gx = np.zeros((T * d, ne))
    mean_x = np.zeros(T * d)
    mean_x[:d] = params.mu0
    Gx[:d, :d] = np.eye(d)
    for t in range(1, T):
        mean_x[t * d:(t + 1) * d] = params.A @ mean_x[(t - 1) * d:t * d]
        Gx[t * d:(t + 1) * d] = params.A @ Gx[(t - 1) * d:t * d]
        Gx[t * d:(t + 1) * d, d + (t - 1) * d:d + t * d] += np.eye(d)
    Gy = np.zeros((T * p, ne))
    mean_y = np.zeros(T * p)
    for t in range(T):
        mean_y[t * p:(t + 1) * p] = params.C @ mean_x[t * d:(t + 1) * d]
        Gy[t * p:(t + 1) * p] = params.C @ Gx[t * d:(t + 1) * d]
        Gy[t * p:(t + 1) * p, d * T + t * p:d * T + (t + 1) * p] += np.eye(p)
    S_xx = Gx @ cov_e @ Gx.T
    S_xy = Gx @ cov_e @ Gy.T
    S_yy = Gy @ cov_e @ Gy.T
    return mean_x, mean_y, S_xx, S_xy, S_yy


def joint_loglik(params, Y):
    """log N(vec(Y); mean, cov) of the stacked observation vector."""
    T = Y.shape[0]
    _, mean_y, _, _, S_yy = joint_gaussian(params, T)
    r = Y.reshape(-1) - mean_y
    L = np.linalg.cholesky(S_yy)
    z = np.linalg.solve(L, r)
    return float(-0.5 * (r.size * np.log(2 * np.pi)
                         + 2 * np.sum(np.log(np.diag(L))) + z @ z))


def smoothed_moments(params, Y):
    """Posterior means/covariances/lag-one cross-covariances of x_{1:T} | Y
    by explicit Gaussian conditioning."""
    T = Y.shape[0]
    d = params.d
    mean_x, mean_y, S_xx, S_xy, S_yy = joint_gaussian(params, T)
    K = S_xy @ np.linalg.inv(S_yy)
    post_mean = mean_x + K @ (Y.reshape(-1) - mean_y)
    post_cov = S_xx - K @ S_xy.T
    means = post_mean.reshape(T, d)
    covs = np.array([post_cov[t * d:(t + 1) * d, t * d:(t + 1) * d]
                     for t in range(T)])
    cross = np.array([post_cov[t * d:(t + 1) * d, (t - 1) * d:t * d]
                      for t in range(1, T)]).reshape(T - 1, d, d)
    return means, covs, cross


def lyapunov_series(A, W, terms=200):
    """Truncated series sum_{m=0}^{terms} A^m W (A^T)^m."""
    Q = np.array(W, dtype=float)
    Am = np.eye(A.shape[0])
    for _ in range(terms):
        Am = Am @ A
        Q = Q + Am @ W @ Am.T
    return Q


def textbook_step_logliks(params, Y):
    """Per-step innovation logliks of the textbook Kalman filter
    (Anderson & Moore 1979, ch. 3), one step at a time with the covariance
    updated at every step.  Returns None when an innovation covariance is
    not positive definite.

    ``params`` needs only the attributes A, C, R1, R2, mu0 and R0.
    """
    return _textbook_filter(params, Y)[0]


def _textbook_filter(params, Y):
    A, C, R1, R2 = params.A, params.C, params.R1, params.R2
    x, P = np.array(params.mu0, dtype=float), np.array(params.R0, dtype=float)
    T, p = Y.shape
    d = x.size
    step_ll = np.empty(T)
    xp, Pp = np.empty((T, d)), np.empty((T, d, d))
    xf, Pf = np.empty((T, d)), np.empty((T, d, d))
    for t in range(T):
        xp[t], Pp[t] = x, P
        S = C @ P @ C.T + R2
        try:
            L = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return None, None
        Sinv = np.linalg.inv(S)
        r = Y[t] - C @ x
        step_ll[t] = -0.5 * (p * np.log(2 * np.pi) + 2 * np.sum(np.log(np.diag(L)))
                             + r @ Sinv @ r)
        K = P @ C.T @ Sinv
        x = x + K @ r
        P = P - K @ S @ K.T
        xf[t], Pf[t] = x, P
        x = A @ x
        P = A @ P @ A.T + R1
    return step_ll, (xp, Pp, xf, Pf)


def textbook_smoother(params, Y):
    """Textbook Kalman filter and RTS smoother (Rauch, Tung & Striebel 1965;
    Shumway & Stoffer 1982), stepped at every step with no freezing, the
    gain J_t solved per step by ``np.linalg.solve`` from
    P^pred_{t+1} J_t^T = A P^f_t, and the lag-one cross-covariance
    Cov(x_{t+1}, x_t | Y) = V_{t+1} J_t^T.

    Returns (loglik, means, covs, cross).
    """
    step_ll, (xp, Pp, xf, Pf) = _textbook_filter(params, Y)
    A = params.A
    T, d = xf.shape
    means, covs = xf.copy(), Pf.copy()
    cross = np.empty((T - 1, d, d))
    for t in range(T - 2, -1, -1):
        J = np.linalg.solve(Pp[t + 1], A @ Pf[t]).T
        means[t] = xf[t] + J @ (means[t + 1] - xp[t + 1])
        covs[t] = Pf[t] + J @ (covs[t + 1] - Pp[t + 1]) @ J.T
        cross[t] = covs[t + 1] @ J.T
    return float(step_ll.sum()), means, covs, cross


def guarded_solve(M, rhs, ok):
    """Batched solve M x = rhs by LU, with failed and singular elements
    solved against the identity and cleared in ``ok`` (in place).  M may hold
    several matrices per element, (B, H, n, n): an element fails when any of
    its matrices is singular."""
    M = np.where(ok.reshape((-1,) + (1,) * (M.ndim - 1)), M, np.eye(M.shape[-1]))
    try:
        return np.linalg.solve(M, rhs), ok
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for b in range(M.shape[0]):
            try:
                out[b] = np.linalg.solve(M[b], rhs[b])
            except np.linalg.LinAlgError:
                out[b] = rhs[b]
                ok[b] = False
        return out, ok


def _sym(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _reference_tangent_innovation(params, dirs, P, dP):
    """C P, S^{-1} and K^T of ``params`` at predicted covariance P, with
    S = C P C^T + R2, and d(C P) and dS along every direction given dP."""
    C = params.C
    CP = C @ P
    sol = np.linalg.solve(_sym(CP @ C.T + params.R2),
                          np.concatenate((CP, np.eye(C.shape[0])), axis=-1))
    KT, Sinv = sol[:, :CP.shape[1]], sol[:, CP.shape[1]:]
    CdP = C @ dP
    H = dirs.C @ CP.T                                  # dC P C^T
    dS = _sym(H + np.swapaxes(H, -1, -2) + CdP @ C.T + dirs.R2)
    return CP, Sinv, KT, dirs.C @ P + CdP, dS


def reference_tangent_fisher(params, fr, Y, dirs, chunk=2 ** 15):
    """The tangent-linear empirical Fisher sum_t g_t g_t^T as the package
    computed it before its products were flattened: every product of an
    (n, a, b) direction stack is numpy's stacked matmul, every block of
    every direction enters, and the information takes one update per block
    of L steps, L = max(1, chunk // (n max(d, p))).  ``fr`` is the filter
    pass of ``params`` (read by attribute) and ``dirs`` the n directions
    as a batch with fields A, C, R1, R2, mu0 and R0.
    """
    T_ = lambda M: np.swapaxes(M, -1, -2)
    A, C = params.A, params.C
    T, p = Y.shape
    n, d = dirs.A.shape[0], A.shape[0]
    # a block that no direction moves is None: its zero derivatives enter
    zero = {"C": (n, p, d), "R2": (n, p, p)}
    dirs = dataclasses.replace(dirs, **{f: np.zeros(shape) for f, shape in zero.items()
                                        if getattr(dirs, f) is None})
    s = fr.switch
    xp, Pp, xf, Pf = fr.pred_means, fr.pred_covs, fr.filt_means, fr.filt_covs
    L = max(1, chunk // (n * max(d, p)))
    info = np.zeros((n, n))
    dx, dP = dirs.mu0.copy(), _sym(dirs.R0)
    rows = []
    for t in range(s):
        CP, Sinv, KT, dCP, dS = _reference_tangent_innovation(params, dirs, Pp[t], dP)
        r = Y[t] - C @ xp[t]
        v = Sinv @ r
        dr = -(dirs.C @ xp[t]) - dx @ C.T
        rows.append(-0.5 * (dS.reshape(n, -1) @ (Sinv - np.outer(v, v)).ravel()) - dr @ v)
        if len(rows) == L or t == s - 1:
            G = np.array(rows)
            info += G.T @ G
            rows = []
        if t == T - 1:
            break
        dKT = Sinv @ (dCP - dS @ KT)
        dxf = dx + r @ dKT + dr @ KT
        dPf = dP - T_(dCP) @ KT - CP.T @ dKT
        H = dirs.A @ (Pf[t] @ A.T)                     # dA P^f A^T
        dx = dirs.A @ xf[t] + dxf @ A.T
        dP = _sym(H + T_(H) + A @ dPf @ A.T + dirs.R1)
    if s == T:
        return info
    CP, Sinv, KT, dCP, dS = _reference_tangent_innovation(params, dirs, Pp[s], dP)
    dKT = Sinv @ (dCP - dS @ KT)
    AK = A @ KT.T
    FT = np.ascontiguousarray(T_(A - AK @ C))
    W = np.concatenate((dirs.A, A @ T_(dKT), -AK @ dirs.C), axis=2).reshape(n * d, -1)
    c = -0.5 * (dS.reshape(n, -1) @ Sinv.ravel())
    coef = np.concatenate((0.5 * dS.reshape(n, -1), dirs.C.reshape(n, -1)), axis=1)
    r = Y[s:] - xp[s:] @ C.T
    v = r @ Sinv
    Z = np.concatenate((xf[s:], r, xp[s:]), axis=1)
    for lo in range(0, T - s, L):
        hi = min(lo + L, T - s)
        U = (Z[lo:hi] @ W.T).reshape(hi - lo, n, d)
        dxs = np.empty_like(U)
        dxs[0] = dx
        for j in range(1, hi - lo):
            np.matmul(dxs[j - 1], FT, out=dxs[j])
            dxs[j] += U[j - 1]
        dx = dxs[-1] @ FT + U[-1]
        vb = v[lo:hi, :, None]
        VX = np.concatenate(((vb * v[lo:hi, None]).reshape(hi - lo, -1),
                             (vb * xp[s + lo:s + hi, None]).reshape(hi - lo, -1)), axis=1)
        G = c + VX @ coef.T + (dxs @ (v[lo:hi] @ C)[:, :, None])[..., 0]
        info += G.T @ G
    return info


def eigvals_stability(A):
    """``enforce_stability_batch`` by ``eigvals`` alone: the spectral radius
    of every (B, d, d) matrix, and each one above 1 - STABILITY_MARGIN
    divided by STABILITY_RESCALE times it; returns (A, fired-mask)."""
    rho = np.max(np.abs(np.linalg.eigvals(A)), axis=-1)
    fired = rho > 1.0 - STABILITY_MARGIN
    return A / np.where(fired, STABILITY_RESCALE * rho, 1.0)[:, None, None], fired
