"""Batched numerical core shared by inference, EM, and Fisher estimation.

All routines here carry an explicit leading batch axis so that EM restarts
and finite-difference parameter perturbations advance through the Kalman
recursions as single vectorized numpy operations.  Elements that hit a
numerical failure (singular innovation covariance, rank-deficient M-step
accumulators) are flagged in an ``ok`` mask and frozen with placeholder
values instead of aborting the whole batch.

For a time-invariant LDS the covariance recursion (P_t, S_t, K_t, J_t, V_t)
does not depend on Y and reaches a fixed point after a transient.  The
filter runs the full Joseph-form step until the predicted covariance of
every element still ``ok`` moves by at most ``SETTLE_RTOL`` relative to its
own size in one time update; from then on S, K and log|S| are frozen and
only the mean recursion runs.  The smoother reuses J wherever its inputs
are bitwise equal to the previous step's (exactly the frozen stretch), and
once the smoothed covariance settles by the same test it copies V and the
cross-covariance instead of recomputing them.

Public modules wrap these routines with batch size one; nothing in this
module is part of the package API.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import STABILITY_MARGIN, STABILITY_RESCALE, sym

LOG_2PI = float(np.log(2.0 * np.pi))
#: innovation covariances with conditioning below this are treated as degenerate
DEGENERACY_RCOND = 1e-12
#: relative move below which a covariance recursion counts as settled
SETTLE_RTOL = 8.0 * np.finfo(float).eps
#: eigenvalue floor applied to M-step covariance estimates
COV_FLOOR = 1e-10
#: conditioning limit for M-step accumulator inversions
MSTEP_RCOND = 1e-12


@dataclass
class ParamsBatch:
    """LDS parameters with a leading batch axis."""

    A: np.ndarray    # (B, d, d)
    C: np.ndarray    # (B, p, d)
    R1: np.ndarray   # (B, d, d)
    R2: np.ndarray   # (B, p, p)
    mu0: np.ndarray  # (B, d)
    R0: np.ndarray   # (B, d, d)

    @property
    def B(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[1]

    def copy(self) -> "ParamsBatch":
        return ParamsBatch(*(getattr(self, f).copy()
                             for f in ("A", "C", "R1", "R2", "mu0", "R0")))


def stack_params(params_list) -> ParamsBatch:
    """Stack LdsParams-like objects into a ParamsBatch."""
    return ParamsBatch(
        A=np.stack([p.A for p in params_list]),
        C=np.stack([p.C for p in params_list]),
        R1=np.stack([p.R1 for p in params_list]),
        R2=np.stack([p.R2 for p in params_list]),
        mu0=np.stack([p.mu0 for p in params_list]),
        R0=np.stack([p.R0 for p in params_list]),
    )


def _T(M):
    return np.swapaxes(M, -1, -2)


def _chol_guarded(S, ok):
    """Batched Cholesky; failed elements get the identity and ok[b] = False."""
    try:
        return np.linalg.cholesky(S), ok
    except np.linalg.LinAlgError:
        L = np.empty_like(S)
        eye = np.eye(S.shape[-1])
        for b in range(S.shape[0]):
            try:
                L[b] = np.linalg.cholesky(S[b])
            except np.linalg.LinAlgError:
                S[b] = eye
                L[b] = eye
                ok[b] = False
        return L, ok


def _solve_guarded(M, rhs, ok):
    """Batched solve M x = rhs; singular elements solve against identity."""
    try:
        return np.linalg.solve(M, rhs), ok
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        eye = np.eye(M.shape[-1])
        for b in range(M.shape[0]):
            try:
                out[b] = np.linalg.solve(M[b], rhs[b])
            except np.linalg.LinAlgError:
                out[b] = np.linalg.solve(eye, rhs[b])
                ok[b] = False
        return out, ok


def psd_floor_batch(M, floor=COV_FLOOR):
    """Batched symmetrize + eigenvalue floor; returns (floored, fired-mask)."""
    w, V = np.linalg.eigh(sym(M))
    fired = np.any(w < floor, axis=-1)
    w = np.maximum(w, floor)
    return np.einsum("...ij,...j,...kj->...ik", V, w, V), fired


def _settled(new, old, ok) -> bool:
    """True when every ``ok`` element moved by at most SETTLE_RTOL of its size."""
    move = abs(new - old).max(axis=(-2, -1))
    size = abs(old).max(axis=(-2, -1))
    return bool(((move <= SETTLE_RTOL * size) | ~ok).all())


def _same_as_next(M):
    """Per step t, whether M[:, t] and M[:, t + 1] are bitwise equal for every element."""
    bits = M.view(np.int64)
    return np.all(bits[:, :-1] == bits[:, 1:], axis=(0, 2, 3))


def _innovation_cov(pb: ParamsBatch, P, ok):
    """C P, the innovation covariance S, log|S|, and ok with degenerate S cleared."""
    CP = pb.C @ P                                      # (B, p, d)
    S = sym(CP @ _T(pb.C) + pb.R2)
    L, ok = _chol_guarded(S, ok)
    diag = np.abs(np.diagonal(L, axis1=-2, axis2=-1))
    rcond = (np.min(diag, axis=-1) / np.max(diag, axis=-1)) ** 2
    ok &= rcond >= DEGENERACY_RCOND
    logdet_S = 2.0 * np.sum(np.log(np.maximum(diag, 1e-300)), axis=-1)
    return CP, S, logdet_S, ok


def _joseph(pb: ParamsBatch, P, K):
    """Joseph-form filtered covariance (I - K C) P (I - K C)^T + K R2 K^T."""
    ImKC = np.eye(pb.d) - K @ pb.C
    return sym(ImKC @ P @ _T(ImKC) + K @ pb.R2 @ _T(K))


def filter_batch(pb: ParamsBatch, Y: np.ndarray, store: bool = True) -> dict:
    """Batched Kalman filter with Joseph-form covariance updates.

    Returns a dict with per-element logliks, per-step loglik contributions,
    an ``ok`` mask (False where an innovation covariance degenerated), and,
    when ``store`` is set, the full predicted/filtered trajectories.

    Once the predicted covariance of every ``ok`` element has settled (see
    the module docstring), S, K and log|S| are frozen and the remaining
    steps run only the innovation, its quadratic form and the mean update;
    the stored covariances of those steps are the frozen ones.
    """
    B, d, p = pb.B, pb.d, pb.p
    T = Y.shape[0]
    ok = np.ones(B, dtype=bool)
    x = pb.mu0.copy()              # predicted mean at t
    P = sym(pb.R0)                 # predicted covariance at t
    step_ll = np.zeros((B, T))
    out = {}
    if store:
        out["pred_means"] = np.empty((B, T, d))
        out["pred_covs"] = np.empty((B, T, d, d))
        out["filt_means"] = np.empty((B, T, d))
        out["filt_covs"] = np.empty((B, T, d, d))
    t = 0
    while t < T:
        if store:
            out["pred_means"][:, t] = x
            out["pred_covs"][:, t] = P
        CP, S, logdet_S, ok = _innovation_cov(pb, P, ok)
        innov = Y[t] - np.einsum("bpd,bd->bp", pb.C, x)
        z, ok = _solve_guarded(S, innov[..., None], ok)
        z = z[..., 0]
        step_ll[:, t] = -0.5 * (p * LOG_2PI + logdet_S + np.einsum("bp,bp->b", innov, z))
        KT, ok = _solve_guarded(S, CP, ok)             # (B, p, d) = S^{-1} C P
        K = _T(KT)                                     # (B, d, p)
        x = x + np.einsum("bdp,bp->bd", K, innov)
        Pf = _joseph(pb, P, K)
        if store:
            out["filt_means"][:, t] = x
            out["filt_covs"][:, t] = Pf
        t += 1
        if t == T:
            break
        x = np.einsum("bde,be->bd", pb.A, x)
        P_next = sym(pb.A @ Pf @ _T(pb.A) + pb.R1)
        settled = _settled(P_next, P, ok)
        P = P_next
        if settled:
            break
    if t < T:
        # steady state from step t on: P is the fixed point of the recursion
        CP, S, logdet_S, ok = _innovation_cov(pb, P, ok)
        Sinv, ok = _solve_guarded(S, np.broadcast_to(np.eye(p), S.shape), ok)
        K = _T(Sinv @ CP)
        if store:
            out["pred_covs"][:, t:] = P[:, None]
            out["filt_covs"][:, t:] = _joseph(pb, P, K)[:, None]
        const = p * LOG_2PI + logdet_S
        for s in range(t, T):
            if store:
                out["pred_means"][:, s] = x
            innov = Y[s] - np.einsum("bpd,bd->bp", pb.C, x)
            z = np.einsum("bpq,bq->bp", Sinv, innov)
            step_ll[:, s] = -0.5 * (const + np.einsum("bp,bp->b", innov, z))
            x = x + np.einsum("bdp,bp->bd", K, innov)
            if store:
                out["filt_means"][:, s] = x
            x = np.einsum("bde,be->bd", pb.A, x)
    out["step_loglik"] = step_ll
    out["loglik"] = step_ll.sum(axis=1)
    out["ok"] = ok
    return out


def smooth_batch(pb: ParamsBatch, fr: dict) -> dict:
    """Batched RTS smoother over a stored filter pass.

    The lag-one cross-covariance uses the smoother-gain identity
    Cov(x_{t+1}, x_t | Y) = V_{t+1} J_t^T.  J_t is reused without a solve
    where its inputs equal the previous step's bitwise (the filter's frozen
    stretch); there, once V settles, V and the cross-covariance are copied.
    """
    fm, fP = fr["filt_means"], fr["filt_covs"]
    pm, pP = fr["pred_means"], fr["pred_covs"]
    B, T, d = fm.shape
    ok = fr["ok"].copy()
    means = np.empty_like(fm)
    covs = np.empty_like(fP)
    cross = np.empty((B, max(T - 1, 0), d, d))
    means[:, -1] = fm[:, -1]
    covs[:, -1] = fP[:, -1]
    # reuse[t]: the inputs of J_t are bitwise equal to those of J_{t+1}
    reuse = np.zeros(T, dtype=bool)
    reuse[:T - 2] = _same_as_next(fP)[:-1] & _same_as_next(pP)[1:]
    settled = False
    for t in range(T - 2, -1, -1):
        if not reuse[t]:
            # J_t = P^f_t A^T (P^pred_{t+1})^{-1}
            X, ok = _solve_guarded(pP[:, t + 1], pb.A @ fP[:, t], ok)
            J = _T(X)
            settled = False
        means[:, t] = fm[:, t] + np.einsum("bde,be->bd", J, means[:, t + 1] - pm[:, t + 1])
        if settled:
            covs[:, t] = covs[:, t + 1]
            cross[:, t] = cross[:, t + 1]
        else:
            covs[:, t] = sym(fP[:, t] + J @ (covs[:, t + 1] - pP[:, t + 1]) @ _T(J))
            cross[:, t] = covs[:, t + 1] @ _T(J)
            # the V recursion is time-invariant only while J is reused
            settled = reuse[t - 1] and _settled(covs[:, t], covs[:, t + 1], ok)
    return {"means": means, "covs": covs, "cross": cross, "ok": ok}


def m_step_batch(sm: dict, Y: np.ndarray, fix_observation: bool = False,
                 obs_noise: float = 1e-6) -> tuple[ParamsBatch, np.ndarray, np.ndarray]:
    """Batched M-step returning (params, floor-fired mask, ok mask).

    With ``fix_observation`` the observation model is pinned to C = I and
    R2 = obs_noise * I (observable-state mode); only the state blocks are
    updated.
    """
    m, V, cross = sm["means"], sm["covs"], sm["cross"]
    B, T, d = m.shape
    ok = sm["ok"].copy()
    Z = V + np.einsum("btd,bte->btde", m, m)            # (B, T, d, d)
    Zsum = Z.sum(axis=1)
    S00 = Zsum - Z[:, -1]
    S11 = Zsum - Z[:, 0]
    S10 = cross.sum(axis=1) + np.einsum("btd,bte->bde", m[:, 1:], m[:, :-1])
    ok &= _well_conditioned(S00)
    AT, ok = _solve_guarded(S00, _T(S10), ok)
    A = _T(AT)
    R1 = (S11 - A @ _T(S10)) / (T - 1)
    R1, fired1 = psd_floor_batch(R1)
    if fix_observation:
        C = np.broadcast_to(np.eye(d), (B, d, d)).copy()
        R2 = np.broadcast_to(obs_noise * np.eye(d), (B, d, d)).copy()
        fired2 = np.zeros(B, dtype=bool)
    else:
        Syx = np.einsum("tp,btd->bpd", Y, m)
        ok &= _well_conditioned(Zsum)
        CT, ok = _solve_guarded(Zsum, _T(Syx), ok)
        C = _T(CT)
        Syy = Y.T @ Y
        R2 = (Syy[None] - C @ _T(Syx)) / T
        R2, fired2 = psd_floor_batch(R2)
    mu0 = m[:, 0].copy()
    R0, fired0 = psd_floor_batch(V[:, 0])
    fired = fired1 | fired2 | fired0
    return ParamsBatch(A=A, C=C, R1=R1, R2=R2, mu0=mu0, R0=R0), fired, ok


def _well_conditioned(M, rcond=MSTEP_RCOND):
    w = np.abs(np.linalg.eigvalsh(sym(M)))
    return (np.min(w, axis=-1) / np.maximum(np.max(w, axis=-1), 1e-300)) >= rcond


def enforce_stability_batch(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched stability rescale; returns (A, fired-mask)."""
    rho = np.max(np.abs(np.linalg.eigvals(A)), axis=-1)
    fired = rho > 1.0 - STABILITY_MARGIN
    scale = np.where(fired, STABILITY_RESCALE * rho, 1.0)
    return A / scale[:, None, None], fired


def em_loop(init: ParamsBatch, Y: np.ndarray, eps: float, max_iters: int,
            fix_observation: bool = False, obs_noise: float = 1e-6) -> dict:
    """Run EM on every batch element until its own convergence.

    Convergence is |delta loglik| < eps (absolute).  Elements that fail
    numerically are frozen and reported via the ``failed`` mask; the
    remaining elements keep iterating.
    """
    B = init.B
    cur = init.copy()
    traces = [[] for _ in range(B)]
    rescale_iters = [[] for _ in range(B)]
    prev_ll = np.full(B, np.nan)
    converged = np.zeros(B, dtype=bool)
    failed = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=int)
    final = init.copy()
    for it in range(1, max_iters + 1):
        active = ~(converged | failed)
        if not np.any(active):
            break
        fr = filter_batch(cur, Y, store=True)
        newly_failed = active & ~fr["ok"]
        failed |= newly_failed
        active &= ~newly_failed
        ll = fr["loglik"]
        for b in np.flatnonzero(active):
            traces[b].append(float(ll[b]))
        iterations[active] = it
        just_conv = active & (np.abs(ll - prev_ll) < eps)
        for b in np.flatnonzero(just_conv):
            _write_element(final, cur, b)
        converged |= just_conv
        active &= ~just_conv
        prev_ll = np.where(active, ll, prev_ll)
        if not np.any(active):
            break
        sm = smooth_batch(cur, fr)
        new, _fired, ok = m_step_batch(sm, Y, fix_observation=fix_observation,
                                       obs_noise=obs_noise)
        newly_failed = active & ~ok
        failed |= newly_failed
        active &= ~newly_failed
        A_stable, resc = enforce_stability_batch(new.A)
        new.A = A_stable
        for b in np.flatnonzero(active & resc):
            rescale_iters[b].append(it)
        for b in np.flatnonzero(active):
            _write_element(cur, new, b)
        for b in np.flatnonzero(active):
            _write_element(final, cur, b)
        # freeze failed elements with a benign placeholder so later batched
        # linear algebra stays finite
        for b in np.flatnonzero(failed):
            _neutralize_element(cur, b)
    return {
        "params": final,
        "loglik": np.array([t[-1] if t else -np.inf for t in traces]),
        "traces": traces,
        "converged": converged,
        "failed": failed,
        "iterations": iterations,
        "rescale_iters": rescale_iters,
    }


def _write_element(dst: ParamsBatch, src: ParamsBatch, b: int) -> None:
    for f in ("A", "C", "R1", "R2", "mu0", "R0"):
        getattr(dst, f)[b] = getattr(src, f)[b]


def _neutralize_element(pb: ParamsBatch, b: int) -> None:
    d, p = pb.d, pb.p
    pb.A[b] = 0.0
    pb.C[b] = 0.0
    pb.R1[b] = np.eye(d)
    pb.R2[b] = np.eye(p)
    pb.mu0[b] = 0.0
    pb.R0[b] = np.eye(d)
