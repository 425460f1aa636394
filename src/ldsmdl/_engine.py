"""Batched numerical core shared by inference, EM, and Fisher estimation.

All routines here carry an explicit leading batch axis so that EM restarts
and finite-difference parameter perturbations advance through the Kalman
recursions as single vectorized numpy operations.  Elements that hit a
numerical failure (singular innovation covariance, rank-deficient M-step
accumulators) are flagged in an ``ok`` mask instead of aborting the whole
batch; the filter carries the identity as the predicted covariance of
such an element and holds its means at zero, and the smoother zeroes its
gains, so later passes over the batch stay finite.

For a time-invariant LDS the covariance recursion (P_t, S_t, K_t, J_t, V_t)
does not depend on Y and reaches a fixed point after a transient.  The
filter runs the full step until the predicted covariance of every element
still ``ok`` moves by at most ``SETTLE_RTOL`` relative to its own size in
one time update.  A transient step factors S once (Cholesky, for the ``ok``
test and log|S|), solves S^{-1} [C P | r] once for K^T and S^{-1} r, and
takes the filtered covariance in standard form, P - K S K^T = P - (C P)^T K^T.
From the switch on, S, K^T and S^{-1} (one solve S^{-1} [C P | I]) are
frozen and the predicted mean follows the linear time-invariant recursion
x_{s+1} = F x_s + G y_s, F = A (I - K C), G = A K.
That recursion runs as a blocked prefix scan (``_affine_scan``): about
3 sqrt(N) batched products for N frozen steps, sqrt(N) of them for the
powers of F, instead of N interpreted steps; the innovations, their
quadratic forms and the filtered means are then whole-stretch products.

The filter hands its switch step to the smoother, which mirrors it in two
phases: J of every transient step and the one J shared by the frozen steps
are solved in one batched call before the backward walk.  On the frozen
steps the smoothed means run through the same affine scan backward, and V
through a blocked scan of the congruence map V -> P^f + J (V - P^pred) J^T
(``_congruence_scan``): block starts are carried with J^L, each block is
filled from its start in one product, and the carry stops at the first
block start that has settled by the same test, after which V and the
cross-covariance are one copy.  V settles at the rate P did, so its
blocks are sized by the switch: L = ceil(sqrt(min(s, n))) for the switch
s and n frozen steps.  The transient steps are then stepped with plain
products, and their cross-covariances are one product.

Only the filter's scan goes chunk by chunk, so that memory stays bounded:
a chunk has n = SCAN_CHUNK // (B w) steps, w = max(d, p), so its (B, n, w)
arrays hold at most ``SCAN_CHUNK`` doubles (a scan pads its block array
by fewer than sqrt(n) + 1 steps).  An EM batch scans its whole frozen
stretch at once; the Fisher perturbations (B d in the thousands, no stored
trajectories) get chunks of a few steps, where the scan saves little over
stepping.  The smoother returns (B, T, d, d) covariances, so chunking its
scans would bound no memory.

Public modules wrap these routines with batch size one; nothing in this
module is part of the package API.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PARAM_FIELDS, enforce_stability_batch, sym

LOG_2PI = float(np.log(2.0 * np.pi))
#: innovation covariances with conditioning below this are treated as degenerate
DEGENERACY_RCOND = 1e-12
#: relative move below which a covariance recursion counts as settled
SETTLE_RTOL = 8.0 * np.finfo(float).eps
#: doubles in each (B, n, width) array of one chunk of the filter's scan
SCAN_CHUNK = 2 ** 15
#: eigenvalue floor applied to M-step covariance estimates
COV_FLOOR = 1e-10
#: conditioning limit for M-step accumulator inversions
MSTEP_RCOND = 1e-12
#: fixed observation noise scale in observable-state mode
OBSERVABLE_MODE_NOISE = 1e-6


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
        return ParamsBatch(*(getattr(self, f).copy() for f in PARAM_FIELDS))

    def where(self, mask: np.ndarray, other: "ParamsBatch") -> "ParamsBatch":
        """Element b from self where mask[b], else from other."""
        def pick(a, b):
            return np.where(mask.reshape((-1,) + (1,) * (a.ndim - 1)), a, b)
        return ParamsBatch(*(pick(getattr(self, f), getattr(other, f))
                             for f in PARAM_FIELDS))


def stack_params(params_list) -> ParamsBatch:
    """Stack LdsParams-like objects into a ParamsBatch."""
    return ParamsBatch(*(np.stack([getattr(p, f) for p in params_list])
                         for f in PARAM_FIELDS))


def _T(M):
    return np.swapaxes(M, -1, -2)


def _identity_where_failed(M, ok):
    """M with the elements already marked not ``ok`` swapped for the identity;
    the caller's M is never written.  M is (B, .., n, n)."""
    if ok.all():
        return M
    return np.where(ok.reshape((-1,) + (1,) * (M.ndim - 1)), M, np.eye(M.shape[-1]))


def _chol_guarded(S, ok):
    """Batched Cholesky; failed elements get the identity and ok[b] = False.

    Elements already failed factor the identity, so the per-element loop
    runs only on the step where an element newly fails.
    """
    S = _identity_where_failed(S, ok)
    try:
        return np.linalg.cholesky(S), ok
    except np.linalg.LinAlgError:
        L = np.empty_like(S)
        eye = np.eye(S.shape[-1])
        for b in range(S.shape[0]):
            try:
                L[b] = np.linalg.cholesky(S[b])
            except np.linalg.LinAlgError:
                L[b] = eye
                ok[b] = False
        return L, ok


def _solve_guarded(M, rhs, ok):
    """Batched solve M x = rhs; failed and singular elements solve against
    the identity.  M may hold several matrices per element, (B, H, n, n):
    an element fails when any of its matrices is singular."""
    M = _identity_where_failed(M, ok)
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


def _finite_or_identity(M, ok):
    """M with the elements that hold a non-finite entry cleared in ``ok``
    (in place) and, like the elements already failed, swapped for the
    identity, so that an eigen-routine can take the whole batch."""
    ok &= np.isfinite(M).all(axis=(-2, -1))
    return _identity_where_failed(M, ok)


def psd_floor_batch(M):
    """Batched symmetrize + eigenvalue floor at COV_FLOOR; returns
    (floored, fired-mask)."""
    w, V = np.linalg.eigh(sym(M))
    fired = np.any(w < COV_FLOOR, axis=-1)
    w = np.maximum(w, COV_FLOOR)
    return np.einsum("...ij,...j,...kj->...ik", V, w, V), fired


def _settled(new, old, ok) -> bool:
    """True when every ``ok`` element moved by at most SETTLE_RTOL of its size."""
    move = abs(new - old).max(axis=(-2, -1))
    size = abs(old).max(axis=(-2, -1))
    return bool(((move <= SETTLE_RTOL * size) | ~ok).all())


def _chunk_len(B: int, width: int) -> int:
    """Steps per chunk so that a (B, n, width) array holds at most SCAN_CHUNK doubles."""
    return max(1, SCAN_CHUNK // (B * width))


def _scan_powers(M, n: int):
    """M, M^2, .., M^L side by side as one (B, d, L d) array, for a scan of
    n steps: L = ceil(sqrt(n)).  M is (B, d, d) and C-contiguous."""
    B, d, _ = M.shape
    L = math.isqrt(max(n, 1) - 1) + 1
    powers = np.empty((B, d, L * d))
    powers[:, :, :d] = M
    for i in range(1, L):
        powers[:, :, i * d:(i + 1) * d] = powers[:, :, (i - 1) * d:i * d] @ M
    return powers


def _affine_scan(powers, u, x0):
    """All states of x_{i+1} = x_i M + u_i from x_0 = x0, as a blocked scan.

    States are rows, so M is the transpose of the usual transition matrix.
    ``powers`` holds M .. M^L (see ``_scan_powers``), u is (B, n, d) with
    n >= 1 and x0 is (B, d); returns the (B, n + 1, d) states x_0 .. x_n.
    The n steps are cut into K = ceil(n / L) blocks of L: L - 1 batched
    products scan inside every block at once from a zero start, the block
    start states are carried with M^L in K - 1 steps, and each block's
    start times M^(i+1) is added back in one product.  With
    L = ceil(sqrt(n)) that is about 2 sqrt(n) products instead of n steps.
    """
    B, n, d = u.shape
    L = powers.shape[-1] // d
    K = -(-n // L)
    x = np.empty((B, K * L + 1, d))
    x[:, 0] = x0
    x[:, 1:n + 1] = u
    x[:, n + 1:] = 0.0
    w = x[:, 1:].reshape(B, K, L, d)                   # a view: block k, step i
    M = powers[:, :, :d]
    for i in range(1, L):
        w[:, :, i] += w[:, :, i - 1] @ M
    starts = np.empty((B, K, d))
    starts[:, 0] = x0
    ML = powers[:, :, -d:]
    for k in range(1, K):
        starts[:, k] = (starts[:, k - 1, None] @ ML)[:, 0] + w[:, k - 1, -1]
    w += (starts @ powers).reshape(B, K, L, d)
    return x[:, :n + 1]


def _innovation_cov(pb: ParamsBatch, P, CT, ok):
    """C P, the innovation covariance S, the diagonal of its Cholesky factor,
    and ok with degenerate S cleared.  CT is C^T, contiguous."""
    CP = pb.C @ P                                      # (B, p, d)
    S = sym(CP @ CT + pb.R2)
    L, ok = _chol_guarded(S, ok)
    diag = np.abs(np.diagonal(L, axis1=-2, axis2=-1))    # a copy: L is not kept
    ok &= (diag.min(axis=-1) / diag.max(axis=-1)) ** 2 >= DEGENERACY_RCOND
    return CP, S, diag, ok


def _log_det(diag):
    """log|S| from the diagonal of the Cholesky factor of S."""
    return 2.0 * np.sum(np.log(np.maximum(diag, 1e-300)), axis=-1)


def filter_batch(pb: ParamsBatch, Y: np.ndarray, store: bool = True,
                 ok: np.ndarray | None = None) -> dict:
    """Batched Kalman filter; the filtered covariance is P - (C P)^T K^T.

    Returns a dict with per-element logliks, per-step loglik contributions,
    an ``ok`` mask (False where an innovation covariance degenerated), the
    ``switch`` step (the first frozen step, T when the filter never froze)
    and, when ``store`` is set, the full predicted/filtered trajectories.
    Elements that are False in the caller's ``ok`` (all True by default)
    are treated as failed from step 0.

    A transient step solves S once for the gain and the innovation together;
    the log-dets and quadratic forms of the transient enter the step logliks
    after it.  Once the predicted covariance of every ``ok`` element has
    settled (see the module docstring), S, K and log|S| are frozen, the means
    of the remaining steps come from a blocked scan and their innovations
    and quadratic forms from whole-stretch products; the stored covariances
    of those steps are the frozen ones.
    """
    B, d, p = pb.B, pb.d, pb.p
    T = Y.shape[0]
    ok = np.ones(B, dtype=bool) if ok is None else ok.copy()
    x = pb.mu0.copy()              # predicted mean at t
    P = sym(pb.R0)                 # predicted covariance at t
    # transposed views slow every batched product they enter: made contiguous once
    AT = np.ascontiguousarray(_T(pb.A))
    CT = np.ascontiguousarray(_T(pb.C))
    step_ll = np.zeros((B, T))
    diags, quads = [], []          # per transient step: (B, p) and (B,)
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
        CP, S, diag, ok = _innovation_cov(pb, P, CT, ok)
        innov = Y[t] - np.einsum("bpd,bd->bp", pb.C, x)
        # S^{-1} [C P | r]: the transposed gain and S^{-1} r in one solve
        sol, ok = _solve_guarded(S, np.concatenate((CP, innov[..., None]), axis=-1), ok)
        KT = sol[..., :d]                              # (B, p, d) = S^{-1} C P
        diags.append(diag)
        quads.append(np.einsum("bp,bp->b", innov, sol[..., d]))
        x = x + np.einsum("bpd,bp->bd", KT, innov)
        if not ok.all():
            x[~ok] = 0.0               # a failed element's mean is held at zero
        Pf = sym(P - _T(CP) @ KT)                      # P - K S K^T
        if store:
            out["filt_means"][:, t] = x
            out["filt_covs"][:, t] = Pf
        t += 1
        if t == T:
            break
        x = np.einsum("bde,be->bd", pb.A, x)
        P_next = sym(pb.A @ Pf @ AT + pb.R1)
        settled = _settled(P_next, P, ok)
        # an element already not ok carries the identity: its placeholder
        # covariance cannot grow without bound
        P = _identity_where_failed(P_next, ok)
        if settled:
            break
    step_ll[:, :t] = -0.5 * (p * LOG_2PI + _log_det(np.stack(diags, axis=1))
                             + np.stack(quads, axis=1))
    if t < T:
        # steady state from step t on: P is the fixed point of the recursion
        CP, S, diag, ok = _innovation_cov(pb, P, CT, ok)
        # S^{-1} [C P | I]: the transposed gain and S^{-1} in one solve
        sol, ok = _solve_guarded(S, np.concatenate(
            (CP, np.broadcast_to(np.eye(p), S.shape)), axis=-1), ok)
        KT, Sinv = sol[..., :d], sol[..., d:]          # (B, p, d) and (B, p, p)
        if store:
            out["pred_covs"][:, t:] = P[:, None]
            out["filt_covs"][:, t:] = sym(P - _T(CP) @ KT)[:, None]
        # the predicted mean follows x_{s+1} = F x_s + G y_s with G = A K and
        # F = A - G C; as rows, x_{s+1} = x_s F^T + y_s G^T.  Y is shared by
        # the batch, so y_s G^T of every element is one product with the
        # (p, B d) matrix G_all.  A failed element gets K = 0 and F = 0, so
        # its means stay at zero.
        KT[~ok] = 0.0
        G_all = np.ascontiguousarray(np.swapaxes(KT @ AT, 0, 1))
        G_all = G_all.reshape(p, B * d)
        GT = np.swapaxes(G_all.reshape(p, B, d), 0, 1)
        FT = np.ascontiguousarray(_T(pb.A - _T(GT) @ pb.C))
        FT[~ok] = 0.0
        n = _chunk_len(B, max(d, p))
        powers = _scan_powers(FT, min(n, T - t))
        const = (p * LOG_2PI + _log_det(diag))[:, None]
        for lo in range(t, T, n):
            hi = min(lo + n, T)
            u = (Y[lo:hi] @ G_all).reshape(hi - lo, B, d).swapaxes(0, 1)
            xs = _affine_scan(powers, u, x)
            x = xs[:, -1]
            xs = xs[:, :-1]                            # predicted means of lo..hi-1
            innov = Y[lo:hi] - xs @ CT
            # r^T S^{-1} r, with S^{-1} applied from the right
            step_ll[:, lo:hi] = -0.5 * (const + np.einsum("bsp,bsp->bs", innov,
                                                          innov @ Sinv))
            if store:
                out["pred_means"][:, lo:hi] = xs
                out["filt_means"][:, lo:hi] = xs + innov @ KT
    out["step_loglik"] = step_ll
    out["loglik"] = step_ll.sum(axis=1)
    out["ok"] = ok
    out["switch"] = t
    return out


def _congruence_powers(J, F, G, n: int):
    """J^j and S_j = F + sum_{0<i<j} J^i (F - G) (J^T)^i for j = 1..L,
    L = ceil(sqrt(n)), as two (B, L, d, d) arrays: the block operators of
    ``_congruence_scan`` for the map W -> F + J (W - G) J^T."""
    B, d, _ = J.shape
    L = math.isqrt(max(n, 1) - 1) + 1
    powers = np.empty((B, L, d, d))
    powers[:, 0] = J
    for j in range(1, L):
        powers[:, j] = powers[:, j - 1] @ J
    sums = np.empty_like(powers)
    sums[:, 0] = F
    sums[:, 1:] = F[:, None] + np.cumsum(powers[:, :-1] @ (F - G)[:, None]
                                         @ _T(powers[:, :-1]), axis=1)
    return powers, sums


def _congruence_scan(powers, sums, G, W0, n: int, ok):
    """The (B, m, d, d) states W_1 .. W_m of W_{i+1} = sym(F + J (W_i - G) J^T)
    from W_0 = W0, m <= n, as a blocked scan.

    ``powers`` and ``sums`` come from ``_congruence_powers``.  The block
    starts W_0, W_L, W_2L, .. are carried with J^L one at a time, and every
    block is then filled from its start in one product,
    W_{kL+j} = J^j (W_{kL} - G) (J^T)^j + S_j; for j = 1 that is the plain
    step.  The carry stops at the first block start that has settled against
    the one before it (``_settled``): W has reached its fixed point there,
    so m is that start's step and the steps after it are copies of W_m.
    """
    B, L, d, _ = powers.shape
    K = -(-n // L)
    JL, JLT, SL = powers[:, -1], _T(powers[:, -1]), sums[:, -1]
    starts = [W0]
    settled = False
    while len(starts) < K and not settled:
        starts.append(sym(JL @ (starts[-1] - G) @ JLT + SL))
        settled = _settled(starts[-1], starts[-2], ok)
    X = np.stack(starts[:len(starts) - settled], axis=1)[:, :, None]    # (B, k, 1, d, d)
    W = powers[:, None] @ (X - G[:, None, None]) @ _T(powers)[:, None]   # (B, k, L, d, d)
    return sym(W + sums[:, None]).reshape(B, -1, d, d)[:, :n]


def smooth_batch(pb: ParamsBatch, fr: dict) -> dict:
    """Batched RTS smoother over a stored filter pass.

    The lag-one cross-covariance uses the smoother-gain identity
    Cov(x_{t+1}, x_t | Y) = V_{t+1} J_t^T.  The smoother reads the filter's
    ``switch`` and mirrors it in two phases, cut at s = min(switch, T - 1):
    J_0 .. J_{s-1} of the transient steps and J_s, which every later step
    shares, are solved in one batched call.  On the steps s .. T-2 the means
    are one backward affine scan and V one backward congruence scan, with
    blocks sized by s, that stops once V settles; the transient steps
    s-1 .. 0 are then stepped with plain products.  Elements that are not
    ``ok`` keep their filtered means and covariances.
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
    s = min(fr["switch"], T - 1)
    # J_t = P^f_t A^T (P^pred_{t+1})^{-1} for t = 0..s, t < T - 1, in one (B, H, d, d) solve
    H = min(s + 1, T - 1)
    JT, ok = _solve_guarded(pP[:, 1:H + 1], pb.A[:, None] @ fP[:, :H], ok)
    JT[~ok] = 0.0                  # a failed element's smoothed means are its filtered ones
    if s < T - 1:
        n = T - 1 - s                  # the frozen steps s .. T-2
        JTs = np.ascontiguousarray(JT[:, s])
        u = fm[:, s:-1] - pm[:, s + 1:] @ JTs
        means[:, s:-1] = _affine_scan(_scan_powers(JTs, n), u[:, ::-1], means[:, -1])[:, :0:-1]
        # V_t = P^f + J (V_{t+1} - P^pred) J^T, scanned backward until V settles;
        # V settles at the rate P did, so its blocks are sized by the switch
        powers, sums = _congruence_powers(np.ascontiguousarray(_T(JTs)), fP[:, s],
                                          pP[:, -1], min(s, n))
        W = _congruence_scan(powers, sums, pP[:, -1], covs[:, -1], n, ok)
        lo = T - 1 - W.shape[1]
        covs[:, lo:-1] = W[:, ::-1]
        np.matmul(covs[:, lo + 1:], JTs[:, None], out=cross[:, lo:])
        covs[:, s:lo] = covs[:, lo, None]
        cross[:, s:lo] = (covs[:, lo] @ JTs)[:, None]
    # the transient, stepped backward: m_t = J m_{t+1} + (fm_t - J pm_{t+1}),
    # with every bracket in one product
    u = fm[:, :s] - (pm[:, 1:s + 1, None] @ JT[:, :s])[:, :, 0]
    for t in range(s - 1, -1, -1):
        means[:, t] = (means[:, t + 1, None] @ JT[:, t])[:, 0] + u[:, t]
        covs[:, t] = sym(fP[:, t] + _T(JT[:, t]) @ (covs[:, t + 1] - pP[:, t + 1]) @ JT[:, t])
    cross[:, :s] = covs[:, 1:s + 1] @ JT[:, :s]
    return {"means": means, "covs": covs, "cross": cross, "ok": ok}


def m_step_batch(sm: dict, Y: np.ndarray,
                 fix_observation: bool = False) -> tuple[ParamsBatch, np.ndarray, np.ndarray]:
    """Batched M-step returning (params, floor-fired mask, ok mask).

    With ``fix_observation`` the observation model is pinned to C = I and
    R2 = OBSERVABLE_MODE_NOISE * I (observable-state mode); only the state
    blocks are updated.

    An element whose moments, accumulators or estimates overflow fails like
    a degenerate one: every matrix that reaches an eigen-routine, and the
    returned A, hold the identity for a failed element.
    """
    m, V, cross = sm["means"], sm["covs"], sm["cross"]
    B, T, d = m.shape
    ok = sm["ok"].copy()
    Z = V + np.einsum("btd,bte->btde", m, m)            # (B, T, d, d)
    Zsum = _finite_or_identity(Z.sum(axis=1), ok)
    S00 = _finite_or_identity(Zsum - Z[:, -1], ok)
    S11 = Zsum - Z[:, 0]
    S10 = cross.sum(axis=1) + np.einsum("btd,bte->bde", m[:, 1:], m[:, :-1])
    ok &= _well_conditioned(S00)
    AT, ok = _solve_guarded(S00, _T(S10), ok)
    A = _T(_finite_or_identity(AT, ok))
    R1, fired1 = psd_floor_batch(_finite_or_identity((S11 - A @ _T(S10)) / (T - 1), ok))
    if fix_observation:
        C = np.broadcast_to(np.eye(d), (B, d, d)).copy()
        R2 = np.broadcast_to(OBSERVABLE_MODE_NOISE * np.eye(d), (B, d, d)).copy()
        fired2 = np.zeros(B, dtype=bool)
    else:
        Syx = np.einsum("tp,btd->bpd", Y, m)
        ok &= _well_conditioned(Zsum)
        CT, ok = _solve_guarded(Zsum, _T(Syx), ok)
        C = _T(CT)
        Syy = Y.T @ Y
        R2, fired2 = psd_floor_batch(_finite_or_identity((Syy[None] - C @ _T(Syx)) / T, ok))
    mu0 = m[:, 0].copy()
    R0, fired0 = psd_floor_batch(_finite_or_identity(V[:, 0], ok))
    fired = fired1 | fired2 | fired0
    return ParamsBatch(A=A, C=C, R1=R1, R2=R2, mu0=mu0, R0=R0), fired, ok


def _well_conditioned(M):
    w = np.abs(np.linalg.eigvalsh(sym(M)))
    return (np.min(w, axis=-1) / np.maximum(np.max(w, axis=-1), 1e-300)) >= MSTEP_RCOND


def em_loop(init: ParamsBatch, Y: np.ndarray, eps: float, max_iters: int,
            fix_observation: bool = False) -> dict:
    """Run EM on every batch element until its own convergence.

    Each pass filters the whole batch; while some element is active it then
    smooths and takes an M-step.  An element converges when one M-step moves
    its loglik by less than ``eps`` (absolute), and stops after ``max_iters``
    M-steps, whose result is filtered once more.  Elements that fail
    numerically keep their last parameters, which the filter and smoother
    mask, and are flagged in ``failed``; later passes hand ``~failed`` to
    the filter as its starting ``ok`` mask, so it never factors them again.
    Returns the last filtered ``params``, their ``loglik`` (-inf where
    failed), the M-steps of each element (``iterations``), the (passes, B)
    logliks of every pass (``traces``; element b's own are its first
    iterations[b] + 1 rows) and the (M-steps, B) mask of stability rescales.
    """
    B = init.B
    cur = init.copy()
    converged = np.zeros(B, dtype=bool)
    failed = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=int)
    traces, rescales = [], []
    active = np.ones(B, dtype=bool)
    while True:
        last = len(traces) == max_iters
        fr = filter_batch(cur, Y, store=not last, ok=~failed)
        failed |= active & ~fr["ok"]
        active &= fr["ok"]
        ll = fr["loglik"]
        if traces:
            converged |= active & (np.abs(ll - traces[-1]) < eps)
            active &= ~converged
        traces.append(ll)
        if last or not np.any(active):
            break
        sm = smooth_batch(cur, fr)
        new, _fired, ok = m_step_batch(sm, Y, fix_observation=fix_observation)
        failed |= active & ~ok
        active &= ok
        new.A, resc = enforce_stability_batch(new.A)
        rescales.append(active & resc)
        iterations[active] += 1
        cur = new.where(active, cur)
    traces = np.stack(traces)
    return {
        "params": cur,
        "loglik": np.where(failed, -np.inf, traces[iterations, np.arange(B)]),
        "traces": traces,
        "converged": converged,
        "failed": failed,
        "iterations": iterations,
        "rescales": np.array(rescales, dtype=bool).reshape(-1, B),
    }
