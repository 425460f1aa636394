"""Batched numerical core shared by inference, EM, and Fisher estimation.

All routines here carry an explicit leading batch axis so that EM restarts
advance through the Kalman recursions, and the Fisher's parameter
directions through their tangent, as single vectorized numpy operations.
Elements that hit a numerical failure (singular innovation covariance,
rank-deficient M-step accumulators) are flagged in an ``ok`` mask instead
of aborting the whole batch; the filter carries the identity as the
predicted covariance of such an element and holds its means at zero, and
the smoother zeroes its gains, so later passes over the batch stay finite.
One kernel, ``_factor_solve``, solves against the filter's innovation
covariances and the M-step's accumulators, and one rule judges them: M is
degenerate where it has no Cholesky factor L or where ||M||_F
||L^{-1}||_F^2 > 1 / DEGENERACY_RCOND.  As ||L^{-1}||_F^2 = trace(M^{-1}),
that bound lies between kappa_2(M) and n^{3/2} kappa_2(M) for n x n M: it
never passes a matrix whose eigenvalue ratio is below DEGENERACY_RCOND.

For a time-invariant LDS the covariance recursion (P_t, S_t, K_t, J_t, V_t)
does not depend on Y and reaches a fixed point after a transient.  The
filter runs the full step until the predicted covariance of every element
still ``ok`` moves by at most ``SETTLE_RTOL`` relative to its own size in
one time update.  Handed an earlier pass (``reuse``, as EM hands over the
pass of its previous iteration), the filter does not test the steps before
that pass's switch one at a time: it keeps each one's ``ok`` mask, and
after its loop one vectorized test over the stored predicted covariances
(``_first_settled``) finds the first settled step.  Should that step lie
in the untested stretch, the pass goes back to it: the switch, P, x and
``ok`` are read from that step and the frozen phase overwrites the steps
after it.  So the switch is the first settled step whatever the hint.
A transient step factors S = L L^T once; L and L^{-1}
give the ``ok`` test, log|S|, K^T = S^{-1} C P and S^{-1} r, and the
filtered covariance is P - K S K^T = P - (C P)^T K^T.  From the switch on,
S, K^T and S^{-1} (the same kernel on C P and I) are frozen and the
predicted mean follows the linear time-invariant recursion
x_{s+1} = F x_s + G y_s, F = A (I - K C), G = A K.
That recursion runs as a doubling scan (``_affine_scan``, Hillis & Steele
1986): ceil(log2(N + 1)) passes of one batched product each for N frozen
steps, with F squared between passes, instead of N interpreted steps; the
innovations, their quadratic forms and the filtered means are then
whole-stretch products.
With one output (p = 1) S is a scalar s and ``_factor_solve`` calls no
LAPACK routine: the factor is sqrt(s), the bound is exactly 1, and S^{-1} b
is b * (1 / s), which are OpenBLAS's 1x1 Cholesky and LU solve bit for bit.
A transient step of the filter takes that path inline while every element
is ``ok`` and 0 < s < inf, and calls ``_factor_solve`` otherwise.

The filter hands its switch step to the smoother, which mirrors it in two
phases: J of every transient step and the one J shared by the frozen steps
are solved in one batched call before the backward walk (``_spd_solve``):
P^pred_{t+1} J_t^T = A P^f_t has a symmetric positive definite matrix, so
one batched Cholesky factors them all, the factors are inverted by forward
substitution in n whole-batch steps, and J^T = L^{-T} (L^{-1} A P^f) is two
batched products; only an element that does not factor is solved by LU.
On the frozen steps the smoothed means run through the same affine scan
backward.  The M-step reads only the sums of V_t and of the cross-
covariances V_{t+1} J_t^T and the ends V_0 and V_{T-1} (Shumway & Stoffer
1982), so the smoother returns those, not a (B, T, d, d) trajectory.  On
the n frozen steps V follows V -> J V J^T + Q backward from P^f, with
Q = P^f - J P^pred J^T, and its last state and its sums are taken in
closed form by binary doubling on n (``_frozen_sums``): about log2(n)
levels of (B, d, d) products, exact and finite for any J, with no settle
test.  The transient steps are then stepped with plain products, and
their sums are one sum and one stacked product over their stored states.
``smoothed_covariances`` expands such a result into every step's
covariances for the public posterior, the frozen stretch in blocks of
about sqrt(n) steps (``_congruence_states``).

The tangent pass (``tangent_fisher``) takes one parameter set and its filter
pass, as ``inference.kalman_filter`` returns them (``selection`` hands
over the pass that scored the order), and reads the switch like the
smoother: it steps the derivatives of the transient along n parameter
directions (the batch axis here) and freezes them at the switch.  Each
product of a direction stack with a shared matrix, on either side, is one
2-D product; a parameter block that no direction moves (C and R2 in
observable mode) gets no columns.  The scores are collected in panels of
at most ``SCAN_CHUNK`` doubles, since n is in the hundreds and only the
(n, n) information is returned.  The N frozen steps of a panel are cut
into blocks of about sqrt(N) steps, stepped all at once from zero and
joined by carrying the block starts, so no Python loop runs per frozen
step and no array holds more than one step per block.

The M-step solves against S00 and Zsum with ``_factor_solve`` and floors
the eigenvalues of its covariance estimates at COV_FLOOR
(``psd_floor_batch``): an element whose sym(M) - COV_FLOOR I factors by
Cholesky is returned as sym(M), and only the others go through ``eigh``.

Public modules wrap these routines with batch size one; nothing in this
module is part of the package API.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PARAM_FIELDS, LdsParams, enforce_stability_batch, sym

LOG_2PI = float(np.log(2.0 * np.pi))
#: a matrix M with ||M||_F trace(M^{-1}) above 1 / DEGENERACY_RCOND is degenerate
DEGENERACY_RCOND = 1e-12
#: relative move below which a covariance recursion counts as settled
SETTLE_RTOL = 8.0 * np.finfo(float).eps
#: doubles in one panel of tangent-pass scores and in its (K, n, d) block states
SCAN_CHUNK = 2 ** 15
#: eigenvalue floor applied to M-step covariance estimates
COV_FLOOR = 1e-10
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

    def where(self, mask: np.ndarray, other: "ParamsBatch") -> "ParamsBatch":
        """Element b from self where mask[b], else from other."""
        def pick(a, b):
            return np.where(mask.reshape((-1,) + (1,) * (a.ndim - 1)), a, b)
        return ParamsBatch(*(pick(getattr(self, f), getattr(other, f))
                             for f in PARAM_FIELDS))


def stack_params(params_list) -> ParamsBatch:
    """Stack LdsParams-like objects into a ParamsBatch.

    An object of order d below the highest order D is padded with D - d
    states that are unobserved and uncoupled: A = 0, C = 0, R1 = R0 = I and
    mu0 = 0 in the new block and off it.  Its loglik is unchanged, and the
    filter, the smoother and the M-step carry the padding block unchanged.
    """
    B, p = len(params_list), params_list[0].C.shape[0]
    D = max(q.A.shape[0] for q in params_list)
    eye = np.broadcast_to(np.eye(D), (B, D, D))
    pb = ParamsBatch(A=np.zeros((B, D, D)), C=np.zeros((B, p, D)), R1=eye.copy(),
                     R2=np.stack([q.R2 for q in params_list]), mu0=np.zeros((B, D)),
                     R0=eye.copy())
    for b, q in enumerate(params_list):
        d = q.A.shape[0]
        pb.A[b, :d, :d], pb.R1[b, :d, :d], pb.R0[b, :d, :d] = q.A, q.R1, q.R0
        pb.C[b, :, :d], pb.mu0[b, :d] = q.C, q.mu0
    return pb


def _T(M):
    return M.swapaxes(-1, -2)


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


def _tri_inverse(L):
    """The inverses of the (.., n, n) lower triangular matrices L.

    Row i of X = L^{-1} is found from the rows above it by forward
    substitution, X[i, :i] = -(L[i, :i] X[:i, :i]) / L[i, i], with the N
    matrices on the last axis, (n, n, N): n whole-batch steps.  A sum over
    j runs in order of j for each matrix alone, so the inverse of a matrix
    does not depend on the other matrices of the batch.
    """
    n = L.shape[-1]
    X = np.moveaxis(L.reshape(-1, n, n), 0, -1).copy()      # (n, n, N), L for now
    r = 1.0 / np.diagonal(X).T                                # (n, N)
    for i in range(n):
        # row i of L is read here for the last time and then holds row i of X
        if i:
            X[i, :i] = (X[i, :i, None] * X[:i, :i]).sum(axis=0) * -r[i]
        X[i, i] = r[i]
    return np.moveaxis(X, -1, 0).reshape(L.shape)


def _spd_solve(M, rhs, ok):
    """Batched solve M x = rhs for symmetric positive definite M, as
    ``_solve_guarded`` takes it: M (B, .., n, n), rhs (B, .., n, k).

    The batch is factored by Cholesky, M = L L^T, and solved as
    x = L^{-T} (L^{-1} rhs), with L^{-1} from ``_tri_inverse`` and the two
    products taken matrix by matrix (batched matmul).  An element with a
    matrix that does not factor is solved, alone among the elements, by
    ``_solve_guarded``'s LU, which clears its ``ok`` only if a matrix is
    singular; elements already not ``ok`` solve against the identity.
    """
    L, factored = _chol_guarded(M, ok.copy())
    L = _tri_inverse(L)            # now L^{-1}: the factor is not kept alive (peak memory)
    x = _T(L) @ (L @ rhs)
    lu = ok & ~factored
    if lu.any():
        x[lu], ok[lu] = _solve_guarded(M[lu], rhs[lu], ok[lu])
    return x, ok


def _finite_or_identity(M, ok):
    """M with the elements that hold a non-finite entry cleared in ``ok``
    (in place) and, like the elements already failed, swapped for the
    identity, so that an eigen-routine can take the whole batch."""
    ok &= np.isfinite(M).all(axis=(-2, -1))
    return _identity_where_failed(M, ok)


def psd_floor_batch(M):
    """Batched symmetrize + eigenvalue floor at COV_FLOOR; returns
    (floored, fired-mask).

    An element whose sym(M) - COV_FLOOR I factors by Cholesky has every
    eigenvalue above the floor and comes back as sym(M), not fired; only
    the others are floored through their eigendecomposition.
    """
    out = sym(M)
    _, above = _chol_guarded(out - COV_FLOOR * np.eye(out.shape[-1]),
                             np.ones(out.shape[0], dtype=bool))
    fired = np.zeros(out.shape[0], dtype=bool)
    if not above.all():
        w, V = np.linalg.eigh(out[~above])
        fired[~above] = np.any(w < COV_FLOOR, axis=-1)
        w = np.maximum(w, COV_FLOOR)
        out[~above] = np.einsum("...ij,...j,...kj->...ik", V, w, V)
    return out, fired


def _settled(new, old, ok) -> bool:
    """True when every ``ok`` element moved by at most SETTLE_RTOL of its size."""
    move = abs(new - old).max(axis=(-2, -1))
    size = abs(old).max(axis=(-2, -1))
    return bool(((move <= SETTLE_RTOL * size) | ~ok).all())


def _first_settled(covs, oks):
    """The first step k >= 1 at which the (B, m + 1, d, d) stack ``covs``
    has settled by ``_settled``'s test, covs[:, k] against covs[:, k - 1]
    with the mask oks[k - 1] of the (m, B) ``oks``; None if no step has.
    The steps are tested in runs of at most SCAN_CHUNK doubles, through one
    work array."""
    B, n, d, _ = covs.shape
    run = max(1, SCAN_CHUNK // (B * d * d))
    work = np.empty((B, min(run, n - 1), d, d))
    for lo in range(0, n - 1, run):
        hi = min(lo + run, n - 1)
        w = work[:, :hi - lo]
        move = np.abs(np.subtract(covs[:, lo + 1:hi + 1], covs[:, lo:hi], out=w),
                      out=w).max(axis=(-2, -1))
        size = np.abs(covs[:, lo:hi], out=w).max(axis=(-2, -1))
        settled = ((move <= SETTLE_RTOL * size) | ~oks[lo:hi].T).all(axis=0)
        if settled.any():
            return lo + 1 + int(settled.argmax())
    return None


def _affine_scan(M, u, x0):
    """All states of x_{i+1} = x_i M + u_i from x_0 = x0, as a doubling scan.

    States are rows, so M is the transpose of the usual transition matrix.
    M is (B, d, d), u is (B, n, d) and x0 is (B, d); returns the
    (B, n + 1, d) states x_0 .. x_n.  Pass j adds x_{i-k} M^k to every
    x_i with i >= k = 2^j, all from the states of the pass before, and
    squares M (Hillis & Steele 1986): after it x_i sums the terms of the
    last 2k steps.  That is ceil(log2(n + 1)) passes of one batched
    product each instead of n steps.
    """
    B, n, d = u.shape
    x = np.empty((B, n + 1, d))
    x[:, 0] = x0
    x[:, 1:] = u
    k = 1
    while k <= n:
        x[:, k:] += x[:, :-k] @ M          # the product is taken before the add
        k *= 2
        if k <= n:
            M = M @ M
    return x


@np.errstate(over="ignore", invalid="ignore")    # an S that fails the bound may overflow it
def _factor_solve(S, rhs, ok=None):
    """Factor the symmetric positive definite S once and solve against it:
    the diagonal of the Cholesky factor L of S, S^{-1} times each (.., n, k)
    block of ``rhs``, and ``ok`` with the elements whose S is degenerate by
    the bound of the module docstring cleared (in place).  The solution is
    L^{-T} (L^{-1} r); a failed element solves against the identity.

    A 1x1 S takes no LAPACK call and gives LAPACK's results bit for bit:
    for s = S[.., 0, 0] dpotrf fails where s <= 0 and factors sqrt(s)
    elsewhere (a NaN or +inf factor fails the bound), and OpenBLAS's LU
    solve is b * (1 / s), not b / s.  Without ``ok`` (a pass known to be
    ok) S is only solved against: no bound is taken, no element is swapped
    for the identity, and the diagonal and ``ok`` are None.
    """
    if S.shape[-1] == 1:
        s = S[..., 0, 0]
        if ok is None:
            inv = (1.0 / s)[..., None, None]
            return None, [r * inv for r in rhs], None
        c = np.where(ok & ~(s <= 0), s, 1.0)           # the matrix dpotrf factors
        ok &= (0 < s) & (s < np.inf)
        diag = np.sqrt(c)[..., None]
        c[~ok] = 1.0                                   # the matrix the solve takes
        inv = (1.0 / c)[..., None, None]
        return diag, [r * inv for r in rhs], ok
    if ok is None:
        Li = np.linalg.inv(np.linalg.cholesky(S))
        LiT = _T(Li)
        return None, [LiT @ (Li @ r) for r in rhs], None
    L, ok = _chol_guarded(S, ok)
    Li = np.linalg.inv(L)
    # ||S||_F ||L^{-1}||_F^2 as the norm of S trace(S^{-1}), which no scale of S overflows
    St = S * (Li * Li).sum(axis=(-2, -1))[..., None, None]
    ok &= (St * St).sum(axis=(-2, -1)) <= DEGENERACY_RCOND ** -2
    if not ok.all():
        Li[~ok] = np.eye(S.shape[-1])
    LiT = _T(Li)
    # the diagonal is a copy: L is not kept
    return np.abs(L.diagonal(0, -2, -1)), [LiT @ (Li @ r) for r in rhs], ok


def _log_det(diag):
    """log|S| from the diagonal of the Cholesky factor of S."""
    return 2.0 * np.sum(np.log(np.maximum(diag, 1e-300)), axis=-1)


def filter_batch(pb: ParamsBatch, Y: np.ndarray, ok: np.ndarray | None = None,
                 reuse: dict | None = None) -> dict:
    """Batched Kalman filter; the filtered covariance is P - (C P)^T K^T.

    Returns a dict with the predicted and filtered trajectories, per-element
    logliks, an ``ok`` mask (False where an innovation covariance
    degenerated) and the ``switch`` step (the first frozen step, T when the
    filter never froze).  Elements that are False in the caller's ``ok``
    (all True by default) are treated as failed from step 0.  An earlier
    pass of the same shapes handed over as ``reuse`` has its trajectories
    overwritten by this one's.

    A transient step solves S once for the gain and the innovation together,
    inline at p = 1 while every element factors; the log-dets and quadratic
    forms of the transient enter the logliks after it.  Once the predicted
    covariance of every ``ok`` element has settled (see the module
    docstring), S, K and log|S| are frozen, the means of the remaining
    steps come from a doubling scan and their innovations and quadratic
    forms from whole-stretch products; the stored covariances of those
    steps are the frozen ones.  The steps before the switch of ``reuse``
    are tested for settling after the loop, which goes back to the first
    settled step should it lie among them: the outputs do not depend on
    ``reuse``.
    """
    B, d, p = pb.B, pb.d, pb.p
    T = Y.shape[0]
    ok = np.ones(B, dtype=bool) if ok is None else ok.copy()
    all_ok = bool(ok.all())
    x = pb.mu0.copy()              # predicted mean at t
    P = sym(pb.R0)                 # predicted covariance at t
    # transposed views slow every batched product they enter: made contiguous once
    AT = np.ascontiguousarray(_T(pb.A))
    CT = np.ascontiguousarray(_T(pb.C))
    step_ll = np.zeros((B, T))
    diags, quads = [], []          # per transient step: (B, p) and (B,)
    # the steps before the switch of the pass handed over are tested after the loop
    untested = 0 if reuse is None else reuse["switch"]
    oks = []                       # ok at each untested step
    shapes = {"pred_means": (B, T, d), "pred_covs": (B, T, d, d),
              "filt_means": (B, T, d), "filt_covs": (B, T, d, d)}
    out = {k: np.empty(shape) if reuse is None else reuse[k] for k, shape in shapes.items()}
    t = 0
    while t < T:
        out["pred_means"][:, t] = x
        out["pred_covs"][:, t] = P
        CP = pb.C @ P                                  # (B, p, d)
        innov = Y[t] - np.einsum("bpd,bd->bp", pb.C, x)
        S = CP @ CT + pb.R2
        # S^{-1} [C P | r]: the transposed gain (B, p, d) and S^{-1} r
        if p == 1:
            s = S[:, 0, 0]
            h = 0.5 * s
            s = h + h                                  # sym(S) of a 1x1 S
            if all_ok and 0 < s.min() and s.max() < np.inf:
                # _factor_solve's 1x1 path where every element factors
                inv = 1.0 / s
                diag, KT, v = np.sqrt(s)[:, None], CP * inv[:, None, None], innov[:, 0] * inv
            else:
                diag, (KT, v), ok = _factor_solve(s[:, None, None], (CP, innov[..., None]), ok)
                v = v[:, 0, 0]
                all_ok = bool(ok.all())
            # one-term sums: the plain products are the einsums' values
            quads.append(innov[:, 0] * v)
            x = x + KT[:, 0] * innov
        else:
            diag, (KT, v), ok = _factor_solve(sym(S), (CP, innov[..., None]), ok)
            all_ok = bool(ok.all())
            quads.append(np.einsum("bp,bp->b", innov, v[..., 0]))
            x = x + np.einsum("bpd,bp->bd", KT, innov)
        diags.append(diag)
        if not all_ok:
            x[~ok] = 0.0               # a failed element's mean is held at zero
        Pf = sym(P - _T(CP) @ KT)                      # P - K S K^T
        out["filt_means"][:, t] = x
        out["filt_covs"][:, t] = Pf
        t += 1
        if t == T:
            break
        x = np.einsum("bde,be->bd", pb.A, x)
        P_next = sym(pb.A @ Pf @ AT + pb.R1)
        if t < untested:
            oks.append(ok.copy())
            settled = False
        else:
            settled = _settled(P_next, P, ok)
        # an element already not ok carries the identity: its placeholder
        # covariance cannot grow without bound
        P = P_next if all_ok else _identity_where_failed(P_next, ok)
        if settled:
            break
    k = _first_settled(out["pred_covs"][:, :len(oks) + 1], np.array(oks)) if oks else None
    if k is not None:
        # the pass goes back to the first settled step, which the untested
        # stretch passed over; the frozen phase overwrites the steps after it
        t, ok = k, oks[k - 1]
        x, P = out["pred_means"][:, k].copy(), out["pred_covs"][:, k].copy()
        del diags[k:], quads[k:]
    step_ll[:, :t] = -0.5 * (p * LOG_2PI + _log_det(np.stack(diags, axis=1))
                             + np.stack(quads, axis=1))
    if t < T:
        # steady state from step t on: P is the fixed point of the recursion
        CP = pb.C @ P
        # S^{-1} [C P | I]: the transposed gain (B, p, d) and S^{-1} (B, p, p)
        diag, (KT, Sinv), ok = _factor_solve(sym(CP @ CT + pb.R2), (
            CP, np.broadcast_to(np.eye(p), (B, p, p))), ok)
        out["pred_covs"][:, t:] = P[:, None]
        out["filt_covs"][:, t:] = sym(P - _T(CP) @ KT)[:, None]
        # the predicted mean follows x_{s+1} = F x_s + G y_s with G = A K and
        # F = A - G C; as rows, x_{s+1} = x_s F^T + y_s G^T.  Y is shared by
        # the batch, so y_s G^T of every element is one product with the
        # (p, B d) matrix G_all.  A failed element gets K = 0 and F = 0, so
        # its means stay at zero.
        KT[~ok] = 0.0
        GT = KT @ AT                                   # (B, p, d)
        G_all = np.ascontiguousarray(GT.swapaxes(0, 1)).reshape(p, B * d)
        FT = AT - CT @ GT                              # F^T = A^T - C^T G^T
        FT[~ok] = 0.0
        u = (Y[t:] @ G_all).reshape(T - t, B, d).swapaxes(0, 1)
        xs = _affine_scan(FT, u, x)[:, :-1]            # predicted means of t..T-1
        innov = Y[t:] - xs @ CT
        # r^T S^{-1} r, with S^{-1} applied from the right
        step_ll[:, t:] = -0.5 * ((p * LOG_2PI + _log_det(diag))[:, None]
                                 + np.einsum("bsp,bsp->bs", innov, innov @ Sinv))
        out["pred_means"][:, t:] = xs
        out["filt_means"][:, t:] = xs + innov @ KT
    out["loglik"] = step_ll.sum(axis=1)
    out["ok"] = ok
    out["switch"] = t
    return out


def _frozen_sums(J, Q, Pf, n: int):
    """sigma_n = V^(0) + .. + V^(n-1) and V^(n) of the backward map
    V^(k) = J V^(k-1) J^T + Q from V^(0) = Pf, as two (B, d, d) arrays.

    With f(V) = J V J^T + Q, f^m(V) = J^m V (J^m)^T + c_m for c_m = f^m(0),
    and c_m, sigma_m = sum_{k<m} f^k(Pf) and v_m = f^m(Pf) compose as
    c_{a+b} = c_a + J^a c_b (J^a)^T,
    sigma_{a+b} = sigma_a + J^a sigma_b (J^a)^T + b c_a and
    v_{a+b} = J^a v_b (J^a)^T + c_a.  The bits of n are read from the top:
    m doubles (a = b = m) and, at a set bit, takes one step (a = 1, b = m),
    so the sums are exact and finite for any J in about log2(n) levels of
    (B, d, d) products.
    """
    B, d, _ = J.shape
    # J^m and its transpose are both kept, contiguous: a transposed view
    # slows every batched product it enters
    JT = np.ascontiguousarray(_T(J))
    X = np.zeros((B, 3, d, d))          # c_m, sigma_m, v_m at m = 0
    X[:, 2] = Pf
    step = np.stack((Q, Pf, Q), axis=1)  # c_1, sigma_1, c_1
    Jm, JmT, m = J, JT, 0
    for bit in bin(n)[2:]:
        if m:
            mc = m * X[:, 0]
            X = Jm[:, None] @ X @ JmT[:, None] + X[:, [0, 1, 0]]
            X[:, 1] += mc
            Jm, JmT, m = Jm @ Jm, JmT @ JmT, 2 * m
        if bit == "1":
            X = J[:, None] @ X @ JT[:, None] + step
            X[:, 1] += m * Q
            Jm, JmT, m = (J @ Jm, JmT @ JT, m + 1) if m else (J, JT, 1)
    return X[:, 1], X[:, 2]


def smooth_batch(pb: ParamsBatch, fr: dict) -> dict:
    """Batched RTS smoother over a filter pass, reduced to what the M-step
    reads: the smoothed ``means`` (B, T, d), ``cov_sum`` = sum_t V_t,
    ``cross_sum`` = sum_t V_{t+1} J_t^T (the lag-one cross-covariances),
    ``cov_first`` = V_0, ``cov_last`` = V_{T-1} and ``ok``; the ``gains``
    J_t^T and the ``transient_covs`` V_0 .. V_s serve ``smoothed_covariances``.

    Cut at s = min(switch, T - 1): J_0 .. J_s are solved in one batched
    call; on the frozen steps s .. T-2, which share J_s, the means are one
    backward affine scan, and V_s and the stretch's sums come from
    ``_frozen_sums``; the transient steps s-1 .. 0 are stepped with plain
    products.  Elements that are not ``ok`` get J = 0: their smoothed
    moments are their filtered ones.
    """
    fm, fP = fr["filt_means"], fr["filt_covs"]
    pm, pP = fr["pred_means"], fr["pred_covs"]
    B, T, d = fm.shape
    ok = fr["ok"].copy()
    means = np.empty((B, T, d))
    means[:, -1] = fm[:, -1]
    s = min(fr["switch"], T - 1)
    n = T - 1 - s                  # the frozen steps s .. T-2
    # J_t = P^f_t A^T (P^pred_{t+1})^{-1} for t = 0..s, t < T - 1, in one (B, H, d, d) solve
    H = min(s + 1, T - 1)
    JT, ok = _spd_solve(pP[:, 1:H + 1], pb.A[:, None] @ fP[:, :H], ok)
    JT[~ok] = 0.0                  # a failed element's smoothed means are its filtered ones
    V = np.empty((B, s + 1, d, d))     # V_0 .. V_s
    V[:, s] = fP[:, -1]
    cov_sum, cross_sum = fP[:, -1], np.zeros((B, d, d))
    if n:
        JTs = np.ascontiguousarray(JT[:, s])
        u = fm[:, s:-1] - pm[:, s + 1:] @ JTs
        means[:, s:-1] = _affine_scan(JTs, u[:, ::-1], means[:, -1])[:, :0:-1]
        # V_t = P^f + J (V_{t+1} - P^pred) J^T = J V_{t+1} J^T + Q backward from
        # V_{T-1} = P^f; sigma sums V_{s+1} .. V_{T-1}
        J = np.ascontiguousarray(_T(JTs))
        sigma, last = _frozen_sums(J, fP[:, s] - J @ pP[:, -1] @ JTs, fP[:, -1], n)
        V[:, s] = sym(last)
        cov_sum, cross_sum = sigma + V[:, s], sigma @ JTs
    # the transient, stepped backward: m_t = J m_{t+1} + (fm_t - J pm_{t+1}),
    # with every bracket in one product
    u = fm[:, :s] - (pm[:, 1:s + 1, None] @ JT[:, :s])[:, :, 0]
    J = np.ascontiguousarray(_T(JT[:, :s]))
    for t in range(s - 1, -1, -1):
        means[:, t] = (means[:, t + 1, None] @ JT[:, t])[:, 0] + u[:, t]
        V[:, t] = sym(fP[:, t] + J[:, t] @ (V[:, t + 1] - pP[:, t + 1]) @ JT[:, t])
    if s:
        cov_sum = cov_sum + V[:, :s].sum(axis=1)
        cross_sum = cross_sum + (V[:, 1:] @ JT[:, :s]).sum(axis=1)
    return {"means": means, "cov_sum": sym(cov_sum), "cross_sum": cross_sum,
            "cov_first": V[:, 0], "cov_last": fP[:, -1], "ok": ok,
            "gains": JT, "transient_covs": V}


def _congruence_states(JT, Q, W0, n: int):
    """The (B, n + 1, d, d) states W_0 .. W_n of W_{i+1} = J W_i J^T + Q
    from W_0 = W0, for J^T = JT, in blocks of L = isqrt(n) + 1 steps.

    With c_i = sum_{k<i} J^k Q (J^k)^T, W_{jL+i} = J^i W_{jL} (J^i)^T + c_i:
    the block starts are carried with J^L one block at a time, and every
    block is filled from its start in one product.  That is O(n d^3) work,
    and no power beyond J^L is formed, so the powers of a contracting J
    stay clear of the subnormal range.
    """
    B, d, _ = JT.shape
    L = math.isqrt(n) + 1
    PT = np.empty((B, L + 1, d, d))        # (J^T)^i for i = 0..L
    PT[:, 0] = np.eye(d)
    for i in range(L):
        PT[:, i + 1] = PT[:, i] @ JT
    P = np.ascontiguousarray(_T(PT))
    c = np.zeros((B, L + 1, d, d))
    np.cumsum(P[:, :L] @ Q[:, None] @ PT[:, :L], axis=1, out=c[:, 1:])
    starts = [W0]
    for _ in range(n // L):
        starts.append(P[:, L] @ starts[-1] @ PT[:, L] + c[:, L])
    X = np.stack(starts, axis=1)[:, :, None]            # (B, K, 1, d, d)
    W = P[:, None, :L] @ X @ PT[:, None, :L]
    W += c[:, None, :L]
    return W.reshape(B, -1, d, d)[:, :n + 1]


def smoothed_covariances(sm: dict, fr: dict):
    """The (B, T, d, d) smoothed covariances and (B, T - 1, d, d) lag-one
    cross-covariances of a ``smooth_batch`` result over the filter pass
    ``fr``: the stored transient states, and the frozen stretch by
    ``_congruence_states`` backward from V_{T-1} = P^f."""
    V, JT = sm["transient_covs"], sm["gains"]
    B, T, d = sm["means"].shape
    s = V.shape[1] - 1
    covs, cross = np.empty((B, T, d, d)), np.empty((B, T - 1, d, d))
    covs[:, :s + 1] = V
    cross[:, :s] = V[:, 1:] @ JT[:, :s]
    if s < T - 1:
        JTs = np.ascontiguousarray(JT[:, s])
        fP = fr["filt_covs"]
        Q = fP[:, s] - _T(JTs) @ fr["pred_covs"][:, -1] @ JTs
        W = _congruence_states(JTs, Q, fP[:, -1], T - s - 2)     # V_{T-1} .. V_{s+1}
        h = 0.5 * W[:, ::-1]
        np.add(h, _T(h), out=covs[:, s + 1:])          # sym, written in place
        # V_{t+1} J^T of every frozen step, stacked by rows: one product per element
        cross[:, s:] = (covs[:, s + 1:].reshape(B, -1, d) @ JTs).reshape(B, -1, d, d)
    return covs, cross


def _by_rows(X):
    """The (n, a, b) stack X laid out (a, n, b); X_i^T is X.transpose(2, 1, 0)."""
    return np.ascontiguousarray(X.transpose(1, 0, 2))


def _right(X, M, out):
    """X_i M of every matrix of the (a, n, b) stack X into ``out``: one 2-D product."""
    a, n, b = X.shape
    np.matmul(X.reshape(a * n, b), M, out=out.reshape(a * n, -1))
    return out


def _left(M, X, out):
    """M X_i of every matrix of the (a, n, b) stack X into ``out``: one 2-D product."""
    a, n, b = X.shape
    np.matmul(M, X.reshape(a, n * b), out=out.reshape(-1, n * b))
    return out


def _tangent_innovation(params: LdsParams, dR2, dCT, P, dP, work):
    """C P, S^{-1} and K^T of ``params`` at predicted covariance P, with
    S = C P C^T + R2, and along every direction d(C P)^T, dS and
    dK = d(K^T)^T, into the first three of the five (d, n, p), (p, n, p) and
    (d, n, p) stacks of ``work`` (the last two are scratch).  Stacks are
    indexed (a, n, b) like dP, dR2 and ``dCT`` = dC^T (None when no
    direction moves C).  dP is symmetric, so d(C P)^T = dP C^T + P dC^T; dS
    is the symmetric part of C d(C P)^T + C P dC^T + dR2; and dS is
    symmetric, so dK = (d(C P)^T - K dS) S^{-T}.
    """
    C = params.C
    p = C.shape[0]
    CP = C @ P
    _, sol, _ = _factor_solve(sym(CP @ C.T + params.R2)[None], (CP[None], np.eye(p)[None]))
    KT, Sinv = sol[0][0], sol[1][0]
    dCPT, dS, dK, tS, tK = work
    _right(dP, C.T, dCPT)
    if dCT is not None:
        dCPT += _left(P, dCT, tK)
    _left(C, dCPT, tS)
    if dCT is not None:
        tS += _left(CP, dCT, dS)
    tS += dR2
    np.add(tS, tS.transpose(2, 1, 0), out=dS)         # sym: 0.5 (X + X^T) for each X
    dS *= 0.5
    np.subtract(dCPT, _left(KT.T, dS, tK), out=tK)
    _right(tK, Sinv.T, dK)
    return CP, Sinv, KT, dCPT, dS, dK


def tangent_fisher(params: LdsParams, fr, Y: np.ndarray, dirs: ParamsBatch) -> np.ndarray:
    """Empirical Fisher information sum_t g_t g_t^T of the exact per-step
    loglik scores, by a forward sensitivity (tangent-linear) pass over the
    filter pass ``fr`` of ``params`` (an ``inference.FilterResult``, read by
    attribute): the caller's own pass, not a second one.

    ``dirs`` holds the n directions as a batch: element i is the derivative
    of every parameter block along direction i.  A transient step carries
    the derivatives dx (n, d) of the predicted mean and dP of its
    covariance; the score is
    g_t = -1/2 [tr(S^{-1} dS) + 2 v^T dr - v^T dS v], v = S^{-1} r,
    dr = -dC x - C dx.  Direction stacks are laid out by ``_by_rows``, so a
    product with a shared matrix on either side is one 2-D product into a
    work array made once per call; when no direction moves C (observable
    mode), its terms get no columns.  From the filter's switch on dP, dS
    and dK^T are frozen like P, S and K, and dx_{t+1} = F dx_t + U_t with
    F = A (I - K C) and U_t = dA x^f_t + A dK r_t - A K dC x_t.
    The scores go in panels of at most SCAN_CHUNK doubles, each added to
    the information as one G^T G.  The N frozen steps of a panel form K
    blocks of L = ceil(sqrt(N)) steps (more where K (n, d) states would
    exceed SCAN_CHUNK doubles): the part of dx that U drives is stepped in
    all blocks at once from zero, one (K n, d) (d, d) product a step; the
    block starts are carried with F^L, and a start's share of the scores,
    start F^q C^T v at its step q, is one (L, d) (d, n) product per block.
    1/2 v^T dS v reads the p (p + 1) / 2 entries of the symmetric dS.
    """
    A, C = params.A, params.C
    T, p = Y.shape
    n, d = dirs.B, params.d
    s = fr.switch
    xp, Pp, xf, Pf = fr.pred_means, fr.pred_covs, fr.filt_means, fr.filt_covs
    dC = dirs.C.reshape(n * p, d) if dirs.C.any() else None
    dCT = None if dC is None else _by_rows(_T(dirs.C))
    dA, dR2 = _by_rows(dirs.A), dirs.R2.transpose(1, 0, 2)
    rows_per_panel = max(1, SCAN_CHUNK // n)
    info = np.zeros((n, n))
    work = [np.empty(shape) for shape in ((d, n, p), (p, n, p), (d, n, p), (p, n, p), (d, n, p))]
    dPf, X = np.empty((d, n, d)), np.empty((d, n, d))
    dx, dP = dirs.mu0.copy(), _by_rows(sym(dirs.R0))
    rows = []                                          # transient scores, one panel
    for t in range(s):
        CP, Sinv, KT, dCPT, dS, dK = _tangent_innovation(params, dR2, dCT, Pp[t], dP, work)
        r = Y[t] - C @ xp[t]
        v = Sinv @ r
        dr = -(dx @ C.T)
        if dC is not None:
            dr -= (dC @ xp[t]).reshape(n, p)
        rows.append(-0.5 * np.einsum("anb,ab->n", dS, Sinv - np.outer(v, v)) - dr @ v)
        if len(rows) == rows_per_panel or t == s - 1:
            G = np.array(rows)
            info += G.T @ G
            rows = []
        if t == T - 1:
            break
        dxf = dx + (dK.reshape(-1, p) @ r).reshape(d, n).T + dr @ KT
        dx = (dA.reshape(-1, d) @ xf[t]).reshape(d, n).T + dxf @ A.T
        # dPf = dP - d(C P)^T K^T - (dK C P)^T, then dP = sym(H + H^T +
        # A dPf A^T + dR1) with H = dA P^f A^T, in the two work stacks
        np.subtract(dP, _right(dCPT, KT, X), out=dPf)
        dPf -= _right(dK, CP, X).transpose(2, 1, 0)
        _left(A, _right(dPf, A.T, X), dP)
        _right(dA, Pf[t] @ A.T, X)
        np.add(X, X.transpose(2, 1, 0), out=dPf)
        dPf += dP
        dPf += dirs.R1.transpose(1, 0, 2)
        np.add(dPf, dPf.transpose(2, 1, 0), out=dP)
        dP *= 0.5
    if s == T:
        return info
    CP, Sinv, KT, dCPT, dS, dK = _tangent_innovation(params, dR2, dCT, Pp[s], dP, work)
    AK = A @ KT.T
    FT = np.ascontiguousarray(_T(A - AK @ C))
    r = Y[s:] - xp[s:] @ C.T
    v = r @ Sinv
    Cv = v @ C
    # U_t of every direction is one (n d, k) matrix times z_t = [x^f_t; r_t; x_t],
    # the x_t columns only when some direction moves C; W_i is (d, n, k) by rows
    W, Z = [dA, (A @ dK.reshape(d, -1)).reshape(d, n, p)], [xf[s:], r]
    # g_t = c + [v v^T | v x^T] . [dS / 2 | dC] + (C^T v_t) . dx_t, with the
    # off-diagonal entries of v v^T . dS / 2 taken once from the upper triangle
    iu, ju = np.triu_indices(p)
    c = -0.5 * np.einsum("anb,ab->n", dS, Sinv)
    coefT = [dS[iu, :, ju] * np.where(iu == ju, 0.5, 1.0)[:, None]]
    if dC is not None:
        W.append(-(AK @ _by_rows(dirs.C).reshape(p, -1)).reshape(d, n, d))
        Z.append(xp[s:])
        coefT.append(dirs.C.reshape(n, -1).T)
    WT = np.concatenate([w.transpose(2, 1, 0).reshape(-1, n * d) for w in W])
    Z = np.concatenate(Z, axis=1)
    coefT = np.concatenate(coefT)
    blocks = max(1, SCAN_CHUNK // (n * d))             # (n, d) block states at most
    powers = [np.eye(d)]                               # F^T to the powers 0, 1, ..
    for plo in range(0, T - s, rows_per_panel):
        phi = min(plo + rows_per_panel, T - s)
        N, vp = phi - plo, v[plo:phi]
        VX = [vp[:, iu] * vp[:, ju]]
        if dC is not None:
            VX.append((vp[:, :, None] * xp[s + plo:s + phi, None]).reshape(N, -1))
        G = c + np.concatenate(VX, axis=1) @ coefT
        L = max(math.isqrt(N - 1) + 1, -(-N // blocks))
        K = -(-N // L)
        while len(powers) <= L:
            powers.append(powers[-1] @ FT)
        Zp, Cvp = Z[plo:phi], Cv[plo:phi]
        # the part of dx that U drives, stepped in all blocks at once from zero:
        # e for the blocks that reach step q, ends what each reached at its end
        e, ends = (Zp[::L] @ WT).reshape(K, n, d), np.empty((K, n, d))
        for q in range(1, L):
            k = -(-(N - q) // L)
            ends[k:len(e)] = e[k:]
            e = e[:k]
            G[q::L] += (e @ Cvp[q::L, :, None])[..., 0]
            U = (Zp[q::L] @ WT).reshape(k, n, d)
            U += (e.reshape(-1, d) @ FT).reshape(k, n, d)
            e = U
        ends[:len(e)] = e
        # the share of each block's start: start F^q C^T v at its step q
        Cvb = np.pad(Cvp, ((0, K * L - N), (0, 0))).reshape(K, L, d, 1)
        w = (np.array(powers[:L]) @ Cvb)[..., 0]
        for b in range(K):
            lo, m = b * L, min(L, N - b * L)
            G[lo:lo + m] += w[b, :m] @ dx.T
            dx = dx @ powers[m] + ends[b]
        info += G.T @ G
    return info


def m_step_batch(sm: dict, Y: np.ndarray,
                 fix_observation: bool = False) -> tuple[ParamsBatch, np.ndarray, np.ndarray]:
    """Batched M-step returning (params, floor-fired mask, ok mask).

    ``sm`` holds the smoothed means and the sums and ends of the smoothed
    covariances that ``smooth_batch`` returns; only these are read.
    With ``fix_observation`` the observation model is pinned to C = I and
    R2 = OBSERVABLE_MODE_NOISE * I (observable-state mode); only the state
    blocks are updated.

    An element whose moments, accumulators or estimates overflow fails like
    a degenerate one: every matrix that reaches an eigen-routine, and the
    returned A, hold the identity for a failed element.
    """
    m = sm["means"]
    B, T, d = m.shape
    ok = sm["ok"].copy()
    # Z_t = V_t + m_t m_t^T: the sums of m_t m_t^T as (d, T) (T, d) products,
    # Z_0 and Z_{T-1} on their own
    mT = _T(m)
    Zsum = _finite_or_identity(sm["cov_sum"] + mT @ m, ok)
    S00 = _finite_or_identity(Zsum - (sm["cov_last"] + m[:, -1, :, None] * m[:, -1, None]), ok)
    S11 = Zsum - (sm["cov_first"] + m[:, 0, :, None] * m[:, 0, None])
    S10 = sm["cross_sum"] + mT[:, :, 1:] @ m[:, :-1]
    _, (AT,), ok = _factor_solve(S00, (_T(S10),), ok)
    A = _T(_finite_or_identity(AT, ok))
    R1, fired1 = psd_floor_batch(_finite_or_identity((S11 - A @ _T(S10)) / (T - 1), ok))
    if fix_observation:
        C = np.broadcast_to(np.eye(d), (B, d, d)).copy()
        R2 = np.broadcast_to(OBSERVABLE_MODE_NOISE * np.eye(d), (B, d, d)).copy()
        fired2 = np.zeros(B, dtype=bool)
    else:
        Syx = np.einsum("tp,btd->bpd", Y, m)
        _, (CT,), ok = _factor_solve(Zsum, (_T(Syx),), ok)
        C = _T(CT)
        Syy = Y.T @ Y
        R2, fired2 = psd_floor_batch(_finite_or_identity((Syy[None] - C @ _T(Syx)) / T, ok))
    mu0 = m[:, 0].copy()
    R0, fired0 = psd_floor_batch(_finite_or_identity(sm["cov_first"], ok))
    fired = fired1 | fired2 | fired0
    return ParamsBatch(A=A, C=C, R1=R1, R2=R2, mu0=mu0, R0=R0), fired, ok


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
    Each filter pass, the last one too, overwrites the arrays of the pass
    before (``reuse``), so one filter pass is alive at a time, and the
    smoother hands the M-step sums, not a (B, T, d, d) posterior.  ``init``
    is never written: every update goes through ``ParamsBatch.where``,
    which builds new arrays.
    Returns the last filtered ``params``, their ``loglik`` (-inf where
    failed), the M-steps of each element (``iterations``), the (passes, B)
    logliks of every pass (``traces``; element b's own are its first
    iterations[b] + 1 rows) and the (M-steps, B) masks of covariance floors
    (``floors``) and stability rescales (``rescales``).
    """
    B = init.B
    cur = init
    converged = np.zeros(B, dtype=bool)
    failed = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=int)
    traces, floors, rescales = [], [], []
    active = np.ones(B, dtype=bool)
    fr = None
    while True:
        fr = filter_batch(cur, Y, ok=~failed, reuse=fr)
        failed |= active & ~fr["ok"]
        active &= fr["ok"]
        ll = fr["loglik"]
        if traces:
            converged |= active & (np.abs(ll - traces[-1]) < eps)
            active &= ~converged
        traces.append(ll)
        if len(traces) > max_iters or not np.any(active):
            break
        new, fired, ok = m_step_batch(smooth_batch(cur, fr), Y, fix_observation=fix_observation)
        failed |= active & ~ok
        active &= ok
        floors.append(active & fired)
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
        "floors": np.array(floors, dtype=bool).reshape(-1, B),
        "rescales": np.array(rescales, dtype=bool).reshape(-1, B),
    }
