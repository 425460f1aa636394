"""Batched numerical core shared by inference, EM, and Fisher estimation.

All routines here carry an explicit leading batch axis so that EM restarts
advance through the Kalman recursions, and the Fisher's parameter
directions through their tangent, as single vectorized numpy operations.
Elements that hit a numerical failure (singular innovation covariance,
rank-deficient M-step accumulators) are flagged in an ``ok`` mask instead
of aborting the whole batch; the filter carries the identity as the
predicted covariance of such an element, holds its means at zero and
stores F = 0 and S^{-1} C = 0 for it, so later passes over the batch stay
finite.
One kernel, ``_factor_solve``, solves against the filter's innovation
covariances and the M-step's accumulators, and one rule judges them: M is
degenerate where it has no Cholesky factor L or where ||M||_F
||L^{-1}||_F^2 > 1 / DEGENERACY_RCOND.  As ||L^{-1}||_F^2 = trace(M^{-1}),
that bound lies between kappa_2(M) and n^{3/2} kappa_2(M) for n x n M: it
never passes a matrix whose eigenvalue ratio is below DEGENERACY_RCOND.

For a time-invariant LDS the covariance recursion (P_t, S_t, K_t, F_t) does
not depend on Y (Anderson & Moore, Optimal Filtering, 1979, ch. 4) and
reaches a fixed point after a transient.  The filter's loop steps that
recursion alone until the predicted covariance of every element still
``ok`` moves by at most ``SETTLE_RTOL`` relative to its own size in one
time update.  Handed an earlier pass (``reuse``, as EM hands over the pass
of its previous iteration), the filter does not test the steps before that
pass's switch one at a time: it keeps each one's ``ok`` mask, and after its
loop one vectorized test over the stored predicted covariances
(``_first_settled``) finds the first settled step.  Should that step lie in
the untested stretch, the pass goes back to it: the switch and ``ok`` are
read from that step and the frozen phase overwrites the steps after it.  So
the switch is the first settled step whatever the hint.
A transient step factors S = L L^T once; L and L^{-1} give the ``ok`` test,
log|S|, S^{-1} and K^T = S^{-1} C P, and P_{t+1} = sym(A P F^T + R1) with
F = A (I - K C).  From the switch on, S, K^T and S^{-1} (the same kernel on
C P, I and C) are frozen.  Everything that reads Y is taken after the loop,
over whole trajectories, as the E-step reads it (Shumway & Stoffer 1982):
the predicted means follow x_{t+1} = F_t x_t + G_t y_t with G_t = A K_t, by
one batched product a step over the transient and, over the N frozen
steps, as a doubling scan (``_affine_scan``, Hillis & Steele 1986):
ceil(log2(N + 1)) passes of one batched product each, with F squared
between passes.  The innovations, S^{-1} r, their quadratic forms and the
logliks of every step are then whole-trajectory products.  The transient's
S^{-1} wait for them in runs of at most SCAN_CHUNK doubles, a run taken
within the loop as it fills, so a transient that runs long holds no
(T, p, p) stack.
With one output (p = 1) S is a scalar s, its own symmetric part, and
``_factor_solve`` calls no LAPACK routine: the factor is sqrt(s), the bound
is exactly 1, and S^{-1} b is b * (1 / s), which are OpenBLAS's 1x1
Cholesky and LU solve bit for bit.  A transient step of the filter takes
that path inline while every element is ``ok`` and 0 < s < inf, and calls
``_factor_solve`` otherwise.

The filter stores no filtered trajectory: it hands the smoother F_t,
S_t^{-1} C and S_t^{-1} r_t, and the smoother runs the adjoint (modified
Bryson-Frazier) recursion backward (Bierman 1973), lambda_t = C^T S_t^{-1}
r_t + F_t^T lambda_{t+1} and Lambda_t = C^T S_t^{-1} C + F_t^T Lambda_{t+1}
F_t, from which, with the predicted x_t and P_t, the smoothed mean
x_t + P_t lambda_t, V_t = P_t - P_t Lambda_t P_t and V_{t+1} J_t^T =
(I - P_{t+1} Lambda_{t+1}) F_t P_t follow: the RTS posterior, no gain
solve.  The M-step reads only the sums of V_t and of V_{t+1} J_t^T and the
ends V_0 and V_{T-1} (Shumway & Stoffer 1982), so the smoother returns
those.  On the N frozen steps,
which share F, P and c, Lambda follows L -> F^T L F + c from 0, and
Lambda_s and the sum of Lambda over the stretch, which give both sums,
are taken by binary doubling on N (``_adjoint_sums``): about log2(N)
levels of (B, d, d) products, exact and finite for any F.  The lambdas of
that stretch are one backward affine scan, the transient steps are stepped
with plain products, and their sums are batched products over the stacked
steps.  ``smoothed_covariances`` expands such a result into every step's
covariances for the public posterior, the frozen Lambdas in blocks of
about sqrt(N) steps (``_congruence_states``).

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
#: doubles in one panel of tangent-pass scores and in its (K, n, d) block
#: states, in one run of the filter's held S^{-1} and in one settle-test array
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
    """Batched Kalman filter, storing what the adjoint smoother reads.

    Returns a dict with the predicted ``pred_means`` (B, T, d) and
    ``pred_covs`` (B, T, d, d), ``FT`` = F_t^T = (A (I - K_t C))^T
    (B, T, d, d), ``SinvC`` = S_t^{-1} C (B, T, p, d), ``v`` = S_t^{-1} r_t
    (B, T, p), per-element logliks, an ``ok`` mask (False where an
    innovation covariance degenerated) and the ``switch`` step (the first
    frozen step, T when the filter never froze).  FT and SinvC are stored
    for the steps 0 .. switch only (FT before T - 1): later steps share the
    switch's.  An element not ``ok`` stores F = 0, S^{-1} C = 0 and v = 0
    from the step it fails at.  Elements False in the caller's ``ok`` (all
    True by default) fail from step 0.  An earlier pass of the same shapes
    handed over as ``reuse`` has its arrays overwritten by this one's.
    ``filtered_moments`` derives the filtered trajectories.

    The loop steps the covariance recursion alone, which does not read Y:
    C P_t, the factor of S_t (inline at p = 1 while every element factors),
    S_t^{-1}, K_t^T, F_t^T and P_{t+1}, the last two stored in the pass's
    arrays as they are made.  Once the predicted covariance of every ``ok``
    element has settled (see the module docstring), S, K and log|S| are
    frozen and the stored covariances of the remaining steps are the frozen
    ones.  The steps before the switch of ``reuse`` are tested for settling
    after the loop, which goes back to the first settled step should it lie
    among them: the outputs do not depend on ``reuse``.  Everything that
    reads Y is taken over whole stretches of steps: the means,
    x_{t+1} = x_t F_t^T + y_t G_t^T as rows with G_t^T = K_t^T A^T, by one
    product a step over the transient and a doubling scan over the frozen
    stretch; then the innovations, S^{-1} r, S^{-1} C and the logliks.  The
    transient's S_t^{-1} are held until then, in runs of steps whose (p, p)
    matrices hold at most SCAN_CHUNK doubles: a run that fills is taken in
    the loop, the last after it, so a long transient keeps no (T, p, p)
    stack.  A failed element's S^{-1} C, G and v are zeroed from its
    failure step as its steps are taken, its F in the loop, where its P
    turns to the identity.
    """
    B, d, p = pb.B, pb.d, pb.p
    T = Y.shape[0]
    ok = np.ones(B, dtype=bool) if ok is None else ok.copy()
    all_ok = bool(ok.all())
    failed_at = np.where(ok, T, 0)             # the step an element failed at, T if none
    # transposed views slow every batched product they enter: made contiguous once
    AT = np.ascontiguousarray(_T(pb.A))
    CT = np.ascontiguousarray(_T(pb.C))
    eye = np.broadcast_to(np.eye(p), (B, p, p))
    # the steps before the switch of the pass handed over are tested after the loop
    untested = 0 if reuse is None else reuse["switch"]
    oks = []                                   # ok at each untested step
    shapes = {"pred_means": (B, T, d), "pred_covs": (B, T, d, d), "FT": (B, T, d, d),
              "SinvC": (B, T, p, d), "v": (B, T, p)}
    out = {k: np.empty(shape) if reuse is None else reuse[k] for k, shape in shapes.items()}
    xs, Ps, FTs, SinvCs, vs = (out[k] for k in shapes)
    step_ll = np.empty((B, T))                     # log|S_t|, then the step logliks
    # S_t^{-1} of the transient steps from ``taken`` on, taken in runs whose
    # (B, p, p) matrices with their stack, or means, hold about SCAN_CHUNK
    # doubles.  Until a step's data-side quantities are taken, v holds the
    # diagonal of its S's Cholesky factor and SinvC its G^T = (A K)^T
    run = max(1, SCAN_CHUNK // (2 * B * max(p * p, d)))
    Sinvs = []

    def take(a: int, b: int) -> None:
        """Take the data-side quantities of the transient steps a .. b - 1
        from their S^{-1}, the ``Sinvs`` emptied here: log|S_t|, the means
        up to x_b (to x_{T-1} at most), S^{-1} C and S^{-1} r."""
        Sinv = np.array(Sinvs[:b - a])                 # (b - a, B, p, p)
        Sinvs.clear()
        step_ll[:, a:b] = _log_det(vs[:, a:b])
        held = np.arange(a, b) >= failed_at[:, None]
        # x_{j+1} = x_j F_j^T + y_j G_j^T, with F_j and G_j zero for a failed
        # element.  Step-major rows x_j (B, 1, d) make each step one batched
        # product over contiguous rows
        m = min(b, T - 1)
        x = np.empty((m - a + 1, B, 1, d))
        x[0, :, 0] = xs[:, a]
        np.einsum("sp,bspd->sbd", Y[a:m], SinvCs[:, a:m], out=x[1:, :, 0])
        x[1:][held.T[:m - a]] = 0.0
        for j in range(m - a):
            x[j + 1] += x[j] @ FTs[:, a + j]
        xs[:, a:m + 1] = x[:, :, 0].swapaxes(0, 1)
        np.einsum("sbpq,bqd->bspd", Sinv, pb.C, out=SinvCs[:, a:b])
        SinvCs[:, a:b][held] = 0.0
        np.einsum("bsp,sbpq->bsq", Y[a:b] - xs[:, a:b] @ CT, Sinv, out=vs[:, a:b])

    P = sym(pb.R0)                                 # predicted covariance at t
    Ps[:, 0] = P
    xs[:, 0] = pb.mu0
    t = taken = 0
    while t < T:
        if t - taken == run:
            take(taken, t)
            taken = t
        CP = pb.C @ P                                  # (B, p, d)
        S = CP @ CT + pb.R2
        if p == 1:
            # a 1x1 S is its own symmetric part; _factor_solve's 1x1 path,
            # inline where every element factors
            s = S[:, 0, 0]
            inline = all_ok and 0 < s.min() and s.max() < np.inf
        else:
            S, inline = sym(S), False
        if inline:
            Sinv = (1.0 / s)[:, None, None]
            np.sqrt(s, out=vs[:, t, 0])
            KT = CP * Sinv
        else:
            vs[:, t], (KT, Sinv), ok = _factor_solve(S, (CP, eye), ok)
            if not ok.all():
                failed_at = np.where(ok, failed_at, np.minimum(failed_at, t))
                all_ok = False
        Sinvs.append(Sinv)
        t += 1
        if t == T:
            break
        # F^T = A^T - C^T (A K)^T
        GT = SinvCs[:, t - 1] = KT @ AT
        FT = AT - CT @ GT
        if not all_ok:
            FT[~ok] = 0.0
        FTs[:, t - 1] = FT
        P_next = sym(pb.A @ P @ FT + pb.R1)
        if t < untested:
            oks.append(ok.copy())
            settled = False
        else:
            settled = _settled(P_next, P, ok)
        if not all_ok:
            # an element already not ok carries the identity: its placeholder
            # covariance cannot grow without bound
            P_next[~ok] = np.eye(d)
        P = Ps[:, t] = P_next
        if settled:
            break
    k = _first_settled(Ps[:, :len(oks) + 1], np.array(oks)) if oks else None
    if k is not None:
        # the pass goes back to the first settled step, which the untested
        # stretch passed over; the frozen phase overwrites the steps after it
        t, ok = k, oks[k - 1]
    if taken < t:
        take(taken, t)
    if t < T:
        # steady state from step t on: P is the fixed point of the recursion
        P = Ps[:, t].copy()
        CP = pb.C @ P
        # S^{-1} [C P | I | C]: the transposed gain (B, p, d), S^{-1} (B, p, p)
        # and S^{-1} C (B, p, d)
        diag, (KT, Sinv, SinvC), ok = _factor_solve(sym(CP @ CT + pb.R2),
                                                    (CP, eye, pb.C), ok)
        Ps[:, t + 1:] = P[:, None]
        step_ll[:, t:] = _log_det(diag)[:, None]
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
        xs[:, t:] = _affine_scan(FT, u, xs[:, t])[:, :-1]
        SinvC[~ok] = 0.0
        FTs[:, t] = FT
        SinvCs[:, t] = SinvC
    # the innovations of every step, S^{-1} r of the frozen ones and r^T S^{-1} r
    innov = Y - xs @ CT
    if t < T:
        np.matmul(innov[:, t:], Sinv, out=vs[:, t:])
    step_ll = -0.5 * (p * LOG_2PI + step_ll + np.einsum("bsp,bsp->bs", innov, vs))
    vs[:, :t][np.arange(t) >= failed_at[:, None]] = 0.0
    vs[~ok, t:] = 0.0
    out["loglik"] = step_ll.sum(axis=1)
    out["ok"] = ok
    out["switch"] = t
    return out


def filtered_moments(pb: ParamsBatch, fr: dict):
    """The (B, T, d) filtered means x_t + P_t C^T S_t^{-1} r_t and the
    (B, T, d, d) filtered covariances P_t - (C P_t)^T S_t^{-1} C P_t of the
    ``filter_batch`` pass ``fr`` of ``pb``, from what the pass stored: the
    steps after the switch share its covariances."""
    P, x = fr["pred_covs"], fr["pred_means"]
    T = x.shape[1]
    s = min(fr["switch"], T - 1)
    Cv = fr["v"] @ pb.C
    means, covs = np.empty_like(x), np.empty_like(P)
    Pt = P[:, :s + 1]
    means[:, :s + 1] = x[:, :s + 1] + (Cv[:, :s + 1, None] @ Pt)[:, :, 0]
    means[:, s + 1:] = x[:, s + 1:] + Cv[:, s + 1:] @ P[:, s]
    covs[:, :s + 1] = sym(Pt - _T(pb.C[:, None] @ Pt) @ (fr["SinvC"][:, :s + 1] @ Pt))
    covs[:, s + 1:] = covs[:, s, None]
    return means, covs


def _adjoint_sums(FT, F, c, n: int):
    """sigma_n = Lambda^(1) + .. + Lambda^(n) and Lambda^(n) of the adjoint
    map Lambda^(k) = F^T Lambda^(k-1) F + c from Lambda^(0) = 0, as two
    (B, d, d) arrays; FT = F^T and F are both given contiguous.

    With g(L) = F^T L F + c, g^m(L) = (F^m)^T L F^m + c_m for c_m = g^m(0),
    and c_m and sigma_m = c_1 + .. + c_m compose as
    c_{a+b} = (F^a)^T c_b F^a + c_a and
    sigma_{a+b} = sigma_a + (F^a)^T sigma_b F^a + b c_a.  The bits of n are
    read from the top: m doubles (a = b = m) and, at a set bit, takes one
    step (a = 1, b = m), so the sums are exact and finite for any F in about
    log2(n) levels of (B, d, d) products.  F is not read when n <= 1.
    """
    if not n:
        return np.zeros_like(c), np.zeros_like(c)
    X = np.stack((c, c), axis=1)                # c_m, sigma_m at m = 1
    FTm, Fm, m = FT, F, 1
    bits = bin(n)[3:]
    for i, bit in enumerate(bits):
        mc = m * X[:, 0]
        X = FTm[:, None] @ X @ Fm[:, None] + X
        X[:, 1] += mc
        m *= 2
        if bit == "1":
            X = FT[:, None] @ X @ F[:, None]
            X[:, 0] += c
            X[:, 1] += (m + 1) * c
            m += 1
        if i + 1 < len(bits):
            # F^m and its transpose are both kept, contiguous: a transposed
            # view slows every batched product it enters
            FTm, Fm = FTm @ FTm, Fm @ Fm
            if bit == "1":
                FTm, Fm = FTm @ FT, Fm @ F
    return X[:, 1], X[:, 0]


def smooth_batch(pb: ParamsBatch, fr: dict) -> dict:
    """Batched fixed-interval smoother over a ``filter_batch`` pass, by the
    adjoint (modified Bryson-Frazier) recursion of the module docstring,
    reduced to what the M-step reads: the smoothed ``means`` (B, T, d),
    ``cov_sum`` = sum_t V_t, ``cross_sum`` = sum_t V_{t+1} J_t^T (the lag-one
    cross-covariances), ``cov_first`` = V_0, ``cov_last`` = V_{T-1} and the
    filter's ``ok``; ``transient`` = I - Lambda_t P_t of the steps 0 .. s
    serves ``smoothed_covariances``.  It is the RTS smoother's posterior by
    another recursion, with no gain solve, and no element can fail here.

    Cut at s = min(switch, T - 1): the N = T - s frozen steps share F, P and
    c = C^T S^{-1} C, so their lambdas are one backward affine scan,
    Lambda_s and sigma = Lambda_s + .. + Lambda_{T-1} come from
    ``_adjoint_sums``, the sum of V over them is N P - P sigma P, and that
    of the cross-covariances of the steps s .. T-2 is
    (N - 1) F P - P (sigma - Lambda_s) F P.  The transient steps s-1 .. 0
    are stepped with plain products; of their sums, sum_t P_t X_t is one
    (d, s d) (s d, d) product per element.  An element not ``ok`` has F = 0,
    S^{-1} C = 0 and S^{-1} r = 0 from the step it failed at: there and
    after, its smoothed moments are its filtered ones, its predicted ones.
    """
    P, FT = fr["pred_covs"], fr["FT"]
    xp = fr["pred_means"]
    B, T, d = xp.shape
    s = min(fr["switch"], T - 1)
    N = T - s                      # the frozen steps s .. T-1
    # C^T S^{-1} r of every step, and E[:, t] = c_t = C^T S_t^{-1} C of the
    # steps 0 .. s, each overwritten by Lambda_t once the walk has read it
    Cv = fr["v"] @ pb.C
    E = np.ascontiguousarray(_T(pb.C))[:, None] @ fr["SinvC"][:, :s + 1]
    Ps, c = P[:, s], E[:, s]
    cov_last = sym(Ps - Ps @ c @ Ps)
    F = np.ascontiguousarray(_T(FT[:, s]))
    means = np.empty((B, T, d))
    # lambda_t^T = lambda_{t+1}^T F + (C^T S^{-1} r_t)^T backward from step T - 1
    lam = _affine_scan(F, Cv[:, s:-1][:, ::-1], Cv[:, -1])[:, ::-1]
    means[:, s:] = xp[:, s:] + lam @ Ps
    sigma, Lam = _adjoint_sums(FT[:, s], F, c, N)
    cov_sum, cross_sum = N * Ps - Ps @ sigma @ Ps, np.zeros((B, d, d))
    if N > 1:
        FP = F @ Ps
        cross_sum = (N - 1) * FP - Ps @ (sigma - Lam) @ FP
    E[:, s] = Lam
    # the transient, stepped backward
    lam, lams = lam[:, 0], np.empty((B, s, d))
    for t in range(s - 1, -1, -1):
        FTt = FT[:, t]
        lam = (FTt @ lam[:, :, None])[:, :, 0] + Cv[:, t]
        lams[:, t] = lam
        Lam = np.add(FTt @ Lam @ _T(FTt), E[:, t], out=E[:, t])
    # I - Lambda_t P_t; the old E is freed before the (B, s, d, d) F_t P_t is made
    E = E @ P[:, :s + 1]
    np.subtract(np.eye(d), E, out=E)
    if s:
        means[:, :s] = xp[:, :s] + (lams[:, :, None] @ P[:, :s])[:, :, 0]
        # sum_t P_t E_t and sum_t E_{t+1}^T (F_t P_t), with P_t = P_t^T
        Pst = P[:, :s].reshape(B, s * d, d)
        cov_sum = cov_sum + _T(Pst) @ E[:, :s].reshape(B, s * d, d)
        FP = (_T(FT[:, :s]) @ P[:, :s]).reshape(B, s * d, d)
        cross_sum = cross_sum + _T(E[:, 1:].reshape(B, s * d, d)) @ FP
    return {"means": means, "cov_sum": sym(cov_sum), "cross_sum": cross_sum,
            "cov_first": sym(P[:, 0] @ E[:, 0]), "cov_last": cov_last,
            "ok": fr["ok"].copy(), "transient": E}


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


def smoothed_covariances(pb: ParamsBatch, sm: dict, fr: dict):
    """The (B, T, d, d) smoothed covariances and (B, T - 1, d, d) lag-one
    cross-covariances of a ``smooth_batch`` result over the filter pass
    ``fr`` of ``pb``: the transient from the stored I - Lambda_t P_t, and
    the frozen stretch from Lambda_{s+1} .. Lambda_{T-1}, the states of
    L -> F^T L F + c from L = 0 (``_congruence_states`` with J = F^T)."""
    E = sm["transient"]
    P, FT = fr["pred_covs"], fr["FT"]
    B, T, d = sm["means"].shape
    s = E.shape[1] - 1
    covs, cross = np.empty((B, T, d, d)), np.empty((B, T - 1, d, d))
    covs[:, :s + 1] = sym(P[:, :s + 1] @ E)
    cross[:, :s] = _T(E[:, 1:]) @ (_T(FT[:, :s]) @ P[:, :s])
    if s < T - 1:
        n, Ps = T - 1 - s, P[:, s]
        F = np.ascontiguousarray(_T(FT[:, s]))
        c = _T(pb.C) @ fr["SinvC"][:, s]
        Lam = _congruence_states(F, c, np.zeros((B, d, d)), n)[:, :0:-1]
        # P Lambda_t of every frozen step, stacked by rows: each right
        # factor shared by the stretch is one product per element
        PL = (Ps[:, None] @ Lam).reshape(B, n * d, d)
        covs[:, s + 1:] = sym(Ps[:, None] - (PL @ Ps).reshape(B, n, d, d))
        FP = F @ Ps
        cross[:, s:] = FP[:, None] - (PL @ FP).reshape(B, n, d, d)
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
