"""M-step updates and the EM outer loop with stability enforcement and
restarts; the restarts of several orders can share one loop, padded to the
top order (``multi_order_fit``)."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _engine
from ._engine import OBSERVABLE_MODE_NOISE
from .errors import DegeneracyError, DimensionError, RankDeficiencyError
from .inference import SmoothedPosterior
from .model import (PARAM_FIELDS, LdsParams, SequenceData, check_integer,
                    enforce_stability)


@dataclass(frozen=True)
class EmConfig:
    """Knobs for the EM outer loop and multi-restart strategy."""

    eps: float = 1e-4
    max_iters: int = 100
    n_restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        eps = self.eps
        if (isinstance(eps, bool) or not isinstance(eps, numbers.Real)
                or not (math.isfinite(eps) and eps > 0)):
            raise DimensionError(f"eps must be finite and > 0, got {eps!r}")
        check_integer("max_iters", self.max_iters, 1)
        check_integer("n_restarts", self.n_restarts, 1)
        check_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one EM run (or the best restart of several).

    ``loglik`` is the loglik of ``params`` and the last entry of
    ``loglik_trace``, which holds the loglik before the first and after every
    M-step; ``iterations`` counts M-steps (at most ``max_iters``), and
    ``converged`` says whether the last one moved the loglik by less than eps.
    """

    params: LdsParams
    loglik: float
    loglik_trace: list
    converged: bool
    iterations: int
    #: 1-based M-steps after which the stability rescale fired (monotonicity
    #: may legitimately break there)
    rescale_iters: list = field(default_factory=list)
    #: 1-based M-steps at which the eigenvalue floor raised a covariance
    #: estimate (R1, R2 or R0) to COV_FLOOR
    floor_iters: list = field(default_factory=list)


def _params_from_batch(pb: _engine.ParamsBatch, b: int, d: int | None = None) -> LdsParams:
    """Element b of ``pb``, cut to its first d states (all of them by default)."""
    A, C, R1, R2, mu0, R0 = (getattr(pb, f)[b] for f in PARAM_FIELDS)
    return LdsParams(A=A[:d, :d], C=C[:, :d], R1=R1[:d, :d], R2=R2, mu0=mu0[:d],
                     R0=R0[:d, :d])


def m_step(posterior: SmoothedPosterior, data: SequenceData,
           fix_observation: bool = False) -> LdsParams:
    """Closed-form parameter update from smoothed sufficient statistics.

    The returned covariances are symmetrized and eigenvalue-floored at
    1e-10; stability of A is the caller's responsibility (the EM loop
    rescales after every M-step).
    """
    if posterior.means.shape[0] != data.T:
        raise DimensionError("posterior length does not match data length")
    if fix_observation and posterior.means.shape[1] != data.d_out:
        raise DimensionError(
            f"observable mode needs d_out == d, got {data.d_out} != {posterior.means.shape[1]}")
    covs = posterior.covs
    sm = {
        "means": posterior.means[None],
        "cov_sum": covs.sum(axis=0)[None],
        "cross_sum": posterior.cross_covs.sum(axis=0)[None],
        "cov_first": covs[None, 0],
        "cov_last": covs[None, -1],
        "ok": np.ones(1, dtype=bool),
    }
    pb, _fired, ok = _engine.m_step_batch(sm, data.Y, fix_observation=fix_observation)
    if not ok[0]:
        raise RankDeficiencyError(
            "M-step accumulators are rank deficient (redundant latent dimensions)")
    return _params_from_batch(pb, 0)


def default_init(data: SequenceData, d: int, seed,
                 fix_observation: bool = False) -> LdsParams:
    """Random but deterministic starting point: scaled random orthogonal A,
    Gaussian C, identity covariances, mean-matched mu0."""
    check_integer("d", d, 1)
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q = Q * np.sign(np.where(np.diag(R) == 0, 1.0, np.diag(R)))
    A = 0.5 * Q
    if fix_observation:
        if data.d_out != d:
            raise DimensionError(
                f"observable mode needs d_out == d, got {data.d_out} != {d}")
        C = np.eye(d)
        R2 = OBSERVABLE_MODE_NOISE * np.eye(d)
    else:
        C = rng.standard_normal((data.d_out, d))
        R2 = np.eye(data.d_out)
    ybar = data.Y.mean(axis=0)
    mu0 = np.linalg.pinv(C) @ ybar
    return LdsParams(A=A, C=C, R1=np.eye(d), R2=R2, mu0=mu0, R0=np.eye(d))


def _fit_result(res: dict, b: int, d: int) -> FitResult:
    """The FitResult of element b of an ``em_loop`` result, cut to its first
    d states."""
    n = int(res["iterations"][b])
    return FitResult(
        params=_params_from_batch(res["params"], b, d),
        loglik=float(res["loglik"][b]),
        loglik_trace=res["traces"][:n + 1, b].tolist(),
        converged=bool(res["converged"][b]),
        iterations=n,
        rescale_iters=(np.flatnonzero(res["rescales"][:, b]) + 1).tolist(),
        floor_iters=(np.flatnonzero(res["floors"][:, b]) + 1).tolist(),
    )


def em_fit(data: SequenceData, init: LdsParams, config: EmConfig,
           fix_observation: bool = False) -> FitResult:
    """Alternate smoothing and M-steps until |delta loglik| < eps.

    The transition matrix is stability-rescaled (``enforce_stability``) in
    ``init`` and after every M-step; the rescaled M-steps are recorded in
    ``rescale_iters``.
    """
    if data.T < 2:
        raise DimensionError("fitting requires T >= 2")
    if init.d_out != data.d_out:
        raise DimensionError(f"data has d_out={data.d_out} but init expects {init.d_out}")
    if fix_observation and init.d != data.d_out:
        raise DimensionError(
            f"observable mode needs d_out == d, got {data.d_out} != {init.d}")
    init = init.replace(A=enforce_stability(init.A))
    res = _engine.em_loop(_engine.stack_params([init]), data.Y, eps=config.eps,
                          max_iters=config.max_iters, fix_observation=fix_observation)
    if res["failed"][0]:
        raise DegeneracyError("EM run degenerated (singular covariance encountered)")
    return _fit_result(res, 0, init.d)


def restart_seed(master_seed: int, restart: int):
    """Deterministic per-restart seed material."""
    return [int(master_seed), int(restart)]


def multi_order_fit(data: SequenceData, seeds: dict, config: EmConfig,
                    fix_observation: bool = False) -> dict:
    """Fit several orders through one batched EM loop; ``seeds`` maps each
    order to the master seed of its restarts (``config.seed`` is not read).

    Every order d draws ``config.n_restarts`` seeded initializations, which
    are padded to the highest order D with D - d unobserved, uncoupled
    states (see ``_engine.stack_params``): an order-d LDS is nested in the
    order-D class with the same loglik.  All restarts of all orders advance
    together; each order keeps its restart with the highest final loglik,
    cut back to d states.  Returns {order: FitResult}, with a
    DegeneracyError in place of the fit of an order whose every restart
    failed; the other orders are fitted all the same.

    A one-order fit is bitwise the fit of that order alone.  Orders that
    share the loop share the filter's switch step and the settle and
    conditioning tests, where the padding block enters at unit scale, so
    they agree with their one-order fits only to roundoff.
    """
    if data.T < 2:
        raise DimensionError("fitting requires T >= 2")
    orders = sorted(seeds)
    if fix_observation and len(orders) > 1:
        raise DimensionError("observable mode fits one order at a time")
    n = config.n_restarts
    inits = [default_init(data, d, restart_seed(seeds[d], r), fix_observation=fix_observation)
             for d in orders for r in range(n)]
    res = _engine.em_loop(_engine.stack_params(inits), data.Y, eps=config.eps,
                          max_iters=config.max_iters, fix_observation=fix_observation)
    fits = {}
    for i, d in enumerate(orders):
        cols = slice(i * n, (i + 1) * n)
        if np.all(res["failed"][cols]):
            fits[d] = DegeneracyError("every EM restart degenerated")
        else:
            fits[d] = _fit_result(res, i * n + int(np.argmax(res["loglik"][cols])), d)
    return fits


def multi_restart_fit(data: SequenceData, d: int, config: EmConfig,
                      fix_observation: bool = False) -> FitResult:
    """Run EM from ``config.n_restarts`` seeded initializations; keep the
    restart with the highest final loglik (``multi_order_fit`` of one order).

    All restarts advance together through one batched EM loop.
    """
    fit = multi_order_fit(data, {d: config.seed}, config, fix_observation)[d]
    if isinstance(fit, DegeneracyError):
        raise fit
    return fit
