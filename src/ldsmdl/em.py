"""M-step updates and the EM outer loop with stability enforcement and restarts."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _engine
from ._engine import OBSERVABLE_MODE_NOISE
from .errors import DegeneracyError, DimensionError, RankDeficiencyError
from .inference import SmoothedPosterior
from .model import PARAM_FIELDS, LdsParams, SequenceData, enforce_stability


@dataclass(frozen=True)
class EmConfig:
    """Knobs for the EM outer loop and multi-restart strategy."""

    eps: float = 1e-4
    max_iters: int = 100
    n_restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise DimensionError(f"eps must be finite and > 0, got {self.eps}")
        if self.max_iters < 1:
            raise DimensionError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.n_restarts < 1:
            raise DimensionError(f"n_restarts must be >= 1, got {self.n_restarts}")
        if self.seed < 0:
            raise DimensionError(f"seed must be non-negative, got {self.seed}")


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


def _params_from_batch(pb: _engine.ParamsBatch, b: int) -> LdsParams:
    return LdsParams(*(getattr(pb, f)[b] for f in PARAM_FIELDS))


def m_step(posterior: SmoothedPosterior, data: SequenceData,
           fix_observation: bool = False) -> LdsParams:
    """Closed-form parameter update from smoothed sufficient statistics.

    The returned covariances are symmetrized and eigenvalue-floored at
    1e-10; stability of A is the caller's responsibility (the EM loop
    rescales after every M-step).
    """
    if posterior.means.shape[0] != data.T:
        raise DimensionError("posterior length does not match data length")
    sm = {
        "means": posterior.means[None],
        "covs": posterior.covs[None],
        "cross": posterior.cross_covs[None],
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


def _best_fit(data: SequenceData, inits: list, config: EmConfig,
              fix_observation: bool, failure: str) -> FitResult:
    """Run the batched EM loop from ``inits`` and keep the element with the
    highest final loglik; raises DegeneracyError(failure) when every element
    failed."""
    res = _engine.em_loop(_engine.stack_params(inits), data.Y,
                          eps=config.eps, max_iters=config.max_iters,
                          fix_observation=fix_observation)
    if np.all(res["failed"]):
        raise DegeneracyError(failure)
    best = int(np.argmax(res["loglik"]))
    n = int(res["iterations"][best])
    return FitResult(
        params=_params_from_batch(res["params"], best),
        loglik=float(res["loglik"][best]),
        loglik_trace=res["traces"][:n + 1, best].tolist(),
        converged=bool(res["converged"][best]),
        iterations=n,
        rescale_iters=(np.flatnonzero(res["rescales"][:, best]) + 1).tolist(),
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
    init = init.replace(A=enforce_stability(init.A))
    return _best_fit(data, [init], config, fix_observation,
                     "EM run degenerated (singular covariance encountered)")


def restart_seed(master_seed: int, restart: int):
    """Deterministic per-restart seed material."""
    return [int(master_seed), int(restart)]


def multi_restart_fit(data: SequenceData, d: int, config: EmConfig,
                      fix_observation: bool = False) -> FitResult:
    """Run EM from ``config.n_restarts`` seeded initializations; keep the
    restart with the highest final loglik.

    All restarts advance together through one batched EM loop.
    """
    if data.T < 2:
        raise DimensionError("fitting requires T >= 2")
    inits = [default_init(data, d, restart_seed(config.seed, r),
                          fix_observation=fix_observation)
             for r in range(config.n_restarts)]
    return _best_fit(data, inits, config, fix_observation,
                     "every EM restart degenerated")
