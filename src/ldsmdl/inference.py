"""Exact E-step machinery: Kalman filter, RTS smoother, likelihood evaluation."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _engine
from .errors import DegeneracyError, DimensionError
from .model import LdsParams, SequenceData, sym


@dataclass(frozen=True)
class FilterResult:
    """Forward-pass quantities: predicted/filtered moments and the innovation loglik.

    ``switch`` is the first step whose covariances are the frozen
    steady-state ones (every later step stores the same), or T when the
    covariance recursion never settled; the smoother reads it.
    ``engine_pass`` is the engine's batch-of-one pass these were read
    from, which ``rts_smooth`` reads.
    """

    pred_means: np.ndarray  # (T, d)
    pred_covs: np.ndarray   # (T, d, d)
    filt_means: np.ndarray  # (T, d)
    filt_covs: np.ndarray   # (T, d, d)
    loglik: float
    switch: int
    engine_pass: dict = field(repr=False, compare=False)


@dataclass(frozen=True)
class SmoothedPosterior:
    """Smoothed means, covariances and lag-one cross-covariances.

    ``cross_covs[t] = Cov(x_{t+1}, x_t | Y)`` for t = 0..T-2.  The second
    moments follow from these: E[x_t x_t^T | Y] = covs[t] + means[t] means[t]^T.
    """

    means: np.ndarray       # (T, d)
    covs: np.ndarray        # (T, d, d)
    cross_covs: np.ndarray  # (T - 1, d, d)


def kalman_filter(params: LdsParams, data: SequenceData) -> FilterResult:
    """Standard forward recursion.  The engine's pass stores the predicted
    moments, S^{-1} C and S^{-1} r; the filtered mean x + K r and the
    filtered covariance P - K S K^T are derived from them after the pass.

    Raises DimensionError for an empty sequence, and DegeneracyError when
    an innovation covariance S does not factor or ||S||_F trace(S^{-1}), an
    upper bound on its condition number, exceeds 1e12, signaling collapse
    to the parameter-space boundary.
    """
    if data.d_out != params.d_out:
        raise DimensionError(
            f"data has d_out={data.d_out} but params expect {params.d_out}")
    if data.T < 1:
        raise DimensionError(f"filtering needs T >= 1, got T={data.T}")
    pb = _engine.stack_params([params])
    fr = _engine.filter_batch(pb, data.Y)
    if not fr["ok"][0]:
        raise DegeneracyError("innovation covariance is numerically singular")
    means, covs = _engine.filtered_moments(pb, fr)
    return FilterResult(pred_means=fr["pred_means"][0], pred_covs=fr["pred_covs"][0],
                        filt_means=means[0], filt_covs=covs[0],
                        loglik=float(fr["loglik"][0]), switch=fr["switch"], engine_pass=fr)


def rts_smooth(params: LdsParams, filter_result: FilterResult) -> SmoothedPosterior:
    """The Rauch-Tung-Striebel posterior of a stored filter result, by the
    engine's adjoint (Bryson-Frazier) recursion over the same pass: the
    same smoothed moments from another recursion, with no gain solve.  Every
    step's covariances are expanded from the engine's compact result."""
    pb = _engine.stack_params([params])
    fr = filter_result.engine_pass
    sm = _engine.smooth_batch(pb, fr)
    covs, cross = _engine.smoothed_covariances(pb, sm, fr)
    return SmoothedPosterior(means=sm["means"][0], covs=covs[0], cross_covs=cross[0])


def complete_data_loglik(params: LdsParams, means: np.ndarray,
                         data: SequenceData) -> float:
    """Observation likelihood evaluated at the (T, d) smoothed state means.

    Returns sum_t log N(y_t; C xhat_t, R2); DimensionError for other shapes.
    """
    if np.shape(means) != (data.T, params.d):
        raise DimensionError(f"means of shape {np.shape(means)}, need {(data.T, params.d)}")
    try:
        L = np.linalg.cholesky(sym(params.R2))
    except np.linalg.LinAlgError:
        raise DegeneracyError("R2 is numerically singular")
    resid = data.Y - means @ params.C.T             # (T, p)
    z = np.linalg.solve(L, resid.T)                 # whitened residuals
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    T, p = data.Y.shape
    return float(-0.5 * (T * (p * _engine.LOG_2PI + logdet) + np.sum(z * z)))
