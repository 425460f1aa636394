"""Exact E-step machinery: Kalman filter, RTS smoother, likelihood evaluation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import DegeneracyError, DimensionError
from .model import LdsParams, SequenceData, sym

#: the trajectories of a stored filter pass, named as in the engine's dicts
_TRAJECTORIES = ("pred_means", "pred_covs", "filt_means", "filt_covs")


@dataclass(frozen=True)
class FilterResult:
    """Forward-pass quantities: predicted/filtered moments and the innovation loglik.

    ``switch`` is the first step whose covariances are the frozen
    steady-state ones (every later step stores the same), or T when the
    covariance recursion never settled; the smoother reads it.
    """

    pred_means: np.ndarray  # (T, d)
    pred_covs: np.ndarray   # (T, d, d)
    filt_means: np.ndarray  # (T, d)
    filt_covs: np.ndarray   # (T, d, d)
    loglik: float
    switch: int


@dataclass(frozen=True)
class SmoothedPosterior:
    """Smoothed means, covariances, lag-one cross-covariances, and second moments.

    ``Z[t] = E[x_t x_t^T | Y]`` and ``Z_cross[t] = E[x_{t+2} x_{t+1}^T | Y]``
    (the cross lists have T - 1 entries, covering t = 2..T in one-based time).
    """

    means: np.ndarray       # (T, d)
    covs: np.ndarray        # (T, d, d)
    cross_covs: np.ndarray  # (T - 1, d, d)
    Z: np.ndarray           # (T, d, d)
    Z_cross: np.ndarray     # (T - 1, d, d)


def kalman_filter(params: LdsParams, data: SequenceData) -> FilterResult:
    """Standard forward recursion; the filtered covariance is P - K S K^T.

    Raises DegeneracyError when an innovation covariance falls below 1e-12
    conditioning, signaling collapse to the parameter-space boundary.
    """
    if data.d_out != params.d_out:
        raise DimensionError(
            f"data has d_out={data.d_out} but params expect {params.d_out}")
    fr = _engine.filter_batch(_engine.stack_params([params]), data.Y, store=True)
    if not fr["ok"][0]:
        raise DegeneracyError("innovation covariance is numerically singular")
    return FilterResult(**{k: fr[k][0] for k in _TRAJECTORIES},
                        loglik=float(fr["loglik"][0]), switch=fr["switch"])


def rts_smooth(params: LdsParams, filter_result: FilterResult) -> SmoothedPosterior:
    """Backward Rauch-Tung-Striebel pass over a stored filter result."""
    fr = {k: getattr(filter_result, k)[None] for k in _TRAJECTORIES}
    fr.update(ok=np.ones(1, dtype=bool), switch=filter_result.switch)
    sm = _engine.smooth_batch(_engine.stack_params([params]), fr)
    if not sm["ok"][0]:
        raise DegeneracyError("predicted covariance is numerically singular")
    means, covs, cross = (sm[k][0] for k in ("means", "covs", "cross"))
    Z = covs + np.einsum("td,te->tde", means, means)
    Z_cross = cross + np.einsum("td,te->tde", means[1:], means[:-1])
    return SmoothedPosterior(means=means, covs=covs, cross_covs=cross,
                             Z=Z, Z_cross=Z_cross)


def complete_data_loglik(params: LdsParams, posterior: SmoothedPosterior,
                         data: SequenceData) -> float:
    """Observation likelihood evaluated at the smoothed state means.

    Returns sum_t log N(y_t; C xhat_t, R2).
    """
    try:
        L = np.linalg.cholesky(sym(params.R2))
    except np.linalg.LinAlgError:
        raise DegeneracyError("R2 is numerically singular")
    resid = data.Y - posterior.means @ params.C.T    # (T, p)
    z = np.linalg.solve(L, resid.T)                 # whitened residuals
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    T, p = data.Y.shape
    return float(-0.5 * (T * (p * _engine.LOG_2PI + logdet) + np.sum(z * z)))
