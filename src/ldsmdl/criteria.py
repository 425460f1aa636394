"""Model-selection criteria: AIC, BIC, FIA, MME, and the stability-coupled
description length, plus the free-parameter counter."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import DimensionError
from .inference import SmoothedPosterior, complete_data_loglik
from .model import (LdsParams, SequenceData, solve_discrete_lyapunov,
                    stationary_obs_log_det)

CRITERION_NAMES = ("aic", "bic", "fia", "mme", "mdl")

#: uniform-quantizer reference value 1/12 used by message-length criteria
KAPPA_UNIFORM = 1.0 / 12.0
#: relative central-difference step of the empirical Fisher's scores
FISHER_STEP = 1e-5


@dataclass(frozen=True)
class CriterionValue:
    """A named criterion score for one model order.

    ``value`` always equals the sum of ``components``.
    """

    name: str
    value: float
    components: dict

    def __post_init__(self):
        if self.name not in CRITERION_NAMES:
            raise DimensionError(f"unknown criterion name {self.name!r}")


def _make(name: str, components: dict) -> CriterionValue:
    return CriterionValue(name=name, value=float(sum(components.values())),
                          components=components)


@dataclass(frozen=True)
class ParamCount:
    """Number of free parameters and its per-block breakdown."""

    n_theta: int
    breakdown: dict


def _free_layout(d: int, d_out: int, fix_observation: bool) -> dict:
    """The free-parameter layout: for each field of ``model.PARAM_FIELDS``,
    in order, the index arrays of its free entries and of their mirrors.

    A dense block (A, C, mu0) frees every entry, each its own mirror; a
    symmetric block (R1, R2, R0) frees its lower triangle, mirrored into the
    upper one; a block that observable-state mode pins (C, R2) frees
    nothing.  The free-parameter vector is the free entries in this order.
    """
    def dense(*shape):
        free = np.unravel_index(np.arange(math.prod(shape)), shape)
        return free, free

    def symmetric(n):
        rows, cols = np.tril_indices(n)
        return (rows, cols), (cols, rows)

    pinned = ((np.empty(0, dtype=int),) * 2,) * 2
    return {"A": dense(d, d),
            "C": pinned if fix_observation else dense(d_out, d),
            "R1": symmetric(d),
            "R2": pinned if fix_observation else symmetric(d_out),
            "mu0": dense(d),
            "R0": symmetric(d)}


def count_params(d: int, d_out: int, fix_observation: bool = False) -> ParamCount:
    """Raw free-parameter count over all blocks (symmetric matrices count
    their lower triangle; the similarity-transform redundancy is not
    subtracted).

    In observable-state mode C and R2 are pinned and contribute nothing.
    """
    if d < 1 or d_out < 1:
        raise DimensionError("d and d_out must be >= 1")
    breakdown = {name: free[0].size
                 for name, (free, _mirror) in _free_layout(d, d_out, fix_observation).items()}
    return ParamCount(n_theta=sum(breakdown.values()), breakdown=breakdown)


def aic(loglik: float, n_theta: int) -> CriterionValue:
    return _make("aic", {"fit": -2.0 * loglik, "penalty": 2.0 * n_theta})


def bic(loglik: float, n_theta: int, n: int) -> CriterionValue:
    if n < 1:
        raise DimensionError(f"sample size must be >= 1, got {n}")
    return _make("bic", {"fit": -2.0 * loglik, "penalty": n_theta * math.log(n)})


def fia(loglik: float, n_theta: int, n: int, fisher_log_det: float) -> CriterionValue:
    return _make("fia", {
        "fit": -loglik,
        "dimension_penalty": 0.5 * n_theta * math.log(n / (2.0 * math.pi)),
        "geometric_complexity": fisher_log_det,
    })


def mme(loglik: float, n_theta: int, n: int) -> CriterionValue:
    if n < 1:
        raise DimensionError(f"sample size must be >= 1, got {n}")
    return _make("mme", {
        "fit": -loglik,
        "penalty": 0.5 * n_theta * math.log(n * KAPPA_UNIFORM),
        "constant": 0.5 * n_theta,
    })


def mdl_order_penalty(d: int, N: int) -> float:
    """The order-linear description-length penalty (d/2) log(2 N^2 / (2 pi)^2)."""
    return 0.5 * d * math.log(2.0 * N * N / (2.0 * math.pi) ** 2)


def mdl_description_length(fit, posterior: SmoothedPosterior, data: SequenceData,
                           N: int) -> CriterionValue:
    """Description length of a fitted model: goodness-of-fit at the smoothed
    means, a stability term through the Lyapunov solution for (A, R1), and
    the order-linear penalty at d = ``fit.params.d``.  ML path: no prior term.

    Raises InstabilityError when the fitted transition matrix is unstable
    at evaluation time.
    """
    if N < 1:
        raise DimensionError(f"N must be >= 1, got {N}")
    params = fit.params
    Q = solve_discrete_lyapunov(params.A, params.R1)
    return _make("mdl", {
        "fit": -complete_data_loglik(params, posterior, data),
        "stability": 0.5 * stationary_obs_log_det(params, Q),
        "order_penalty": mdl_order_penalty(params.d, N),
    })


def normalize_values(values) -> list:
    """Min-max normalize a sweep of numbers to [0, 1]; a constant sweep maps
    to all zeros by convention."""
    raw = np.asarray(values, dtype=float)
    if raw.size < 2:
        raise DimensionError("need at least two values to normalize")
    span = raw.max() - raw.min()
    if span == 0.0:
        return [0.0] * raw.size
    return list((raw - raw.min()) / span)


# --- empirical Fisher information (geometric-complexity surrogate for FIA) ---

def empirical_fisher_log_det(params: LdsParams, data: SequenceData,
                             fix_observation: bool = False) -> float:
    """Half log-determinant of the empirical Fisher information at ``params``.

    Per-timestep score vectors of the innovation-form loglik are estimated
    by central finite differences (relative step ``FISHER_STEP``) and
    accumulated as an outer product F.  Two rules make the value well
    defined:

    - the score row of a parameter whose + or - perturbed filter is not
      ``ok`` (a degenerate innovation covariance) is set to zero, so it
      drops out like any other null direction;
    - the result is always the pseudo-determinant over the eigenvalues of F
      above ``1e-12`` times the largest, so a numerically rank-deficient F
      (more free parameters than timesteps, or non-identifiable
      directions) gives the same kind of value as a full-rank one.

    The blocks that ``fix_observation`` pins are carried from ``params``.
    """
    layout = _free_layout(params.d, params.d_out, fix_observation)
    theta = np.concatenate([getattr(params, name)[free]
                            for name, (free, _mirror) in layout.items()])
    n = theta.size
    h = FISHER_STEP * np.maximum(1.0, np.abs(theta))
    fields = {}
    first = 0
    for name, (free, mirror) in layout.items():
        M = getattr(params, name).copy()
        M[mirror] = M[free]            # a symmetric block is rebuilt from its lower triangle
        batch = np.repeat(M[None], 2 * n, axis=0)
        i = first + np.arange(free[0].size)
        # element 2i (2i + 1) moves entry i of theta, and its mirror, by +h_i (-h_i)
        for k, value in enumerate((theta[i] + h[i], theta[i] - h[i])):
            batch[(2 * i + k,) + free] = value
            batch[(2 * i + k,) + mirror] = value
        fields[name] = batch
        first += free[0].size
    pb = _engine.ParamsBatch(**fields)
    fr = _engine.filter_batch(pb, data.Y, store=False)
    ll = fr["step_loglik"]                       # (2n, T)
    scores = (ll[0::2] - ll[1::2]) / (2.0 * h[:, None])   # (n, T)
    scores[~(fr["ok"][0::2] & fr["ok"][1::2])] = 0.0
    F = scores @ scores.T
    w = np.linalg.eigvalsh(0.5 * (F + F.T))
    w = w[w > max(w.max(), 0.0) * 1e-12]
    if w.size == 0:
        return 0.0
    return 0.5 * float(np.sum(np.log(w)))
