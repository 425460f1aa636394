"""Model-selection criteria: AIC, BIC, FIA, MME, and the stability-coupled
description length, plus the free-parameter counter and lattice constant."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _engine
from .errors import DimensionError
from .inference import SmoothedPosterior, complete_data_loglik
from .model import (LdsParams, SequenceData, solve_discrete_lyapunov,
                    stationary_obs_log_det)

CRITERION_NAMES = ("aic", "bic", "fia", "mme", "mdl")

#: asymptotic lattice quantization constant 1/(2*pi*e)
KAPPA_ASYMPTOTIC = 1.0 / (2.0 * math.pi * math.e)
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
    order: int
    value: float
    components: dict

    def __post_init__(self):
        if self.name not in CRITERION_NAMES:
            raise DimensionError(f"unknown criterion name {self.name!r}")


def _make(name: str, order: int, components: dict) -> CriterionValue:
    return CriterionValue(name=name, order=order,
                          value=float(sum(components.values())),
                          components=components)


@dataclass(frozen=True)
class ParamCount:
    """Number of free parameters and its per-block breakdown."""

    n_theta: int
    breakdown: dict


def count_params(d: int, d_out: int, fix_observation: bool = False) -> ParamCount:
    """Raw free-parameter count over all blocks (symmetric matrices count
    their lower triangle; the similarity-transform redundancy is not
    subtracted).

    In observable-state mode C and R2 are pinned and contribute nothing.
    """
    if d < 1 or d_out < 1:
        raise DimensionError("d and d_out must be >= 1")
    tri = d * (d + 1) // 2
    breakdown = {
        "A": d * d,
        "C": 0 if fix_observation else d * d_out,
        "R1": tri,
        "R2": 0 if fix_observation else d_out * (d_out + 1) // 2,
        "mu0": d,
        "R0": tri,
    }
    return ParamCount(n_theta=sum(breakdown.values()), breakdown=breakdown)


def kappa_d(d: int) -> float:
    """Lattice quantization constant; the asymptotic value is used at every d."""
    if d < 1:
        raise DimensionError(f"d must be >= 1, got {d}")
    return KAPPA_ASYMPTOTIC


def aic(loglik: float, n_theta: int, order: int = 0) -> CriterionValue:
    return _make("aic", order, {"fit": -2.0 * loglik, "penalty": 2.0 * n_theta})


def bic(loglik: float, n_theta: int, n: int, order: int = 0) -> CriterionValue:
    if n < 1:
        raise DimensionError(f"sample size must be >= 1, got {n}")
    return _make("bic", order, {"fit": -2.0 * loglik,
                                "penalty": n_theta * math.log(n)})


def fia(loglik: float, n_theta: int, n: int, fisher_log_det: float,
        order: int = 0) -> CriterionValue:
    return _make("fia", order, {
        "fit": -loglik,
        "dimension_penalty": 0.5 * n_theta * math.log(n / (2.0 * math.pi)),
        "geometric_complexity": fisher_log_det,
    })


def mme(loglik: float, n_theta: int, n: int, order: int = 0) -> CriterionValue:
    if n < 1:
        raise DimensionError(f"sample size must be >= 1, got {n}")
    return _make("mme", order, {
        "fit": -loglik,
        "penalty": 0.5 * n_theta * math.log(n * KAPPA_UNIFORM),
        "constant": 0.5 * n_theta,
    })


def mdl_order_penalty(d: int, N: int) -> float:
    """The order-linear description-length penalty (d/2) log(2 N^2 / (2 pi)^2)."""
    return 0.5 * d * math.log(2.0 * N * N / (2.0 * math.pi) ** 2)


def mdl_description_length(fit, posterior: SmoothedPosterior, data: SequenceData,
                           N: int, order: Optional[int] = None) -> CriterionValue:
    """Description length of a fitted model: goodness-of-fit at the smoothed
    means, a stability term through the Lyapunov solution for (A, R1), and
    the order-linear penalty.  ML path: no prior term.

    Raises InstabilityError when the fitted transition matrix is unstable
    at evaluation time.
    """
    if N < 1:
        raise DimensionError(f"N must be >= 1, got {N}")
    params = fit.params
    d = order if order is not None else params.d
    Q = solve_discrete_lyapunov(params.A, params.R1)
    return _make("mdl", d, {
        "fit": -complete_data_loglik(params, posterior, data),
        "stability": 0.5 * stationary_obs_log_det(params, Q),
        "order_penalty": mdl_order_penalty(d, N),
    })


def normalize_values(values) -> list:
    """Min-max normalize a sweep of criterion values to [0, 1].

    Accepts CriterionValue objects or plain numbers; a constant sweep maps
    to all zeros by convention.
    """
    raw = np.array([v.value if isinstance(v, CriterionValue) else float(v)
                    for v in values], dtype=float)
    if raw.size < 2:
        raise DimensionError("need at least two values to normalize")
    span = raw.max() - raw.min()
    if span == 0.0:
        return [0.0] * raw.size
    return list((raw - raw.min()) / span)


# --- empirical Fisher information (geometric-complexity surrogate for FIA) ---

def _free_param_blocks(d: int, d_out: int, fix_observation: bool):
    """The blocks of the free-parameter vector in order, as
    (name, size, pack, unpack): pack(params) gives the block's entries and
    unpack(chunk) turns a (B, size) chunk into a batch of the parameter.

    Symmetric blocks expose their lower triangle; perturbing an off-diagonal
    entry moves both mirrored matrix entries.  In observable-state mode C
    and R2 are pinned and have no block.
    """
    def dense(name, shape):
        return (name, math.prod(shape), lambda params: getattr(params, name).ravel(),
                lambda chunk: chunk.reshape((-1,) + shape))

    def symmetric(name, n):
        rows, cols = np.tril_indices(n)

        def unpack(chunk):
            M = np.zeros((chunk.shape[0], n, n))
            M[:, rows, cols] = chunk
            return M + np.swapaxes(M, 1, 2) - M * np.eye(n)  # undo double-counted diagonal
        return (name, rows.size, lambda params: getattr(params, name)[rows, cols], unpack)

    blocks = [dense("A", (d, d)), dense("C", (d_out, d)), symmetric("R1", d),
              symmetric("R2", d_out), dense("mu0", (d,)), symmetric("R0", d)]
    return [b for b in blocks if not (fix_observation and b[0] in ("C", "R2"))]


def _pack(params: LdsParams, fix_observation: bool) -> np.ndarray:
    blocks = _free_param_blocks(params.d, params.d_out, fix_observation)
    return np.concatenate([pack(params) for _name, _size, pack, _unpack in blocks])


def _unpack_batch(vecs: np.ndarray, template: LdsParams,
                  fix_observation: bool) -> _engine.ParamsBatch:
    d, p = template.d, template.d_out
    B = vecs.shape[0]
    out = {}
    pos = 0
    for name, size, _pack, unpack in _free_param_blocks(d, p, fix_observation):
        out[name] = unpack(vecs[:, pos:pos + size])
        pos += size
    if fix_observation:
        out["C"] = np.broadcast_to(np.eye(d), (B, d, d)).copy()
        out["R2"] = np.broadcast_to(template.R2, (B, p, p)).copy()
    return _engine.ParamsBatch(**out)


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
    """
    theta = _pack(params, fix_observation)
    n = theta.size
    h = FISHER_STEP * np.maximum(1.0, np.abs(theta))
    vecs = np.repeat(theta[None], 2 * n, axis=0)
    idx = np.arange(n)
    vecs[2 * idx, idx] += h
    vecs[2 * idx + 1, idx] -= h
    pb = _unpack_batch(vecs, params, fix_observation)
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
