"""Model-selection criteria: AIC, BIC, FIA, MME, and the stability-coupled
description length, plus the free-parameter counter."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import DimensionError
from .inference import FilterResult, complete_data_loglik, kalman_filter
from .model import (LdsParams, SequenceData, check_integer,
                    solve_discrete_lyapunov, stationary_obs_log_det)

CRITERION_NAMES = ("aic", "bic", "fia", "mme", "mdl")

#: uniform-quantizer reference value 1/12 used by message-length criteria
KAPPA_UNIFORM = 1.0 / 12.0


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
    check_integer("d", d, 1)
    check_integer("d_out", d_out, 1)
    breakdown = {name: free[0].size
                 for name, (free, _mirror) in _free_layout(d, d_out, fix_observation).items()}
    return ParamCount(n_theta=sum(breakdown.values()), breakdown=breakdown)


def aic(loglik: float, n_theta: int) -> CriterionValue:
    return _make("aic", {"fit": -2.0 * loglik, "penalty": 2.0 * n_theta})


def bic(loglik: float, n_theta: int, n: int) -> CriterionValue:
    check_integer("n", n, 1)
    return _make("bic", {"fit": -2.0 * loglik, "penalty": n_theta * math.log(n)})


def fia(loglik: float, n_theta: int, n: int, fisher_log_det: float) -> CriterionValue:
    check_integer("n", n, 1)
    return _make("fia", {
        "fit": -loglik,
        "dimension_penalty": 0.5 * n_theta * math.log(n / (2.0 * math.pi)),
        "geometric_complexity": fisher_log_det,
    })


def mme(loglik: float, n_theta: int, n: int) -> CriterionValue:
    check_integer("n", n, 1)
    return _make("mme", {
        "fit": -loglik,
        "penalty": 0.5 * n_theta * math.log(n * KAPPA_UNIFORM),
        "constant": 0.5 * n_theta,
    })


def mdl_order_penalty(d: int, N: int) -> float:
    """The order-linear description-length penalty (d/2) log(2 N^2 / (2 pi)^2)."""
    check_integer("N", N, 1)
    return 0.5 * d * math.log(2.0 * N * N / (2.0 * math.pi) ** 2)


def mdl_description_length(fit, means: np.ndarray, data: SequenceData,
                           N: int) -> CriterionValue:
    """Description length of a fitted model: goodness-of-fit at the (T, d)
    smoothed ``means``, a stability term through the Lyapunov solution for
    (A, R1) and the order-linear penalty at d = ``fit.params.d`` (ML: no prior).

    Raises InstabilityError when the fitted transition matrix is unstable,
    and DimensionError unless ``means`` has shape (data.T, d).
    """
    params = fit.params
    order_penalty = mdl_order_penalty(params.d, N)
    Q = solve_discrete_lyapunov(params.A, params.R1)
    return _make("mdl", {
        "fit": -complete_data_loglik(params, means, data),
        "stability": 0.5 * stationary_obs_log_det(params, Q),
        "order_penalty": order_penalty,
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

def _directions(params: LdsParams, fix_observation: bool) -> _engine.ParamsBatch:
    """One unit direction per free parameter of ``_free_layout``, in its
    order, as a batch: element i is 1 at free entry i and at its mirror.  A
    block with no free entry (C and R2 under ``fix_observation``) is None."""
    layout = _free_layout(params.d, params.d_out, fix_observation)
    n = sum(free[0].size for free, _mirror in layout.values())
    fields = {}
    first = 0
    for name, (free, mirror) in layout.items():
        if not free[0].size:
            fields[name] = None
            continue
        unit = np.zeros((n,) + getattr(params, name).shape)
        i = first + np.arange(free[0].size)
        unit[(i,) + free] = 1.0
        unit[(i,) + mirror] = 1.0
        fields[name] = unit
        first += free[0].size
    return _engine.ParamsBatch(**fields)


def empirical_fisher_log_det(params: LdsParams, data: SequenceData,
                             fix_observation: bool = False,
                             filter_result: FilterResult | None = None) -> float:
    """Half log-determinant of the empirical Fisher information at ``params``.

    The per-timestep score vectors of the innovation-form loglik are exact:
    one tangent-linear pass (``_engine.tangent_fisher``) over the filter
    pass at ``params`` carries the derivatives of the filter along every
    free parameter of ``_free_layout`` (an off-diagonal covariance entry
    moves with its mirror), with no difference step.  The pass takes each
    product of its (n, a, b) direction stacks as one 2-D product, gives a
    block that no direction moves (C and R2 under ``fix_observation``) no
    columns, and adds the outer products of its scores to F one panel of
    steps at a time.  The result is always the pseudo-determinant over the
    eigenvalues of F above ``1e-12`` times the largest, so a numerically
    rank-deficient F (more free parameters than timesteps, or
    non-identifiable directions) gives the same kind of value as a
    full-rank one.

    ``filter_result`` is the ``kalman_filter`` pass of ``params`` on
    ``data`` when the caller has made it already (``selection`` scores an
    order through one pass); without it the function filters itself, with
    the same result.  The blocks that ``fix_observation`` pins get no
    direction.  Raises what ``kalman_filter`` raises when it filters:
    DimensionError when the data's width is not ``params.d_out``, and
    DegeneracyError when an innovation covariance of the filter at
    ``params`` is numerically singular.
    """
    fr = kalman_filter(params, data) if filter_result is None else filter_result
    F = _engine.tangent_fisher(params, fr, data.Y, _directions(params, fix_observation))
    w = np.linalg.eigvalsh(0.5 * (F + F.T))
    w = w[w > max(w.max(), 0.0) * 1e-12]
    if w.size == 0:
        return 0.0
    return 0.5 * float(np.sum(np.log(w)))
