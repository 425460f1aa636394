"""Synthetic-data generators: random stable LDS instances, inverse-Wishart
covariances, NARMA benchmark sequences, preprocessing, and delay embedding."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DegenerateDataError, DimensionError, DivergenceError,
                     InsufficientDataError)
from .model import (LdsParams, SequenceData, _check_seed, check_integer,
                    enforce_stability)

NARMA_ORDERS = (10, 20, 30)
#: divergence threshold for NARMA recursions
NARMA_DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class RandomLdsConfig:
    """Recipe for a random stable LDS: uniform A/C entries, inverse-Wishart
    noise covariances with identity scale."""

    d: int
    d_out: int
    entry_range: tuple = (-1.0, 1.0)
    iw_dof: Optional[int] = None   # None: dimension + 2 per covariance block
    seed: int = 0

    def __post_init__(self):
        check_integer("d", self.d, 1)
        check_integer("d_out", self.d_out, 1)
        _check_seed(self.seed)
        lo, hi = self.entry_range
        if not lo < hi:
            raise DimensionError(f"entry_range must be a proper interval, got {self.entry_range}")
        if self.iw_dof is not None and self.iw_dof <= max(self.d, self.d_out) + 1:
            raise DimensionError(
                f"iw_dof must exceed dimension + 1 for a finite mean, got {self.iw_dof}")


@dataclass(frozen=True)
class NarmaSpec:
    """A NARMA benchmark sequence request (orders 10, 20, or 30)."""

    order: int
    length: int
    input_range: tuple = (0.0, 0.5)
    seed: int = 0

    def __post_init__(self):
        check_integer("order", self.order, NARMA_ORDERS[0])
        if self.order not in NARMA_ORDERS:
            raise DimensionError(f"order must be one of {NARMA_ORDERS}, got {self.order}")
        check_integer("length", self.length, self.order + 1)
        _check_seed(self.seed)


def sample_inverse_wishart(dim: int, dof: int, seed) -> np.ndarray:
    """Draw from the inverse-Wishart with identity scale via Bartlett
    decomposition of the underlying Wishart; always symmetric PD."""
    check_integer("dim", dim, 1)
    if dof <= dim - 1:
        raise DimensionError(f"need dof > dim - 1, got dof={dof}, dim={dim}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    L = np.zeros((dim, dim))
    for i in range(dim):
        L[i, i] = np.sqrt(rng.chisquare(dof - i))
        L[i, :i] = rng.standard_normal(i)
    W = L @ L.T
    S = np.linalg.inv(W)
    return 0.5 * (S + S.T)


def random_stable_lds(config: RandomLdsConfig) -> LdsParams:
    """Random LDS with uniform A/C entries, stability-rescaled transition,
    and inverse-Wishart noise covariances; deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    lo, hi = config.entry_range
    A = enforce_stability(rng.uniform(lo, hi, (config.d, config.d)))
    C = rng.uniform(lo, hi, (config.d_out, config.d))
    dof_state = config.iw_dof if config.iw_dof is not None else config.d + 2
    dof_obs = config.iw_dof if config.iw_dof is not None else config.d_out + 2
    R1 = sample_inverse_wishart(config.d, dof_state, rng)
    R2 = sample_inverse_wishart(config.d_out, dof_obs, rng)
    R0 = sample_inverse_wishart(config.d, dof_state, rng)
    return LdsParams(A=A, C=C, R1=R1, R2=R2,
                     mu0=np.zeros(config.d), R0=R0)


def narma_trajectory(order: int, u: np.ndarray) -> np.ndarray:
    """Iterate the order-matching NARMA recursion from zero histories.

    Returns one output per input sample; input and state values before the
    start of the sequence are zero.
    """
    if order not in NARMA_ORDERS:
        raise DimensionError(f"order must be one of {NARMA_ORDERS}, got {order}")
    u = np.asarray(u, dtype=float).reshape(-1)
    n = u.size
    xs = np.zeros(n + 1)   # xs[t] is the state at time t; xs[0] = 0
    lag = order - 1
    for t in range(n):
        xcur = xs[t]
        window = xs[max(0, t - lag):t + 1].sum()
        u_lag = u[t - lag] if t - lag >= 0 else 0.0
        drive = 1.5 * u_lag * u[t]
        if order == 10:
            nxt = 0.3 * xcur + 0.05 * xcur * window + drive + 0.1
        elif order == 20:
            nxt = np.tanh(0.3 * xcur + 0.05 * xcur * window + drive + 0.01) + 0.2
        else:
            nxt = 0.2 * xcur + 0.004 * xcur * window + drive + 0.201
        if abs(nxt) > NARMA_DIVERGENCE_LIMIT:
            raise DivergenceError(f"NARMA-{order} recursion diverged at step {t}")
        xs[t + 1] = nxt
    return xs[1:]


def narma_generate(spec: NarmaSpec) -> SequenceData:
    """Generate a NARMA sequence of the requested length, discarding the
    first ``order`` outputs as warm-up; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.input_range
    u = rng.uniform(lo, hi, spec.length + spec.order)
    x = narma_trajectory(spec.order, u)
    return SequenceData(Y=x[spec.order:][:, None])


def preprocess_center_trim(data: SequenceData) -> SequenceData:
    """Subtract the sample mean, then drop samples outside the fixed
    interval [-0.5, 0.5]."""
    if data.d_out != 1:
        raise DimensionError("centering/trimming applies to scalar sequences only")
    y = data.Y[:, 0] - data.Y[:, 0].mean()
    kept = y[np.abs(y) <= 0.5]
    if kept.size == 0:
        raise DegenerateDataError("no samples left after trimming")
    return SequenceData(Y=kept[:, None])


def delay_embed(data: SequenceData, d: int) -> SequenceData:
    """Stack a scalar sequence into overlapping windows (y_{t+d-1}, ..., y_t)
    so the latent state becomes observable with C fixed to the identity."""
    if data.d_out != 1:
        raise DimensionError("delay embedding applies to scalar sequences only")
    check_integer("d", d, 1)
    if data.T <= d:
        raise InsufficientDataError(f"need T > d, got T={data.T}, d={d}")
    y = data.Y[:, 0]
    idx = np.arange(data.T - d + 1)[:, None] + np.arange(d - 1, -1, -1)[None, :]
    return SequenceData(Y=y[idx])
