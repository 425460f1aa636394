"""The benchmark's own input sequences, made from a seed with numpy alone.

The recipes follow the acceptance-test protocol (random stable LDS with
inverse-Wishart noise covariances, simulated with a burn-in; NARMA-10 driven
by uniform input, centred and trimmed), but nothing here calls
``ldsmdl.datagen`` or ``ldsmdl.model.simulate``: a change to those modules
cannot change what the benchmark measures.
"""
from __future__ import annotations

import numpy as np

#: spectral radius above which the generating transition matrix is rescaled
STABILITY_LIMIT = 1.0 - 1e-9
STABILITY_RESCALE = 1.1
NARMA_ORDER = 10
NARMA_WARMUP = 10


def _inverse_wishart(dim: int, dof: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-Wishart draw with identity scale (Bartlett decomposition)."""
    L = np.zeros((dim, dim))
    for i in range(dim):
        L[i, i] = np.sqrt(rng.chisquare(dof - i))
        L[i, :i] = rng.standard_normal(i)
    S = np.linalg.inv(L @ L.T)
    return 0.5 * (S + S.T)


def _psd_sqrt(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def random_lds_sequence(d: int, seed: int, T: int = 100, burn_in: int = 20) -> np.ndarray:
    """A (T, 1) sequence from a random stable order-``d`` system.

    A and C have uniform(-1, 1) entries, A is rescaled to spectral radius
    1/1.1 when it is not stable, and R1, R2, R0 are inverse-Wishart with
    dimension + 2 degrees of freedom; mu0 = 0.  The system is drawn from
    ``seed`` and simulated, after ``burn_in`` discarded steps, from a second
    generator on the same ``seed``.
    """
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (d, d))
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho > STABILITY_LIMIT:
        A = A / (STABILITY_RESCALE * rho)
    C = rng.uniform(-1.0, 1.0, (1, d))
    R1 = _inverse_wishart(d, d + 2, rng)
    R2 = _inverse_wishart(1, 3, rng)
    R0 = _inverse_wishart(d, d + 2, rng)

    rng = np.random.default_rng(seed)
    L0, L1, L2 = _psd_sqrt(R0), _psd_sqrt(R1), _psd_sqrt(R2)
    total = burn_in + T
    x = L0 @ rng.standard_normal(d)
    Y = np.empty((total, 1))
    for t in range(total):
        Y[t] = C @ x + L2 @ rng.standard_normal(1)
        if t < total - 1:
            x = A @ x + L1 @ rng.standard_normal(d)
    return Y[burn_in:]


def narma10_sequence(seed: int, length: int = 1000) -> np.ndarray:
    """A centred and trimmed NARMA-10 sequence, shape (T', 1) with T' <= length.

    y_{t+1} = 0.3 y_t + 0.05 y_t sum_{i=0}^{9} y_{t-i} + 1.5 u_{t-9} u_t + 0.1
    with u ~ uniform(0, 0.5) and zero histories; the first 10 outputs are
    dropped, the mean is subtracted, and samples outside [-0.5, 0.5] are
    removed.
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 0.5, length + NARMA_WARMUP)
    n = u.size
    lag = NARMA_ORDER - 1
    xs = np.zeros(n + 1)
    for t in range(n):
        window = xs[max(0, t - lag):t + 1].sum()
        u_lag = u[t - lag] if t >= lag else 0.0
        xs[t + 1] = 0.3 * xs[t] + 0.05 * xs[t] * window + 1.5 * u_lag * u[t] + 0.1
    y = xs[1:][NARMA_WARMUP:]
    if not np.all(np.isfinite(y)):
        raise ValueError(f"NARMA-10 recursion diverged for seed {seed}")
    y = y - y.mean()
    return y[(y >= -0.5) & (y <= 0.5)][:, None]


def delay_embed(y: np.ndarray, d: int) -> np.ndarray:
    """Rows (y_{t+d-1}, ..., y_t) of a scalar sequence: shape (T - d + 1, d)."""
    y = y[:, 0]
    idx = np.arange(y.size - d + 1)[:, None] + np.arange(d - 1, -1, -1)[None, :]
    return y[idx]
