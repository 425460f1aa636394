"""Core linear dynamical system types, stability machinery, and simulation.

The model is the time-invariant Gaussian state-space system

    x_{t+1} = A x_t + w_t,      w_t ~ N(0, R1)
    y_t     = C x_t + v_t,      v_t ~ N(0, R2)
    x_1     ~ N(mu0, R0)

with latent dimension ``d`` and observation dimension ``d_out``.
"""
from __future__ import annotations

import dataclasses
import json
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, InstabilityError, SingularityError

#: spectral radii within this margin of 1 are treated as unstable
STABILITY_MARGIN = 1e-9
#: rescaling factor applied to unstable transition matrices
STABILITY_RESCALE = 1.1
#: symmetry tolerance for covariance validation, relative above unit scale
SYMMETRY_TOL = 1e-10
#: smallest admissible covariance eigenvalue during validation, relative
#: above unit scale
EIGENVALUE_TOL = 1e-10


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError(f"{name} contains non-finite entries")
    return a


def _square_matrix(x, name: str) -> np.ndarray:
    """``_as_matrix``, and square with at least one row."""
    a = _as_matrix(x, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got {a.shape}")
    if a.shape[0] < 1:
        raise DimensionError(f"d must be >= 1, got {name} of shape {a.shape}")
    return a


def check_integer(name: str, value, low: int) -> None:
    """Raise DimensionError unless ``value`` is an integer (a bool is not)
    at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DimensionError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_seed(seed) -> None:
    """Raise DimensionError unless ``seed`` is None, a Generator or an
    integer >= 0."""
    if seed is not None and not isinstance(seed, np.random.Generator):
        check_integer("seed", seed, 0)


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a square matrix, halved before the add so that no
    finite M overflows it."""
    h = 0.5 * M
    return h + h.swapaxes(-1, -2)


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix (negative roundoff clipped to zero)."""
    w, V = np.linalg.eigh(sym(M))
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def _check_cov(M: np.ndarray, name: str) -> None:
    """Reject an asymmetric or indefinite square covariance; both
    tolerances scale with max(1, max |M|), since a covariance computed at a
    larger scale is symmetric and PSD only to roundoff at that scale."""
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > SYMMETRY_TOL * scale:
        raise DimensionError(f"{name} is not symmetric to {SYMMETRY_TOL * scale:.3g}")
    w = np.linalg.eigvalsh(sym(M))
    if np.min(w) < -EIGENVALUE_TOL * scale:
        raise DimensionError(f"{name} has eigenvalue {np.min(w):.3e} "
                             f"below -{EIGENVALUE_TOL * scale:.3g}")


#: the fields of an LDS parameter set, in the order LdsParams declares them
PARAM_FIELDS = ("A", "C", "R1", "R2", "mu0", "R0")


@dataclass(frozen=True)
class LdsParams:
    """Full parameter set of a time-invariant LDS.

    All matrices are stored as float arrays; instances are immutable
    value objects and safe to share across threads.
    """

    A: np.ndarray
    C: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    mu0: np.ndarray
    R0: np.ndarray

    def __post_init__(self):
        A = _square_matrix(self.A, "A")
        C = _as_matrix(self.C, "C")
        R1 = _as_matrix(self.R1, "R1")
        R2 = _as_matrix(self.R2, "R2")
        R0 = _as_matrix(self.R0, "R0")
        mu0 = np.asarray(self.mu0, dtype=float).reshape(-1)
        if not np.all(np.isfinite(mu0)):
            raise DimensionError("mu0 contains non-finite entries")
        d = A.shape[0]
        if C.ndim != 2 or C.shape[1] != d:
            raise DimensionError(f"C must have {d} columns, got {C.shape}")
        d_out = C.shape[0]
        if d_out < 1:
            raise DimensionError(f"d_out must be >= 1, got C of shape {C.shape}")
        if R1.shape != (d, d):
            raise DimensionError(f"R1 must be {d}x{d}, got {R1.shape}")
        if R2.shape != (d_out, d_out):
            raise DimensionError(f"R2 must be {d_out}x{d_out}, got {R2.shape}")
        if R0.shape != (d, d):
            raise DimensionError(f"R0 must be {d}x{d}, got {R0.shape}")
        if mu0.shape != (d,):
            raise DimensionError(f"mu0 must have length {d}, got {mu0.shape}")
        _check_cov(R1, "R1")
        _check_cov(R2, "R2")
        _check_cov(R0, "R0")
        for name, val in zip(PARAM_FIELDS, (A, C, R1, R2, mu0, R0)):
            object.__setattr__(self, name, val)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def d_out(self) -> int:
        return self.C.shape[0]

    #: a copy with some fields changed, validated like a new instance
    replace = dataclasses.replace

    def to_dict(self) -> dict:
        doc = {f: getattr(self, f).tolist() for f in PARAM_FIELDS}
        return {**doc, "d": self.d, "d_out": self.d_out}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "LdsParams":
        p = cls(*(doc[f] for f in PARAM_FIELDS))
        if "d" in doc and int(doc["d"]) != p.d:
            raise DimensionError(f"declared d={doc['d']} but A is {p.d}x{p.d}")
        if "d_out" in doc and int(doc["d_out"]) != p.d_out:
            raise DimensionError(f"declared d_out={doc['d_out']} but C has {p.d_out} rows")
        return p

    @classmethod
    def from_json(cls, text: str) -> "LdsParams":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SequenceData:
    """An observation matrix of shape (T, d_out)."""

    Y: np.ndarray

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        if Y.ndim != 2:
            raise DimensionError(f"Y must be a (T, d_out) matrix, got shape {Y.shape}")
        if Y.shape[1] < 1:
            raise DimensionError(f"Y must have at least one column, got shape {Y.shape}")
        if not np.all(np.isfinite(Y)):
            raise DimensionError("Y contains non-finite entries")
        object.__setattr__(self, "Y", Y)

    @property
    def T(self) -> int:
        return self.Y.shape[0]

    @property
    def d_out(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class ModelOrderBounds:
    """Inclusive range of latent dimensions to consider during selection."""

    d_min: int
    d_max: int

    def __post_init__(self):
        check_integer("d_min", self.d_min, 1)
        check_integer("d_max", self.d_max, self.d_min)


def spectral_radius(A) -> float:
    """Maximum eigenvalue magnitude of a square matrix."""
    A = _square_matrix(A, "A")
    return float(np.max(np.abs(np.linalg.eigvals(A))))


@np.errstate(over="ignore", invalid="ignore")     # a bound that overflows clears nothing
def enforce_stability_batch(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale each of the (B, d, d) matrices ``A`` whose spectral radius
    exceeds 1 - STABILITY_MARGIN by STABILITY_RESCALE times that radius,
    landing it at 1/1.1; returns (A, fired-mask).  The other matrices are
    divided by 1.0, which leaves them bitwise unchanged.

    The radius is taken by ``eigvals`` only where a bound cannot clear the
    matrix: rho(A)^16 <= ||A^16||_inf, with A^16 from four squarings.  A is
    cleared where ||A^16||_inf + 1e-10 ||A||_inf^16 <= 1 - 16 STABILITY_MARGIN,
    which is below (1 - STABILITY_MARGIN)^16.  The term in ||A||_inf^16
    covers the roundoff of the squarings, below 16 d eps ||A||_inf^16, and
    a backward error of eigvals of up to 2e4 eps ||A||_inf, so that eigvals
    would not have fired on a cleared matrix either.
    """
    norm = np.abs(A).sum(axis=-1).max(axis=-1)
    power = A
    for _ in range(4):
        power = power @ power
    bound = np.abs(power).sum(axis=-1).max(axis=-1) + 1e-10 * norm ** 16
    check = ~(bound <= 1.0 - 16 * STABILITY_MARGIN)          # NaN fails the bound
    rho = np.zeros(A.shape[0])
    if check.any():
        rho[check] = np.max(np.abs(np.linalg.eigvals(A[check])), axis=-1)
    fired = rho > 1.0 - STABILITY_MARGIN
    return A / np.where(fired, STABILITY_RESCALE * rho, 1.0)[:, None, None], fired


def enforce_stability(A) -> np.ndarray:
    """Rescale ``A`` so its spectral radius is strictly below one
    (``enforce_stability_batch`` with a batch of one)."""
    A = _square_matrix(A, "A")
    return enforce_stability_batch(A[None])[0][0]


def solve_discrete_lyapunov(A, W) -> np.ndarray:
    """Solve Q = A Q A^T + W for the stationary covariance of a stable system.

    Smith's doubling (SIAM J. Appl. Math. 16(1), 1968): from Q = sym(W),
    pass k adds A_k Q A_k^T with A_k = A^(2^k), and the first pass that adds
    nothing above Q's roundoff (max |term| <= eps max |Q|) ends it.  Raises
    InstabilityError when the spectral radius of ``A`` is >= 1, where no PSD
    solution exists and the passes would not end, and once Q is not finite.
    """
    A = _square_matrix(A, "A")
    W = _as_matrix(W, "W")
    if W.shape != A.shape:
        raise DimensionError(f"W must be {A.shape[0]}x{A.shape[0]}, got {W.shape}")
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise InstabilityError(f"spectral radius {rho:.6g} >= 1: no PSD Lyapunov solution")
    Q = sym(W)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            term = A @ Q @ A.T
            Q = Q + term
            top = np.abs(Q).max()                      # nan when Q holds a nan
            if not np.isfinite(top):
                raise InstabilityError(
                    f"no finite stationary covariance for spectral radius {rho:.6g}")
            if np.abs(term).max() <= np.finfo(float).eps * top:
                return sym(Q)
            A = A @ A


def stationary_obs_log_det(params: LdsParams, Q) -> float:
    """log det(C Q C^T + R2) on the observation space, from its Cholesky
    factor.

    ``Q`` should be the Lyapunov solution for (A, R1).  Raises
    SingularityError when C Q C^T + R2 is not positive definite.
    """
    Q = _as_matrix(Q, "Q")
    if Q.shape != (params.d, params.d):
        raise DimensionError(f"Q must be {params.d}x{params.d}, got {Q.shape}")
    try:
        L = np.linalg.cholesky(sym(params.C @ Q @ params.C.T + params.R2))
    except np.linalg.LinAlgError:
        raise SingularityError("C Q C^T + R2 is not positive definite")
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def simulate(params: LdsParams, T: int, burn_in: int = 0,
             seed: Optional[int] = None) -> SequenceData:
    """Draw ``T`` observations from a stable LDS after discarding ``burn_in`` steps.

    Bit-reproducible for a fixed seed and parameter set.
    """
    check_integer("T", T, 1)
    check_integer("burn_in", burn_in, 0)
    _check_seed(seed)
    if spectral_radius(params.A) >= 1.0:
        raise InstabilityError("cannot simulate an unstable system")
    rng = np.random.default_rng(seed)
    total = burn_in + T
    L0 = psd_sqrt(params.R0)
    L1 = psd_sqrt(params.R1)
    L2 = psd_sqrt(params.R2)
    x = params.mu0 + L0 @ rng.standard_normal(params.d)
    Y = np.empty((total, params.d_out))
    for t in range(total):
        Y[t] = params.C @ x + L2 @ rng.standard_normal(params.d_out)
        if t < total - 1:
            x = params.A @ x + L1 @ rng.standard_normal(params.d)
    return SequenceData(Y=Y[burn_in:])


def write_sequence_csv(data: SequenceData, path) -> None:
    """Write a sequence as headerless CSV, one row per time step, 17 significant digits."""
    np.savetxt(path, data.Y, delimiter=",", fmt="%.17g")


def read_sequence_csv(path) -> SequenceData:
    """Read a headerless CSV sequence (one row per time step)."""
    with warnings.catch_warnings():
        # an empty file is reported by the T >= 2 check of every fit
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        Y = np.loadtxt(path, delimiter=",", ndmin=2)
    return SequenceData(Y=Y)
