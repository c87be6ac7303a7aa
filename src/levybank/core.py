"""Problem configuration, diagonal-operator arithmetic and closed-form oracles.

The model lives on R^N with A = -diag(lambda_1..lambda_N) and Q = diag(sigma_1^2
.. sigma_N^2), so every operator that appears anywhere in the engine (propagators
e^{tau A}, covariance integrals, their powers and inverses) is diagonal.  A
"diagonal operator" is therefore just a length-N float array of diagonal
entries, and all operator algebra is elementwise.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

# A diagonal operator is its vector of diagonal entries.
DiagonalOperator = np.ndarray

# Relative slack when deciding whether a time sits on a uniform grid.
GRID_RTOL = 1e-9
# Inner length of one matrix product in contract(): up to this length OpenBLAS
# gives the same bits for one and two threads (at 1000 it does not).
CONTRACT_PIECE = 100


def squared_eigenvalues(dim: int) -> np.ndarray:
    """Default spectrum lambda_k = k^2, k = 1..dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return (np.arange(1, dim + 1, dtype=float)) ** 2


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem configuration.

    alpha      stability index of the subordinator, in (1/2, 1)
    gamma_bar  subordinator scale, > 0
    dim        state dimension N
    lambdas    ascending positive eigenvalues of -A, length N
    sigmas     positive diagonal of sqrt(Q), length N
    horizon    terminal time T > 0
    """

    alpha: float
    gamma_bar: float
    dim: int
    lambdas: np.ndarray
    sigmas: np.ndarray
    horizon: float

    def __post_init__(self):
        lambdas = np.ascontiguousarray(self.lambdas, dtype=float)
        sigmas = np.ascontiguousarray(self.sigmas, dtype=float)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "sigmas", sigmas)
        if not 0.5 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (1/2, 1), got {self.alpha}")
        if self.gamma_bar <= 0.0:
            raise ValueError(f"gamma_bar must be positive, got {self.gamma_bar}")
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if lambdas.shape != (self.dim,) or sigmas.shape != (self.dim,):
            raise ValueError("lambdas and sigmas must both have length dim")
        if not np.all(lambdas > 0.0):
            raise ValueError("all lambdas must be positive")
        if np.any(np.diff(lambdas) < 0.0):
            raise ValueError("lambdas must be ascending")
        if not np.all(sigmas > 0.0):
            raise ValueError("all sigmas must be positive")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    def content_hash(self) -> bytes:
        """SHA-256 over the exact float bit patterns of all fields.

        Used to tie persisted simulation banks to the spec they were built
        under; any bit-level change in a parameter changes the hash.
        """
        h = hashlib.sha256(b"levybank-spec-v1")
        h.update(struct.pack("<ddId", self.alpha, self.gamma_bar, self.dim,
                             self.horizon))
        h.update(self.lambdas.astype("<f8").tobytes())
        h.update(self.sigmas.astype("<f8").tobytes())
        return h.digest()


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [start, end] with step `step`.

    start, end and step must be finite, and (end - start)/step a whole number
    up to relative tolerance 1e-9.
    """

    start: float
    end: float
    step: float
    n_steps: int = field(init=False)

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"need start < end, got [{self.start}, {self.end}]")
        if self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        ratio = (self.end - self.start) / self.step
        if not math.isfinite(ratio):
            raise ValueError(f"grid [{self.start}, {self.end}] with step {self.step} "
                             "is not a finite partition")
        n = int(round(ratio))
        if n < 1 or abs(ratio - n) > GRID_RTOL * max(1.0, ratio):
            raise ValueError(
                f"step {self.step} does not divide [{self.start}, {self.end}]")
        object.__setattr__(self, "n_steps", n)

    def times(self) -> np.ndarray:
        """All n_steps+1 grid points, start and end included."""
        return self.start + self.step * np.arange(self.n_steps + 1)

    def index_of(self, t: float) -> int:
        """Index of a grid point, or ValueError if t is off the grid."""
        ratio = (t - self.start) / self.step
        if math.isfinite(ratio):
            i = int(round(ratio))
            if 0 <= i <= self.n_steps and abs(ratio - i) <= GRID_RTOL * max(1.0, abs(ratio)):
                return i
        raise ValueError(f"time {t} is not on the grid (step {self.step})")


def covariance_deterministic_clock(spec: ProblemSpec, u: float, t: float) -> DiagonalOperator:
    """Covariance integral for the deterministic clock L_r = r, in closed form.

    Entry k is sigma_k^2 * (1 - exp(-2 lambda_k (t-u))) / (2 lambda_k).  Exact
    antiderivative of e^{2(t-r)A} Q dr; serves as the oracle for the quadrature
    used on sampled clocks.
    """
    if not 0.0 <= u < t:
        raise ValueError(f"need 0 <= u < t, got u={u}, t={t}")
    lam = spec.lambdas
    return spec.sigmas ** 2 * -np.expm1(-2.0 * lam * (t - u)) / (2.0 * lam)


def phi1(z):
    """(1 - e^{-z})/z elementwise for z > 0, stable down to tiny z."""
    return -np.expm1(-z) / z


def covariance_weights(lambdas: np.ndarray, d: float, n_bins: int) -> np.ndarray:
    """Per-bin covariance weights e^{-2 lambda d age} phi1(2 lambda d), (n_bins, N).

    Row i is the bin ending age = n_bins-1-i bins before the window's end, so
    dL @ weights is the unit covariance int e^{2(t-r)A} dL_r of the window.
    """
    ages = np.arange(n_bins - 1, -1, -1.0)
    return np.exp(-2.0 * np.outer(ages, lambdas) * d) * phi1(2.0 * lambdas * d)


def contract(a: np.ndarray, w: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """a @ w into out, summed in order over pieces of at most CONTRACT_PIECE rows of w.

    Each piece is one BLAS product, short enough that the thread count moves
    no bit.  scratch, shaped like out, holds each later piece.
    """
    np.matmul(a[..., :CONTRACT_PIECE], w[:CONTRACT_PIECE], out=out)
    for p in range(CONTRACT_PIECE, len(w), CONTRACT_PIECE):
        out += np.matmul(a[..., p:p + CONTRACT_PIECE], w[p:p + CONTRACT_PIECE], out=scratch)
    return out
