"""Correctness checks on benchmark outputs.

Every check compares the program's output with a quantity computed here, apart
from the program (closed-form transforms, conditional variances rebuilt from
the stored clock, file digests), or with a property the method must have.  None
compares with a stored copy of earlier output.  Each returns a Check; the
benchmark reports any that fail and prints `correct: false`.

Statistical tolerances are Z_TOL standard errors.  The benchmark is run on
arbitrary seeds, so a tolerance must keep its false-alarm rate negligible over
many of them: at 4 standard errors a single Gaussian comparison fails on about
1 seed in 16000.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

Z_TOL = 4.0
LAPLACE_LAMS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def laplace_transform(alpha: float, lam: float) -> float:
    """E[exp(-lam L_1)] = exp(-lam^alpha / cos(pi alpha / 2)) for gamma_bar = 1."""
    return math.exp(-lam ** alpha / math.cos(math.pi * alpha / 2.0))


def clock_laplace(terminal_clock: np.ndarray, alpha: float) -> Check:
    """The clocks' values at t = 1 follow the alpha-stable law of L_1."""
    worst, parts = 0.0, []
    for lam in LAPLACE_LAMS:
        vals = np.exp(-lam * terminal_clock)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        z = abs(vals.mean() - laplace_transform(alpha, lam)) / max(se, 1e-300)
        worst = max(worst, z)
        parts.append(f"lam={lam:g} z={z:.2f}")
    return Check("clock_laplace", bool(worst <= Z_TOL),
                 f"{terminal_clock.size} clocks, " + ", ".join(parts))


def conditional_variance(clock_values: np.ndarray, lambdas: np.ndarray,
                         delta_fine: float) -> np.ndarray:
    """Per-record, per-mode variance of the unit-noise convolution at the last
    grid time, given the clock: sum_i e^{-2 lam d age_i} g2 dL_i with
    g2 = (1 - e^{-2 lam d}) / (2 lam d) and age_i the number of whole fine
    steps between bin i's right edge and the end."""
    dl = np.diff(clock_values, axis=1)                        # (m, n)
    n = dl.shape[1]
    z2 = 2.0 * lambdas * delta_fine
    g2 = -np.expm1(-z2) / z2
    ages = np.arange(n - 1, -1, -1.0)
    weights = np.exp(-np.outer(ages, z2)) * g2                # (n, dim)
    return dl @ weights


def checkpoint_law(clock_values: np.ndarray, terminal_checkpoints: np.ndarray,
                   lambdas: np.ndarray, delta_fine: float) -> Check:
    """Terminal checkpoints standardized by their conditional variance are
    N(0, 1): mean 0 and variance 1 within Z_TOL standard errors."""
    var = conditional_variance(clock_values, lambdas, delta_fine)
    z = np.asarray(terminal_checkpoints, dtype=float) / np.sqrt(var)
    if not np.all(np.isfinite(z)):
        return Check("checkpoint_law", False,
                     f"{int(np.sum(~np.isfinite(z)))} non-finite standardized values")
    n = z.size
    mean, v = float(z.mean()), float(z.var(ddof=1))
    z_mean = abs(mean) * math.sqrt(n)
    z_var = abs(v - 1.0) / math.sqrt(2.0 / (n - 1))
    return Check("checkpoint_law", max(z_mean, z_var) <= Z_TOL,
                 f"{n} values, mean {mean:+.4f} (z={z_mean:.2f}), "
                 f"variance {v:.4f} (z={z_var:.2f})")


def first_iterate_improves(p, v0, v1) -> Check:
    """Criterion 3: |P - v0 - v1| <= |P - v0|, up to Z_TOL combined standard
    errors of the three estimates."""
    eps0 = abs(p.value - v0.value)
    eps1 = abs(p.value - v0.value - v1.value)
    tol = Z_TOL * math.sqrt(p.std_error ** 2 + v0.std_error ** 2 + v1.std_error ** 2)
    return Check("first_iterate_improves", eps1 <= eps0 + tol,
                 f"|P-v0-v1| {eps1:.4f} <= |P-v0| {eps0:.4f} + {tol:.4f}")


def order2_sign_pattern(p, v0, v1) -> Check:
    """Criterion 6's signs: eps0 > 0 and eps1 > eps0, the latter read as
    v1 < 0 within Z_TOL standard errors of v1."""
    eps0 = (p.value - v0.value) / p.value
    eps1 = (p.value - v0.value - v1.value) / p.value
    ok = eps0 > 0.0 and v1.value <= Z_TOL * v1.std_error
    return Check("order2_sign_pattern", ok,
                 f"eps0 {eps0:+.4f} > 0; eps1 {eps1:+.4f} > eps0 read as "
                 f"v1 {v1.value:+.4f} <= {Z_TOL * v1.std_error:.4f} ({Z_TOL:g} se)")


def zero_drift_exact(v1_values) -> Check:
    """Every zero-drift correction is exactly 0."""
    bad = [v for v in v1_values if v != 0.0]
    return Check("zero_drift_exact", not bad,
                 f"{len(v1_values)} zero-drift v1 values, {len(bad)} nonzero")


def agrees_with_reference(v0, p) -> Check:
    """Bank v0 and fresh-randomness reference agree within Z_TOL combined
    standard errors (criterion 7)."""
    gap = abs(p.value - v0.value)
    tol = Z_TOL * math.hypot(p.std_error, v0.std_error)
    return Check("v0_agrees_with_reference", gap <= tol,
                 f"|P-v0| {gap:.4f} <= {tol:.4f} (P {p.value:.4f}, v0 {v0.value:.4f})")


def bank_digest(bank) -> str:
    h = hashlib.sha256()
    h.update(bank.header.pack())
    for arr in (bank.sub_values, bank.record_clock_values, bank.record_checkpoints):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def banks_bitwise_equal(generated, loaded) -> Check:
    a, b = bank_digest(generated), bank_digest(loaded)
    return Check("bank_read_back_bitwise", a == b, f"sha256 {a[:12]} vs {b[:12]}")


def estimates_sane(v0s, others) -> Check:
    """Every value finite, with 0 <= v0 <= 1."""
    values = [e.value for e in list(v0s) + list(others)]
    finite = all(math.isfinite(v) for v in values)
    in_range = all(0.0 <= e.value <= 1.0 for e in v0s)
    return Check("estimates_sane", finite and in_range,
                 f"{len(values)} values finite: {finite}; v0 in [0, 1]: {in_range}")
