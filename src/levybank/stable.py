"""Sampling of the strictly alpha-stable subordinator and its validation.

The subordinator L has Laplace transform

    E[exp(-lam * L_t)] = exp(-t * gamma_bar^alpha * lam^alpha / cos(pi*alpha/2)),

for alpha in (0, 1).  Increments are drawn with the Kanter construction for
one-sided stable laws: with U ~ Uniform(0, pi) and E ~ Exp(1),

    S = (A(U)/E)^{(1-alpha)/alpha},
    A(u) = sin(alpha*u)^{alpha/(1-alpha)} * sin((1-alpha)*u) / sin(u)^{1/(1-alpha)},

has E[exp(-lam*S)] = exp(-lam^alpha).  Matching the transform above forces the
increment over a step dt to be

    dL = gamma_bar * dt^{1/alpha} * cos(pi*alpha/2)^{-1/alpha} * S.

The exponent on the cosine is negative; this is pinned by the Monte Carlo
Laplace oracle in the test suite (check alpha=1/2: the multiplier becomes
2*gamma_bar*dt^2, the classical Levy-distribution scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TINY = np.finfo(float).tiny


def _validate_stable_params(alpha: float, gamma_bar: float, dt: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if gamma_bar <= 0.0:
        raise ValueError(f"gamma_bar must be positive, got {gamma_bar}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")


def kanter_draws(rng: np.random.Generator, u: np.ndarray, e: np.ndarray) -> None:
    """Fill u with Uniform(0, pi) draws, then e with Exp(1) draws, from rng.

    `random` scaled by pi is `uniform(0, pi)`'s own arithmetic (0 + pi x), so
    the stream and the bits are those of `rng.uniform(0.0, math.pi, u.size)`
    followed by `rng.standard_exponential(e.size)`.
    """
    rng.random(out=u)
    u *= math.pi
    rng.standard_exponential(out=e)


def kanter_transform(alpha: float, scale: float, u: np.ndarray, e: np.ndarray,
                     out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """out = max(scale * S, tiny) for the Kanter variates S of draws u and e.

    The four arrays share any one shape; u and e are overwritten, scratch is
    workspace.  Every operation runs in place and in the order of the formula
    in the module docstring, so a block of paths gives, row for row, the bits
    of one path at a time.  Increments underflowing to 0 are clamped to the
    smallest positive normal so paths stay strictly increasing.
    """
    # Guard the measure-zero edges u=0 (log sin -> -inf twice, NaN) and e=0.
    np.clip(u, _TINY, math.pi * (1.0 - 2.0 ** -48), out=u)
    np.clip(e, _TINY, None, out=e)
    one_m = 1.0 - alpha
    # log A(u) = (alpha/one_m) log sin(alpha u) + log sin(one_m u) - log sin(u) / one_m
    np.multiply(u, alpha, out=out)
    np.log(np.sin(out, out=out), out=out)
    out *= alpha / one_m
    np.multiply(u, one_m, out=scratch)
    out += np.log(np.sin(scratch, out=scratch), out=scratch)
    np.log(np.sin(u, out=u), out=u)
    u *= 1.0 / one_m
    out -= u
    out -= np.log(e, out=e)
    out *= one_m / alpha
    np.exp(out, out=out)
    out *= scale
    return np.maximum(out, _TINY, out=out)


def increment_scale(alpha: float, gamma_bar: float, dt: float) -> float:
    """Multiplier turning a standard Kanter draw into an increment over dt."""
    return gamma_bar * dt ** (1.0 / alpha) * math.cos(math.pi * alpha / 2.0) ** (-1.0 / alpha)


def sample_stable_increment(alpha: float, gamma_bar: float, dt: float,
                            rng: np.random.Generator, size: int) -> np.ndarray:
    """An array of `size` independent increments L_{t+dt} - L_t drawn from rng.

    Increments underflowing to 0 are clamped to the smallest positive normal
    so paths stay strictly increasing.
    """
    _validate_stable_params(alpha, gamma_bar, dt)
    u, e = np.empty(size), np.empty(size)
    kanter_draws(rng, u, e)
    return kanter_transform(alpha, increment_scale(alpha, gamma_bar, dt), u, e,
                            np.empty(size), np.empty(size))


def laplace_exponent(alpha: float, gamma_bar: float, lam: float) -> float:
    """eta(lam) with E[exp(-lam*L_t)] = exp(-t*eta(lam))."""
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if lam == 0.0:
        return 0.0
    return gamma_bar ** alpha * lam ** alpha / math.cos(math.pi * alpha / 2.0)


@dataclass(frozen=True)
class ValidationRow:
    """One Laplace-transform comparison at a given lam."""

    lam: float
    empirical: float
    analytic: float
    std_error: float
    flagged: bool


def validate_sampler(alpha: float, gamma_bar: float, n_samples: int,
                     lam_list, seed: int = 0) -> list[ValidationRow]:
    """Compare empirical E[exp(-lam*L_1)] with exp(-laplace_exponent(lam)).

    Draws n_samples copies of L_1 (single increments with dt=1) once, from
    the validation stream of `seed`, and evaluates every lam on the same
    draws.  A row is flagged when |empirical - analytic| > 3 standard errors.
    """
    if n_samples < 1000:
        raise ValueError(f"need n_samples >= 1000, got {n_samples}")
    from .streams import DOMAIN_VALIDATE, make_rng

    rng = make_rng(seed, DOMAIN_VALIDATE, 0)
    draws = sample_stable_increment(alpha, gamma_bar, 1.0, rng, size=n_samples)
    rows = []
    for lam in lam_list:
        analytic = math.exp(-laplace_exponent(alpha, gamma_bar, lam))
        vals = np.exp(-lam * draws)
        empirical = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(n_samples))
        flagged = abs(empirical - analytic) > 3.0 * se
        rows.append(ValidationRow(lam=float(lam), empirical=empirical,
                                  analytic=analytic, std_error=se, flagged=flagged))
    return rows
