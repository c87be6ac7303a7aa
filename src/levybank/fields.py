"""Drift nonlinearities and the smooth-max helpers they are built from.

Three built-in fields: zero, the componentwise sine B0(x)_k = sin(x_k), and the
bounded cubic

    B0(x)_k = b0*||ybar||_inf * (ybar_k - x_k)*|ybar_k - x_k|^2
              / (b0*||ybar||_inf + smax(sabs(ybar - x))^3),

where sabs(x)_k = x_k*tanh(a*x_k) smooths |x_k| and smax is the softmax-weighted
mean Sum x_i e^{a x_i} / Sum e^{a x_i}.  At sharpness a = 1e4 the raw
exponentials overflow for |x| > 0.07, so both helpers are computed in
overflow-safe form (max shift; tanh).  ||ybar||_inf is the exact infinity norm.

All evaluators are vectorized over leading axes: x of shape (..., N) gives a
result of the same shape, with the smooth max taken over the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# |a*x| from which soft_abs takes |x| without evaluating tanh
TANH_EXACT = 20.0


def soft_max(x: np.ndarray, a: float) -> np.ndarray:
    """Softmax-weighted mean Sum x_i e^{a x_i} / Sum e^{a x_i} over the last axis.

    Max-shifted so no overflow occurs for a up to 1e6 and |x_i| up to 1e3.
    Scalar for 1-d input, shape (...) for input of shape (..., N).
    """
    if a <= 0.0:
        raise ValueError(f"sharpness must be positive, got {a}")
    x = np.asarray(x, dtype=float)
    z = x - x.max(axis=-1, keepdims=True)
    z *= a
    # exp is exactly +0.0 below -745.14; skipping those entries avoids numpy's
    # slow underflow path (most of them at a = 1e4) and changes no bit.
    w = np.zeros(z.shape)
    np.exp(z, out=w, where=z > -750.0)
    out = np.multiply(x, w, out=z).sum(axis=-1) / w.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def soft_abs(x: np.ndarray, a: float) -> np.ndarray:
    """Componentwise x_k*tanh(a*x_k), a smooth |x_k| with 0 <= result <= |x_k|."""
    if a <= 0.0:
        raise ValueError(f"sharpness must be positive, got {a}")
    x = np.asarray(x, dtype=float)
    # tanh is exactly +-1 from |a*x| = 18.99 on, where x*tanh(a*x) = |x| bit
    # for bit; evaluating it only below TANH_EXACT skips most entries at a = 1e4
    ax = np.multiply(a, x, out=np.empty_like(x))
    out = np.abs(ax, out=np.empty_like(x))
    near = out < TANH_EXACT
    np.tanh(ax, out=ax, where=near)
    np.abs(x, out=out)
    return np.multiply(x, ax, out=out, where=near)


@dataclass(frozen=True)
class VectorFieldSpec:
    """A bounded drift field.  Use the factory functions below to build one.

    bound is a sup-norm bound on the field (mandatory for custom kinds; the
    built-ins compute theirs).
    """

    kind: str
    bound: float
    b0: float = 0.0
    y_bar: Optional[np.ndarray] = None
    sharpness: float = 0.0
    custom_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("zero", "sine", "bounded_cubic", "custom"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "custom" and (self.custom_fn is None or self.bound <= 0.0):
            raise ValueError("custom fields need an evaluation hook and a positive bound")


def zero_field() -> VectorFieldSpec:
    return VectorFieldSpec(kind="zero", bound=0.0)


def sine_field() -> VectorFieldSpec:
    return VectorFieldSpec(kind="sine", bound=1.0)


def bounded_cubic_field(b0: float, y_bar: np.ndarray, sharpness: float) -> VectorFieldSpec:
    if b0 <= 0.0 or sharpness <= 0.0:
        raise ValueError("bounded_cubic needs b0 > 0 and sharpness > 0")
    y_bar = np.ascontiguousarray(y_bar, dtype=float)
    return VectorFieldSpec(kind="bounded_cubic", bound=b0 * float(np.abs(y_bar).max()),
                           b0=b0, y_bar=y_bar, sharpness=sharpness)


def custom_field(fn: Callable, bound: float) -> VectorFieldSpec:
    """Wrap a caller-supplied hook fn(t, x) -> array, with sup-norm bound.

    x has shape (..., N) and the result must have its shape, each row the
    drift at that row alone: from order 2 on the iterate kernel hands the
    hook a stacked block of states, (B, n, N).  The kernel may call the hook
    from two threads at once, so it must not keep state between calls.
    """
    return VectorFieldSpec(kind="custom", bound=float(bound), custom_fn=fn)


def eval_field(field: VectorFieldSpec, t: float, x: np.ndarray) -> np.ndarray:
    """Evaluate B0(t, x).  x has shape (..., N); result has the same shape."""
    x = np.asarray(x, dtype=float)
    if field.kind == "zero":
        return np.zeros_like(x)
    if field.kind == "sine":
        return np.sin(x)
    if field.kind == "bounded_cubic":
        d = field.y_bar - x
        cap = field.bound  # b0 * ||ybar||_inf
        denom = cap + soft_max(soft_abs(d, field.sharpness), field.sharpness) ** 3
        out = cap * d   # (cap*d) * |d|^2 / denom, with |d|^2 = d*d bit for bit
        out *= d * d
        out /= np.asarray(denom)[..., None]
        return out
    return np.asarray(field.custom_fn(t, x), dtype=float)
