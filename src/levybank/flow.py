"""Deterministic flow, time shift f(t) = B0(t, x(t)) and forcing convolution.

The flow solves x'(t) = A x(t) + B0(t, x(t)) from (s, x), and the time shift
is f tabulated along it from s to the end of the grid; the estimators read f
only on their window [s, t], so nothing before s is kept, nor the flow itself.
The spectrum reaches lambda = 1e4 while the grid step is 1e-3, so classic
explicit schemes sit far outside their stability region (lambda*h = 10).  The
integrator is therefore the integrating-factor (Lawson) form of RK4: the
linear part is propagated exactly, the limit lambda -> 0 is classical RK4, a
zero field is integrated exactly, and all exponential factors decay so
nothing can overflow.

The forcing convolution F_{s,t} = int_s^t e^{(t-r)A} f(r) dr is a per-bin sum
with exact exponential weights (exact for piecewise-constant f and any lambda),
because at lambda = 1e4 the factor e^{-lambda(t-r)} decays within one bin and a
naive left-point weight would bias the high-index components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProblemSpec, TimeGrid, phi1
from .fields import VectorFieldSpec, eval_field


@dataclass(frozen=True)
class TimeShift:
    """f(t) = B0(t, x(t)) along the flow from (s, x), tabulated from s on.

    grid starts at s and has the solver grid's step and end, and values[j] is
    f at its j-th time: (n_steps - i_s + 1) * N * 8 bytes for a flow started
    at step i_s of a solver grid of n_steps steps.
    """

    grid: TimeGrid
    values: np.ndarray   # (grid.n_steps+1, N)

    def value_at(self, t: float) -> np.ndarray:
        """f at a grid time t."""
        return self.values[self.grid.index_of(t)]


def solve_flow(spec: ProblemSpec, field: VectorFieldSpec, s: float, x: np.ndarray,
               grid: TimeGrid) -> TimeShift:
    """Integrate the flow ODE from (s, x) over the grid and tabulate f from s on.

    Deterministic; the grid step must be <= 1e-3 and s a grid point in
    [0, horizon) before the grid's end.  The field sees the times of
    grid.times(), and the shift's grid runs from s to grid.end.  The built-in
    zero field is not integrated: after the argument checks its shift is all
    +0.0, the bytes the steps would give, without a field call.
    """
    if grid.step > 1e-3 * (1.0 + 1e-12):
        raise ValueError(f"flow grid step must be <= 1e-3, got {grid.step}")
    if not 0.0 <= s < min(spec.horizon, grid.end):
        raise ValueError(f"need s in [0, horizon) before the grid's end, got s={s}")
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise ValueError("x must have length dim")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    i_s = grid.index_of(s)
    h = grid.step
    # f(t_i) = B0(t_i, x(t_i)) is each step's first stage, then the end point
    values = np.zeros((grid.n_steps - i_s + 1, spec.dim))
    if field.kind == "zero":   # every stage is +0.0, so f is too: nothing to integrate
        return TimeShift(grid=TimeGrid(s, grid.end, h), values=values)
    lam = spec.lambdas
    times = grid.times()
    e_full = np.exp(-lam * h)
    e_half = np.exp(-lam * (0.5 * h))
    # products evaluate left to right, so the hoisted factors and the shared
    # propagated states give the bits of the written-out RK4 stages
    half_e, full_e, two_e = (0.5 * h) * e_half, h * e_half, 2.0 * e_half
    y = x
    for j, t in enumerate(times[i_s:-1]):
        y_half, y_full = e_half * y, e_full * y
        n1 = values[j] = eval_field(field, t, y)
        n2 = eval_field(field, t + 0.5 * h, y_half + half_e * n1)
        n3 = eval_field(field, t + 0.5 * h, y_half + (0.5 * h) * n2)
        n4 = eval_field(field, t + h, y_full + full_e * n3)
        y = y_full + (h / 6.0) * (e_full * n1 + two_e * (n2 + n3) + n4)
    values[-1] = eval_field(field, times[-1], y)
    return TimeShift(grid=TimeGrid(s, grid.end, h), values=values)


def node_indices(shift: TimeShift, nodes) -> list:
    """The shift-grid indices of nodes: strictly increasing, evenly spaced grid points."""
    idx = [shift.grid.index_of(t) for t in nodes]
    width = idx[1] - idx[0] if len(idx) > 1 else 0
    if width < 1 or np.any(np.diff(idx) != width):
        raise ValueError("nodes must be strictly increasing, evenly spaced points "
                         f"of the shift's grid, got {np.asarray(nodes, dtype=float)}")
    return idx


def bin_forcings(spec: ProblemSpec, shift: TimeShift, nodes) -> np.ndarray:
    """Row b is F_{u,v} = int_u^v e^{(v-r)A} f(r) dr for u, v = nodes[b], nodes[b+1].

    Grid bin [r_i, r_i + d] contributes e^{-lambda(v - r_i - d)} * phi1(lambda*d)
    * d * f(r_i), exact for piecewise-constant f and any lambda.  The nodes
    must be strictly increasing, evenly spaced points of the shift's grid, so
    every row shares one decay table; nodes [s, t] give F_{s,t} alone.
    """
    idx = node_indices(shift, nodes)
    width = idx[1] - idx[0]
    d = shift.grid.step
    lam = spec.lambdas
    # exponent for bin with left edge r_i: -lambda*(v - r_i - d) = -lambda*d*age,
    # where age counts whole bins between the bin's right edge and v.
    ages = np.arange(width - 1, -1, -1.0)
    decay = np.exp(-np.outer(ages, lam) * d)     # (width, N)
    w = phi1(lam * d) * d
    out = np.empty((len(idx) - 1, spec.dim))
    for b, i0 in enumerate(idx[:-1]):
        np.einsum("bk,bk,k->k", decay, shift.values[i0:i0 + width], w, out=out[b])
    return out
