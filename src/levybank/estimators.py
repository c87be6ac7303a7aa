"""Probabilistic estimators: benchmark, iterates v0/v1/vn, gradient, bookkeeping.

Everything except the Euler-Maruyama benchmark reuses a SimulationBank; the
benchmark always draws fresh randomness so it can referee the others.

Conventions shared by the iterate estimators:

* The time integrals use left Riemann sums on the mesh grid tau_j = s + j*h,
  j = 0..J-1 (right endpoints excluded: the (I^L)^{-1/2} factors blow up as an
  interval shrinks, an integrable singularity the left rule never samples).
* Each Monte Carlo sample pairs one convolution record (supplying every OU
  value, noise increment and record-side covariance) with `order` independent
  subordinator-only paths (the independent covariance draws).  Pairing is
  diagonal: sample l of n uses record perm_r[l] and sub paths perm_s[l + j*n],
  j = 0..order-1; the permutations are the identity when seed is None, else
  derived from the seed.
* Simplex interval i = [s_i, s_{i+1}] (s_{m+1} = t) takes its independent
  covariance from sub-path family order-i, so the interval touching t uses
  family 0; at order 1 this is exactly the first-iterate formula.
* v1_estimate and vn_estimate are thin calls into one kernel, so vn at order
  1 is v1 bit for bit.  The kernel walks the simplex backward: the last node
  descends from t and streams the covariances of [s_m, t] one mesh bin at a
  time, each earlier node descends from the node after it and accumulates
  the covariances of its own interval, and at each leaf the state is pushed
  forward from s through the chosen nodes.  Each interval's factors that do
  not depend on the state are built once, when the walk creates it; a leaf
  only pushes the state.  The clocks are read one mesh bin at a time (k+1
  values per selected row), so at order 1 each walker (below) holds nine
  (n, dim) panels (4B + 5*order with B = 1), reused throughout, and one bin
  of clock values, whatever the fine step; the call shares two (J+1, dim)
  forcing tables when there is a shift.
  From order 2 on it also keeps, as contiguous stacks of (n, dim) panels,
  the per-bin covariances, the checkpoints (views of the bank where the
  rows are), the node states and their drifts, and F for every node pair,
  so the drift is evaluated once per node and once per pushed state.  The
  drift may be handed a panel that the walk overwrites after the call.
* From order 2 on the innermost level (node s_1) is walked in blocks of
  B = max(1, ROWS // n) consecutive nodes (order 1: B = 1).  A block's
  covariances, interval factors and pushed states are (B, n, dim) stacks,
  so one numpy call, and one drift call at each later node, serves B*n
  rows; the outer levels' factors broadcast against them.  Two walkers
  then spend their time in numpy calls long enough to overlap rather than
  in Python, where they take turns.  Each walker holds 4B + 5*order panels.
  Every stacked operation computes each row as it would alone, and the
  node sums are still added one node at a time in descending order, so no
  value depends on B.  The drift may be handed a (B, n, dim) stack.
* The outermost nodes are walked on two threads: one helper thread takes the
  nodes below _split(J, order), about half the leaves, in a walker of its
  own panels and first re-accumulates the bins above them, so its running
  covariances have the caller's bits; this thread walks the rest.  The
  helper's node sums are added after this thread's in the same descending
  order, so every value and every drift call are those of one walk on one
  thread.  The drift may be called from both threads at once.
* Covariance entries are floored at 1e-300 before inversion or square root;
  they are a.s. positive but can underflow for lambda = 1e4 when the clock
  puts almost no mass near the interval's right end.
* All covariances and increments come from the unit-noise bank and are scaled
  by sigma at read time; no sampler ever runs inside an iterate estimator.
  A mesh bin's covariance is its clock increments times per-step weights
  that carry sigma^2, one BLAS matrix product per piece of at most
  core.CONTRACT_PIECE fine steps, so the BLAS thread count moves no bit.
  The bank's block variances are contracted in the same pieces.
"""

from __future__ import annotations

import copy
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import partial, reduce
from operator import add
from typing import Optional

import numpy as np

from .bank import SimulationBank, covariance_integral
from .core import GRID_RTOL, ProblemSpec, TimeGrid, contract, covariance_weights, phi1
from .fields import VectorFieldSpec, eval_field
from .flow import TimeShift, bin_forcings, node_indices
from .stable import sample_stable_increment
from .streams import DOMAIN_BENCHMARK, DOMAIN_SELECTION, make_rng

COV_FLOOR = 1e-300
BENCHMARK_METHODS = ("exp", "euler")
EM_CHUNK_BYTES = 2 << 20   # benchmark noise handed over per chunk of steps
GRADIENT_BLOCK_BYTES = 1 << 20   # clock increments ou_gradient holds at once
# rows (tuples times nodes) that the innermost simplex level hands to one numpy
# call from order 2 on: enough that two walkers overlap in numpy, not in Python
ROWS = 400


@dataclass(frozen=True)
class QueryParams:
    """One probability query P(|X_t^{s,x}| > radius)."""

    s: float
    t: float
    x: np.ndarray
    sigma_scale: float
    radius: float
    field: VectorFieldSpec
    use_shift: bool = True

    def __post_init__(self):
        object.__setattr__(self, "x", np.ascontiguousarray(self.x, dtype=float))
        if not 0.0 <= self.s < self.t:
            raise ValueError(f"need 0 <= s < t, got s={self.s}, t={self.t}")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("x must be finite")
        if not 0.0 < self.sigma_scale < math.inf:
            raise ValueError(f"sigma_scale must be finite and positive, got {self.sigma_scale}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")


@dataclass(frozen=True)
class IterateEstimate:
    """Monte Carlo value with its standard error and provenance.

    order: -1 for the benchmark, n >= 0 for iterate v^n.
    std_error is the sample standard deviation over samples divided by
    sqrt(n_samples).
    """

    value: float
    std_error: float
    n_samples: int
    order: int
    meta: dict = dc_field(default_factory=dict)


def _x_descriptor(x: np.ndarray) -> str:
    if not x.size or np.all(x == 0.0):
        return "zeros"
    if np.all(x == x.flat[0]):
        return f"const{x.flat[0]:g}"
    import hashlib
    return "sha1:" + hashlib.sha1(np.ascontiguousarray(x, "<f8").tobytes()).hexdigest()[:12]


def _meta(q: QueryParams) -> dict:
    return {"s": q.s, "t": q.t, "x": _x_descriptor(q.x), "sigma": q.sigma_scale,
            "field": q.field.kind, "shift": bool(q.use_shift)}


def _estimate(samples: np.ndarray, order: int, q: QueryParams, **meta) -> IterateEstimate:
    """The samples' mean and standard error, with the query's meta and then `meta`."""
    n = samples.size
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return IterateEstimate(value=float(samples.mean()), std_error=se, n_samples=n,
                           order=order, meta={**_meta(q), **meta})


def _check_query(spec: ProblemSpec, q: QueryParams) -> None:
    if q.x.shape != (spec.dim,):
        raise ValueError(f"x must have shape ({spec.dim},), got {q.x.shape}")


def _bank_query(bank: SimulationBank, spec: ProblemSpec, shift: Optional[TimeShift],
                q: QueryParams) -> Optional[TimeShift]:
    """Check a query against the bank's spec and the shift; the shift to use, or None."""
    if bank.header.spec_hash != spec.content_hash():
        raise ValueError("bank was generated under a different problem spec")
    _check_query(spec, q)
    if not q.use_shift:
        return None
    if shift is None:
        raise ValueError("query has use_shift=True but no shift was supplied")
    if shift.values.ndim != 2 or shift.values.shape[1] != spec.dim:
        raise ValueError(f"shift values must have shape (., {spec.dim}), "
                         f"got {shift.values.shape}")
    g = shift.grid
    if round((q.s - g.start) / g.step) < 0 or round((q.t - g.start) / g.step) > g.n_steps:
        raise ValueError(f"shift covers [{g.start}, {g.end}], "
                         f"the query needs [{q.s}, {q.t}]")
    return shift


def _selection(seed: Optional[int], m_avail: int, n: int, groups: int,
               which: int) -> list:
    """Row selectors of `groups` disjoint groups of n rows each.

    When seed is None the rows are the first groups*n in order, as basic
    slices (views, no copies); otherwise consecutive slices of one seeded
    permutation.  which = 0 selects records, 1 selects subordinator paths
    (independent permutations from the same seed).
    """
    if seed is None:
        return [slice(g * n, (g + 1) * n) for g in range(groups)]
    perm = make_rng(seed, DOMAIN_SELECTION, which).permutation(m_avail)
    return [perm[g * n:(g + 1) * n] for g in range(groups)]


# ---------------------------------------------------------------------------
# Euler-Maruyama benchmark


def _em_noise(spec: ProblemSpec, d: float, rng: np.random.Generator,
              weight: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out[k] with step k's noise (weight sqrt(dL)) xi, drawing dL then xi per step."""
    scale = np.empty(out.shape[1:])
    for step in out:
        dl = sample_stable_increment(spec.alpha, spec.gamma_bar, d, rng, size=out.shape[1])
        rng.standard_normal(out=step)
        np.multiply(weight, np.sqrt(dl)[:, None], out=scale)
        step *= scale
    return out


def em_benchmark_series(spec: ProblemSpec, q: QueryParams, t_list, n_paths: int,
                        delta_em: float, seed: int, method: str = "exp") -> list[IterateEstimate]:
    """Benchmark probabilities at several times from one batch of paths.

    Paths are simulated from (s, x) with fresh subordinator and Gaussian draws
    (never the bank); the path value at each requested t is the scheme's
    approximation at t.  The drift is B0 alone: the benchmark targets the
    semilinear equation itself and ignores the time shift.

    method "exp" propagates the linear part exactly over each step and uses
    the conditional noise variance dL*(1-e^{-2 lambda d})/(2 lambda d); it is
    stable for any lambda*delta.  method "euler" is the plain explicit scheme
    X += (AX + B0) d + sigma sqrt(dL) xi, for replicating runs with
    lambda*delta <= 1; it diverges past lambda*delta = 2, so it raises
    ValueError when the largest lambda times delta_em exceeds 2.

    The draws never depend on the state, so one helper thread owns the
    generator and draws the noise of the next chunk of steps (about
    EM_CHUNK_BYTES) while this thread advances the state through the current
    one.  The stream is drawn in the same order (dL then xi, step by step) and
    every operation keeps its order, so the values do not depend on the chunk
    size.  The BLAS thread count does not govern this thread.  A
    zero drift leaves this thread nothing to overlap with the draws, which then
    set the pace; the helper would only add GIL handoffs that make the run
    time vary, so that field draws here, one step at a time.  Under "exp" it
    also makes no field call and adds no w*B: e1 x + (+0.0) differs from e1 x
    only in the sign of a zero entry, so no norm or indicator moves.  The
    state is updated in place: the drift sees a buffer that the step
    overwrites after the call.
    """
    if method not in BENCHMARK_METHODS:
        raise ValueError(f"unknown benchmark method {method!r}")
    _check_query(spec, q)
    if n_paths < 2:
        raise ValueError("need at least 2 benchmark paths")
    if not 0.0 < delta_em < math.inf:
        raise ValueError(f"delta_em must be finite and positive, got {delta_em}")
    t_list = [float(t) for t in t_list]
    if not t_list or any(t <= q.s or t > spec.horizon * (1 + GRID_RTOL) for t in t_list):
        raise ValueError("benchmark times must lie in (s, horizon]")
    if method == "euler" and spec.lambdas[-1] * delta_em > 2:
        raise ValueError(f"method 'euler' diverges when lambda*delta > 2, "
                         f"got {spec.lambdas[-1] * delta_em:g}")
    steps = [TimeGrid(q.s, t, delta_em).n_steps for t in t_list]
    n_steps = max(steps)
    lam, d = spec.lambdas, delta_em
    noise_w = q.sigma_scale * spec.sigmas
    if method == "exp":
        e1 = np.exp(-lam * d)
        drift_w = d * phi1(lam * d)
        noise_w = noise_w * np.sqrt(phi1(2.0 * lam * d))
    rng = make_rng(seed, DOMAIN_BENCHMARK, 0)
    x_state = np.broadcast_to(q.x, (n_paths, spec.dim)).copy()
    scratch = np.empty_like(x_state)
    drifting = q.field.kind != "zero"
    per_chunk = max(1, EM_CHUNK_BYTES // x_state.nbytes) if drifting else 1
    buffers = [np.empty((min(per_chunk, n_steps),) + x_state.shape) for _ in range(2)]
    out = dict.fromkeys(steps)   # step count -> indicators; times may share a step
    with ThreadPoolExecutor(1) as helper:   # starts its thread at the first submit
        def draw(lo: int):   # a call that returns the noise of the steps from lo on
            chunk = buffers[lo // per_chunk % 2][:min(per_chunk, n_steps - lo)]
            job = partial(_em_noise, spec, d, rng, noise_w, chunk)
            return helper.submit(job).result if drifting else job

        pending = draw(0)
        for lo in range(0, n_steps, per_chunk):
            noise = pending()
            if lo + per_chunk < n_steps:
                pending = draw(lo + per_chunk)
            for i, step_noise in enumerate(noise, lo):
                if method == "exp" and not drifting:   # (e1 x) + noise; w B = +0.0
                    np.multiply(e1, x_state, out=x_state)
                else:
                    drift = eval_field(q.field, q.s + i * d, x_state)
                    if method == "exp":   # ((e1 x) + (w B)) + noise
                        np.multiply(drift_w, drift, out=scratch)
                        np.multiply(e1, x_state, out=x_state)
                    else:                 # (x + d ((-lam x) + B)) + noise
                        np.multiply(-lam, x_state, out=scratch)
                        scratch += drift
                        scratch *= d
                    x_state += scratch
                x_state += step_noise
                if (i + 1) in out:
                    ind = (np.linalg.norm(x_state, axis=1) > q.radius).astype(float)
                    out[i + 1] = ind
    return [_estimate(out[k], -1, q, t=t, method=method, delta_em=delta_em)
            for t, k in zip(t_list, steps)]


def em_benchmark(spec: ProblemSpec, q: QueryParams, n_paths: int, delta_em: float,
                 seed: int, method: str = "exp") -> IterateEstimate:
    """Reference probability for the semilinear equation at q.t."""
    return em_benchmark_series(spec, q, [q.t], n_paths, delta_em, seed, method)[0]


# ---------------------------------------------------------------------------
# The simplex kernel behind v1 and vn


class _MeshFrame:
    """Grid bookkeeping, lookup tables, selected samples and panels for one iterate call.

    Provides, for mesh nodes tau_j = s + j*h (tau_J = t):
      prop[m]     e^{-lambda m h}                                 (J+1, N)
      prop2[m]    e^{-2 lambda m h}                               (J+1, N)
      w2[i]       sigma^2 e^{-2 lambda d age_i} phi1(2 lambda d),
                  subnormals zeroed; a bin's covariance is dL @ w2 (k, N)
      F_from_s[b] forcing convolution F_{s,tau_b}                 (J+1, N)
      F_to_t[a]   forcing convolution F_{tau_a,t}                 (J+1, N)
      F[a, b]     F_{tau_a,tau_b} for every node pair, order >= 2 (J+1, J+1, N)
                  (the three forcing tables exist only with a shift)
      block       nodes s_1 that one pass of the innermost level walks:
                  max(1, ROWS // n) from order 2 on, 1 at order 1
      levels[l-1] simplex level l's running covariances (record, family),
                  two (n, N) panels, and three stacks of one panel per node
                  of its current block (`block` at level 1, one above): the
                  block's covariances, which become the factors of its
                  intervals
      tmp         a stack of `block` panels for the links and the leaves
      scratch     three (n, N) panels: a bin's decayed covariance, its
                  later pieces and, at order 1, the node state
    The clocks are read one mesh bin at a time, k+1 values per selected row
    (family f < order: sub paths; f = order: the records).  From order 2 on
    the earlier nodes revisit every bin and node, so their partials (one
    (J, n, N) stack per family), checkpoints ((J+1, n, N)) and node states
    and drifts (two (J-order+1, n, N) stacks) are kept; order 1 streams
    them.  Everything but the panels, the clock buffer and the last
    checkpoint read is read-only once built, so a walker() copy shares it
    with the frame.
    """

    def __init__(self, bank: SimulationBank, spec: ProblemSpec,
                 shift: Optional[TimeShift], q: QueryParams, mesh: float,
                 order: int, n: int, nodes: tuple, selection: tuple):
        self.bank, self.q, self.shift, self.order = bank, q, shift, order
        i_s, self.chk_stride, self.taus = nodes
        self.i_s_coarse, self.h = i_s, mesh
        self.J = J = len(self.taus) - 1
        i_t = i_s + J * self.chk_stride
        coarse, fine = bank.coarse_grid, bank.fine_grid
        self.k = k_fine = self.chk_stride * int(round(coarse.step / fine.step))
        self.lo = fine.index_of(q.s)
        self.diag = q.sigma_scale * spec.sigmas
        lam = spec.lambdas
        steps = np.arange(J + 1) * mesh
        self.prop = np.exp(-np.outer(steps, lam))
        self.prop2 = np.exp(-2.0 * np.outer(steps, lam))
        # within-mesh-bin quadrature weights times sigma^2, anchored at the
        # bin's right edge; subnormal weights would put the products on
        # OpenBLAS's slow path, and they add nothing above COV_FLOOR
        self.w2 = covariance_weights(lam, fine.step, k_fine) * self.diag ** 2  # (k, N)
        self.w2[self.w2 < np.finfo(float).tiny] = 0.0
        # column recurrence F[a, b] = e^{hA} F[a, b-1] + F[b-1, b] for all a < b
        # at once; its row 0 is F_from_s, and it ends as column J.  Without a
        # shift there is no forcing and no table.
        self.F_from_s = self.F_to_t = self.F = None
        if shift is not None:
            self.F_from_s = np.zeros((J + 1, spec.dim))
            self.F_to_t = np.zeros((J + 1, spec.dim))
            self.F = np.zeros((J + 1, J + 1, spec.dim)) if order > 1 else None
            for b, fbin in enumerate(bin_forcings(spec, shift, self.taus), 1):
                self.F_to_t[:b] = self.prop[1] * self.F_to_t[:b] + fbin
                self.F_from_s[b] = self.F_to_t[0]
                if self.F is not None:
                    self.F[:b, b] = self.F_to_t[:b]
        self.rec, subs = selection
        self.clock_rows = [(bank.sub_values, rows) for rows in subs] \
            + [(bank.record_clock_values, self.rec)]
        self.panel = (n, spec.dim)
        self.block = max(1, ROWS // n) if order > 1 else 1
        self.tables, self.chk, self.nodes = {}, {}, None
        self.own_panels()
        if order == 1:
            self.chk.update({j: self.checkpoint(j) for j in (0, J)})
            return
        # every node's checkpoints, (J+1, n, N); a view of the bank when the
        # rows are a slice and the bank holds doubles
        self.chk = np.asarray(bank.record_checkpoints[
            self.rec, i_s:i_t + 1:self.chk_stride], dtype=float).transpose(1, 0, 2)
        # family 0 only ever serves the last interval, streamed
        for f in range(1, order + 1):
            self.tables[f] = np.empty((J, n, spec.dim))
            for j in range(J):
                self.bin_covariance(f, j, self.tables[f][j])
        self.nodes = np.empty((2, J - order + 1, n, spec.dim))   # Z, B(Z)
        for j in range(J - order + 1):
            z, drift = self.nodes[:, j]
            np.copyto(drift, self.state(j, z, drift)[1])

    def own_panels(self) -> None:
        """Fresh panels, clock buffer and checkpoint slot: what a walker writes."""
        n, dim = self.panel
        self.increments = np.empty((n, self.k))
        self.levels = [(np.empty((2, n, dim)), np.empty((3, width, n, dim)))
                       for width in [self.block] + [1] * (self.order - 1)]
        self.tmp = np.empty((self.block, n, dim))
        self.scratch = np.empty((3, n, dim))
        self.recent = (None, None)

    def walker(self) -> _MeshFrame:
        """A frame that shares every read-only table and owns its own panels."""
        other = copy.copy(self)
        other.own_panels()
        return other

    def bin_covariance(self, f: int, j: int, out: np.ndarray) -> np.ndarray:
        """Covariance of mesh bin j alone for clock family f, anchored at tau_{j+1}."""
        values, rows = self.clock_rows[f]
        lo = self.lo + j * self.k
        clock = values[rows, lo:lo + self.k + 1]
        np.subtract(clock[:, 1:], clock[:, :-1], out=self.increments)
        return contract(self.increments, self.w2, out, self.scratch[1])

    def accumulate(self, out: np.ndarray, prev: np.ndarray, level: int, upper: int,
                   j: int) -> None:
        """out = prev + e^{-2 lambda (tau_upper - tau_{j+1})} (bin j's covariances).

        out[0] and prev[0] are the records', out[1] and prev[1] family
        order - level's.
        """
        decay, part = self.prop2[upper - (j + 1)], self.scratch[0]
        for i, f in enumerate((self.order, self.order - level)):
            np.multiply(decay, self.tables[f][j] if f in self.tables
                        else self.bin_covariance(f, j, part), out=part)
            np.add(prev[i], part, out=out[i])

    def checkpoint(self, j: int) -> np.ndarray:
        """Checkpoints of the selected records at node j, shape (n, N)."""
        if self.order > 1 or j in self.chk:
            return self.chk[j]
        if self.recent[0] != j:
            self.recent = (j, np.asarray(self.bank.record_checkpoints[
                self.rec, self.i_s_coarse + j * self.chk_stride, :], dtype=float))
        return self.recent[1]

    def drift(self, j: int, y: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """B(tau_j, y) = B0(tau_j, y) - f(tau_j), into out when there is a shift."""
        b = eval_field(self.q.field, self.taus[j], y)
        if self.shift is None:
            return b
        return np.subtract(b, self.shift.value_at(self.taus[j]), out=out)

    def node(self, a: int, m: int) -> tuple:
        """(Z, B(tau_j, Z)) at nodes j = a..a+m-1, as two (m, n, N) stacks.

        Kept from order 2 on.  Order 1 (m = 1) builds its one node in a
        scratch panel, the drift in the leaf's tmp, which the leaf reads
        before it writes it.
        """
        if self.nodes is not None:
            return self.nodes[:, a:a + m]
        return self.state(a, self.scratch[2], self.tmp[:1])

    def state(self, j: int, z: np.ndarray, drift: Optional[np.ndarray]) -> tuple:
        """(Z_{tau_j}, B(tau_j, Z_{tau_j})) of the selected records, Z into z.

        Z_{tau_j} = e^{-(tau_j-s)A} x + F_{s,tau_j}
                    + sigma sqrt(Q) (chk_j - e^{-(tau_j-s)A} chk_0)
        """
        np.multiply(self.prop[j], self.checkpoint(0), out=z)
        np.subtract(self.checkpoint(j), z, out=z)
        np.multiply(self.diag, z, out=z)
        start = self.prop[j] * self.q.x
        if self.shift is not None:
            start += self.F_from_s[j]
        np.add(start, z, out=z)
        return z, self.drift(j, z, drift)

    def link(self, level: int, a: int, m: int, b: int) -> tuple:
        """Build the state-free factors of [tau_j, tau_b], j = a..a+m-1, in level's panels.

        Node a's covariances (record, family) are the level's running ones,
        node a+i's (i >= 1) are entry i of the level's first two stacks.  It
        floors them to I1, I0 in place, forms the record's noise segment dZ,
        and turns the stacks into sqrt(I0/I1) dZ + F_{j,b}, sqrt(I0) and
        dZ / sqrt(I1), one panel per node in ascending j.  Returns (a,
        e^{-(tau_b - tau_j)A} as (m, 1, N), the three factors).
        """
        run, stack = self.levels[level - 1]
        dz_rec, shifted, sqrt_om = stack[:, :m]
        for cov, floored in zip(run, (dz_rec, shifted)):
            np.maximum(floored[1:], COV_FLOOR, out=floored[1:])
            np.maximum(cov, COV_FLOOR, out=floored[0])
        dz = self.tmp[:m]
        prop = self.prop[b - a - m + 1:b - a + 1][::-1, None]
        starts = self.chk[a:a + m] if self.order > 1 else self.checkpoint(a)
        np.multiply(prop, starts, out=dz)
        np.subtract(self.checkpoint(b), dz, out=dz)
        np.multiply(self.diag, dz, out=dz)
        np.sqrt(shifted, out=sqrt_om)
        np.sqrt(np.divide(shifted, dz_rec, out=shifted), out=shifted)
        np.multiply(shifted, dz, out=shifted)
        if self.shift is not None:   # order 1 only asks for b = J
            shifted += self.F_to_t[a] if self.F is None else self.F[a:a + m, b, None]
        np.divide(dz, np.sqrt(dz_rec, out=dz_rec), out=dz_rec)
        return a, prop, shifted, sqrt_om, dz_rec


def _leaf(frame: _MeshFrame, links: list) -> np.ndarray:
    """Push the state from s through the chosen nodes; product of the interval factors.

    links run from the last node down, each (j_i, e^{-(tau_{j_{i+1}} -
    tau_{j_i})A}, sqrt(I0/I1) dZ + F, sqrt(I0), dZ / sqrt(I1)) for [tau_{j_i},
    tau_{j_{i+1}}] with tau_{j_{m+1}} = t; the last, of s_1, holds one stack
    entry per node of a block of m nodes, and the others broadcast against
    it.  Each interval applies v1_estimate's formula with u, t replaced by
    its own ends; the indicator enters on the interval ending at t.  Returns
    the (m, n) products, one row per node of the block.  The pushed states
    overwrite the block's first factor, spent by then.  The inner product is
    taken before the push, so a drift that returns its input panel still
    sees the state it was given.
    """
    a, push = links[-1][0], links[-1][2]
    y, drift = frame.node(a, len(push))
    tmp = frame.tmp[:len(push)]
    prod = 1.0
    for i in range(len(links) - 1, -1, -1):
        _, prop_ab, shifted, sqrt_om, dz_rec = links[i]
        b = links[i - 1][0] if i else frame.J
        np.divide(np.multiply(prop_ab, drift, out=tmp), sqrt_om, out=tmp)
        inner = np.einsum("...k,...k->...", tmp, dz_rec)
        y = np.add(shifted, np.multiply(prop_ab, y, out=tmp), out=push)
        if b == frame.J:
            norm = np.sqrt(np.add.reduce(np.multiply(y, y, out=tmp), axis=-1))
            inner = (norm > frame.q.radius).astype(float) * inner
        else:
            drift = frame.drift(b, y, tmp)
        prod = prod * inner
    return prod


def _node_sums(frame: _MeshFrame, level: int, upper: int, links: list, lo: int, hi: int):
    """Per node s_level = j, for j from hi - 1 down to lo, the sum over its tuples.

    Node sums are added in this descending order at every level.

    Walks down from node `upper` (J: from t), adding the covariances of
    [tau_j, tau_upper] one bin at a time for the records and for family
    order - level; bins at or above hi are only accumulated.  The nodes are
    walked in blocks of frame.block at level 1 and one at a time above.
    Each node's covariances are its upper neighbour's plus its own bin: a
    block's go to one stack entry per node, except the lowest node's, which
    stay in the running panels for the next block.  Each block builds its
    intervals' factors once, then walks the earlier nodes or, at s_1,
    closes its tuples.
    """
    width = frame.block if level == 1 else 1
    run, stack = frame.levels[level - 1]
    run.fill(0.0)
    for j in range(upper - 1, hi - 1, -1):
        frame.accumulate(run, run, level, upper, j)
    for top in range(hi, lo, -width):
        a = max(lo, top - width)
        prev = run
        for i in range(top - a - 1, 0, -1):
            frame.accumulate(stack[:2, i], prev, level, upper, a + i)
            prev = stack[:2, i]
        frame.accumulate(run, prev, level, upper, a)
        below = links + [frame.link(level, a, top - a, upper)]
        if level == 1:
            yield from _leaf(frame, below)[::-1]
        else:
            yield reduce(add, _node_sums(frame, level - 1, a, below, level - 2, a), 0.0)


def _split(J: int, order: int) -> int:
    """The largest k whose outer nodes [order-1, k) carry at most half the leaves.

    Outer node j carries C(j, order-1) leaves, so nodes below k carry C(k, order)
    of the C(J, order).  k = order - 1 (nothing below) exactly when J == order.
    """
    k = order - 1
    while 2 * math.comb(k + 1, order) <= math.comb(J, order):
        k += 1
    return k


def _mesh_nodes(bank: SimulationBank, q: QueryParams, mesh: float, order: int) -> tuple:
    """(checkpoint index of s, checkpoint steps per mesh step, nodes tau_0..tau_J).

    tau_j = s + j*mesh.  Raises unless the mesh is a whole number of
    checkpoint steps that divides [s, t] into J >= order bins.
    """
    coarse = bank.coarse_grid
    i_s, i_t = coarse.index_of(q.s), coarse.index_of(q.t)
    stride_r = mesh / coarse.step
    stride = int(round(stride_r))
    if stride < 1 or abs(stride_r - stride) > GRID_RTOL * stride_r:
        raise ValueError(f"mesh {mesh} must be a multiple of the checkpoint step")
    if (i_t - i_s) % stride:
        raise ValueError(f"mesh {mesh} must divide [s, t] = [{q.s}, {q.t}]")
    J = (i_t - i_s) // stride
    if J < order:
        raise ValueError(f"mesh too coarse: {J} nodes cannot host order {order}")
    return i_s, stride, q.s + mesh * np.arange(J + 1)


def check_bank_size(order: int, n: int, m_ou: int, m_sub: int) -> None:
    """Refuse n samples of v^order, each one record and order sub paths, from a bank."""
    if n > m_ou or order * n > m_sub:
        raise ValueError(f"bank too small for order={order}, n={n} "
                         f"(m_ou={m_ou}, m_sub={m_sub})")


def _iterate(bank: SimulationBank, spec: ProblemSpec, shift: Optional[TimeShift],
             q: QueryParams, order: int, mesh: float, n: int,
             seed: Optional[int]) -> IterateEstimate:
    """v^order as a left-Riemann sum over the mesh simplex, one walk for all orders.

    Every check runs first, in the walk's order.  Then the built-in zero
    field with no shift, or with a shift that is zero on [s, t], has drift
    B = 0 at every node, so each of the walk's n samples is +0.0: they are
    returned without walking, the walk's estimate bit for bit.  A zero field
    under a nonzero shift walks, since its drift is -f.
    A helper thread walks the outer nodes below _split(J, order) in a walker
    of its own; its node sums are added after this thread's, in order.  A
    walker that raises sets a flag that stops the other at its next outer
    node, so a failure costs at most one more node; this thread's error, if
    it raised, is the one raised, else the helper's.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    check_bank_size(order, n, bank.m_ou, bank.m_sub)
    shift = _bank_query(bank, spec, shift, q)
    nodes = _mesh_nodes(bank, q, mesh, order)
    drifting = q.field.kind != "zero"
    if shift is not None:   # bin_forcings' node check, before the selection as in the walk
        idx = node_indices(shift, nodes[2])
        drifting = drifting or shift.values[idx[0]:idx[-1] + 1].any()
    selection = (_selection(seed, bank.m_ou, n, 1, which=0)[0],
                 _selection(seed, bank.m_sub, n, order, which=1))
    if not drifting:
        return _estimate(np.zeros(n), order, q)
    frame = _MeshFrame(bank, spec, shift, q, mesh, order, n, nodes, selection)
    J, k = frame.J, _split(frame.J, order)
    failed = threading.Event()

    def walk(walker: _MeshFrame, lo: int, hi: int):
        """The sums of outer nodes hi - 1 down to lo, until either walker fails."""
        try:
            for node_sum in _node_sums(walker, order, J, [], lo, hi):
                yield node_sum
                if failed.is_set():
                    return
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(1) as pool:   # starts its thread at the first submit
        low = pool.submit(lambda walker: list(walk(walker, order - 1, k)),
                          frame.walker()) if k >= order else None
        acc = reduce(add, walk(frame, k, J), 0.0)
        acc = reduce(add, low.result() if low else [], acc)
    return _estimate(frame.h ** order * acc, order, q)


# ---------------------------------------------------------------------------
# Iterates


def _ou_endpoint(bank: SimulationBank, spec: ProblemSpec, shift: Optional[TimeShift],
                 q: QueryParams) -> tuple:
    """Per record, the OU endpoint's exit indicator and the pieces that build it.

    The endpoint is e^{(t-s)A} x + F_{s,t} + sigma sqrt(Q) (chk_t - e^{(t-s)A}
    chk_s), F_{s,t} from the checked shift; returns (indicator, unit segment
    chk_t - e^{(t-s)A} chk_s, e^{(t-s)A}, sigma sqrt(Q)).  A mean over fewer
    than 2 records has no standard error, so such a bank is refused.
    """
    if bank.m_ou < 2:
        raise ValueError(f"bank holds {bank.m_ou} records, need at least 2")
    js, jt = bank.coarse_grid.index_of(q.s), bank.coarse_grid.index_of(q.t)
    chk = bank.record_checkpoints
    prop = np.exp(-spec.lambdas * (q.t - q.s))
    diag = q.sigma_scale * spec.sigmas
    unit_seg = np.asarray(chk[:, jt, :], dtype=float) \
        - prop * np.asarray(chk[:, js, :], dtype=float)
    f_st = bin_forcings(spec, shift, [q.s, q.t])[0] if shift is not None else 0.0
    endpoint = prop * q.x + f_st + diag * unit_seg
    ind = (np.linalg.norm(endpoint, axis=1) > q.radius).astype(float)
    return ind, unit_seg, prop, diag


def v0_estimate(bank: SimulationBank, spec: ProblemSpec, shift: Optional[TimeShift],
                q: QueryParams) -> IterateEstimate:
    """v^0 = mean of the indicator at the OU endpoint, over all bank records."""
    shift = _bank_query(bank, spec, shift, q)
    return _estimate(_ou_endpoint(bank, spec, shift, q)[0], 0, q)


def v1_estimate(bank: SimulationBank, spec: ProblemSpec, shift: Optional[TimeShift],
                q: QueryParams, mesh: float, n_pairs: int,
                seed: Optional[int] = None) -> IterateEstimate:
    """First iterate v^1, streaming over mesh nodes.

    For each node u and pair (record omega1, sub path omega0):

        u0( sqrt(I0/I1) dZ + F_{u,t} + e^{(t-u)A} Z_u )
        * < I0^{-1/2} e^{(t-u)A} B(u, Z_u), I1^{-1/2} dZ >

    with dZ = Z_t - e^{(t-u)A} Z_u - F_{u,t} (the record's noise segment), I1
    the record covariance and I0 the independent-path covariance over [u, t];
    the node sum is a left Riemann rule with weight mesh.

    Reads the clocks one mesh bin at a time into nine reused (n_pairs, dim)
    panels per walker, so the call's memory does not grow with the fine step.
    With its two walkers, tracemalloc reads a 63 MiB peak above the bank for
    4000 pairs in dimension 100.

    The built-in zero field without a shift, or with a shift that is zero on
    [s, t], has B = 0, so after the same checks it returns value 0.0 and se
    0.0 on n_pairs samples without walking, the walk's answer bit for bit.
    Under a nonzero shift its drift is -f, and it walks.
    """
    return _iterate(bank, spec, shift, q, 1, mesh, n_pairs, seed)


def vn_estimate(bank: SimulationBank, spec: ProblemSpec, shift: Optional[TimeShift],
                q: QueryParams, order: int, mesh: float, n_tuples: int,
                seed: Optional[int] = None) -> IterateEstimate:
    """Iterate v^order for any order >= 1 (exercised to order 3).

    Left-Riemann sum over the ordered simplex s <= s_1 < ... < s_m < t on the
    restricted product grid (m = order), vectorized over Monte Carlo tuples.
    Each tuple uses one record plus m independent sub paths; see the module
    docstring for the pairing, the interval-to-family map and the walk.

    From order 2 on the innermost node s_1 is walked in blocks of
    B = max(1, ROWS // n_tuples) nodes, so a drift call may receive a
    (B, n_tuples, dim) stack of states.  The call keeps order*J per-bin
    covariance panels, 2(J - order + 1) node state and drift panels and,
    unless they are views of the bank, J + 1 checkpoint panels, each
    (n_tuples, dim) and shared by its two walkers; each walker adds
    4B + 5*order panels.  At order 2, 100 tuples, dimension 100 and
    J = 50 that is 198 kept panels (16 MB) and 26 per walker (2.1 MB).

    As in v1_estimate, the built-in zero field with no shift or a shift that
    is zero on [s, t] returns 0.0 with se 0.0 after the checks, without
    walking.
    """
    return _iterate(bank, spec, shift, q, order, mesh, n_tuples, seed)


# ---------------------------------------------------------------------------
# Gradient diagnostic and error bookkeeping


def ou_gradient(bank: SimulationBank, spec: ProblemSpec, shift: Optional[TimeShift],
                q: QueryParams, direction: np.ndarray) -> IterateEstimate:
    """Directional derivative of v^0 at x in the given direction.

    Monte Carlo mean over records of u0(Z_t) * <I^{-1} e^{(t-s)A} h, Z_t -
    e^{(t-s)A} x - F_{s,t}>, with I the record covariance over [s, t].  Pure
    diagnostic: validates the covariance and segment plumbing against finite
    differences.  The covariance comes from bank.covariance_integral, whose
    contraction stays on einsum rather than core.contract: einsum keeps the
    gradient's bits, which test_gradient_golden_bitwise pins.
    """
    shift = _bank_query(bank, spec, shift, q)
    direction = np.ascontiguousarray(direction, dtype=float)
    if direction.shape != (spec.dim,) or not np.all(np.isfinite(direction)):
        raise ValueError(f"direction must be {spec.dim} finite values, got {direction}")
    ind, unit_seg, prop, diag = _ou_endpoint(bank, spec, shift, q)
    # covariance over [s, t] per record, a block of records at a time (each
    # row's sum is the same whatever the block)
    fine = bank.fine_grid
    cov = np.empty((bank.m_ou, spec.dim))
    block = max(1, GRADIENT_BLOCK_BYTES // (8 * (fine.index_of(q.t) - fine.index_of(q.s))))
    for r in range(0, bank.m_ou, block):
        cov[r:r + block] = covariance_integral(bank.record_clock_values[r:r + block],
                                               fine.step, spec, q.sigma_scale, q.s, q.t)
    np.maximum(cov, COV_FLOOR, out=cov)
    weight = np.einsum("mk,mk->m", (prop * direction) / cov, diag * unit_seg)
    return _estimate(ind * weight, 0, q, direction=_x_descriptor(direction))


@dataclass(frozen=True)
class PartialSumRow:
    """Partial sum up to a given order with its relative-error bookkeeping."""

    order: int
    partial_sum: float
    partial_sum_se: float
    eps_rel: float
    eps_rel_se: float


def partial_sums(estimates: list[IterateEstimate],
                 benchmark: IterateEstimate) -> list[PartialSumRow]:
    """Per-order partial sums and relative errors against the benchmark.

    eps^n = (P - sum_{i<=n} v^i) / P.  Partial-sum standard errors combine in
    quadrature (independent estimates); the eps standard error follows by the
    delta method for the ratio.  The iterate list must be consecutive orders
    starting at 0.
    """
    if not estimates:
        raise ValueError("no iterate estimates given")
    orders = [e.order for e in estimates]
    if orders != list(range(len(estimates))):
        raise ValueError(f"iterates must be consecutive orders 0..n, got {orders}")
    p = benchmark.value
    if p == 0.0:
        raise ValueError("benchmark probability is zero; relative errors undefined")
    rows = []
    total, var = 0.0, 0.0
    for est in estimates:
        total += est.value
        var += est.std_error ** 2
        eps = (p - total) / p
        eps_var = (total / p ** 2) ** 2 * benchmark.std_error ** 2 + var / p ** 2
        rows.append(PartialSumRow(order=est.order, partial_sum=total,
                                  partial_sum_se=math.sqrt(var), eps_rel=eps,
                                  eps_rel_se=math.sqrt(eps_var)))
    return rows
