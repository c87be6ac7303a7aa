"""Tests for the benchmark, the iterates v0/v1/vn, the gradient, and sums."""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc

import levybank
import levybank.estimators as estimators
from levybank.bank import covariance_integral, generate_bank
from levybank.core import ProblemSpec, TimeGrid, covariance_weights
from levybank.estimators import (IterateEstimate, QueryParams, em_benchmark,
                                 em_benchmark_series, ou_gradient, partial_sums,
                                 v0_estimate, v1_estimate, vn_estimate)
from levybank.fields import bounded_cubic_field, custom_field, sine_field, zero_field
from levybank.flow import solve_flow

# Closed form for the deterministic-clock one-mode case: the endpoint is
# Gaussian with mean e^{-t} x and variance sigma^2 (1 - e^{-2t})/2, so
# P(|X_1| > 1) has an exact value the Monte Carlo mean must reproduce.
DET_P_TRUE = 0.0049835541607697875
DET_GRAD_TRUE = 0.00998379156833819


@pytest.fixture(scope="module")
def det_bank1(spec1):
    # a fine step of 1e-2 is exact for a deterministic clock; the records draw
    # one normal per (checkpoint block, mode) whatever the fine step
    return generate_bank(spec1, 1e-2, 1e-2, 0, 50000, 3, deterministic_clock=True)


@pytest.fixture(scope="module")
def bank1(spec1):
    return generate_bank(spec1, 1e-3, 1e-2, 4000, 4000, 11)


@pytest.fixture(scope="module")
def q_sine():
    return QueryParams(s=0.0, t=1.0, x=np.array([0.4]), sigma_scale=0.5,
                       radius=1.0, field=sine_field(), use_shift=False)


def test_query_params_validation():
    f = zero_field()
    with pytest.raises(ValueError):
        QueryParams(s=-0.1, t=1.0, x=np.zeros(1), sigma_scale=1.0, radius=1.0, field=f)
    with pytest.raises(ValueError):
        QueryParams(s=0.5, t=0.5, x=np.zeros(1), sigma_scale=1.0, radius=1.0, field=f)
    with pytest.raises(ValueError):
        QueryParams(s=0.0, t=1.0, x=np.zeros(1), sigma_scale=0.0, radius=1.0, field=f)
    with pytest.raises(ValueError):
        QueryParams(s=0.0, t=1.0, x=np.zeros(1), sigma_scale=1.0, radius=-1.0, field=f)
    # non-finite input used to pass and give v0 = 0 or 1 without complaint
    for x in (np.array([math.nan]), np.array([math.inf]), np.array([0.1, -math.inf])):
        with pytest.raises(ValueError, match="x"):
            QueryParams(s=0.0, t=1.0, x=x, sigma_scale=1.0, radius=1.0, field=f)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma_scale"):
            QueryParams(s=0.0, t=1.0, x=np.zeros(1), sigma_scale=bad, radius=1.0, field=f)
        with pytest.raises(ValueError, match="radius"):
            QueryParams(s=0.0, t=1.0, x=np.zeros(1), sigma_scale=1.0, radius=bad, field=f)


def test_estimators_reject_malformed_points(spec3, bank3):
    # x = [0.5] used to broadcast over all three modes, and so did a
    # gradient direction of one entry
    q = QueryParams(s=0.0, t=1.0, x=np.full(3, 0.5), sigma_scale=0.8, radius=1.0,
                    field=sine_field(), use_shift=False)
    for direction in (np.ones(1), np.ones(4), np.array([1.0, math.nan, 0.0])):
        with pytest.raises(ValueError, match="direction"):
            ou_gradient(bank3, spec3, None, q, direction)
    for x in (np.array([0.5]), np.full(4, 0.5), np.full((1, 3), 0.5)):
        q = QueryParams(s=0.0, t=1.0, x=x, sigma_scale=0.8, radius=1.0,
                        field=sine_field(), use_shift=False)
        for run in (lambda: v0_estimate(bank3, spec3, None, q),
                    lambda: v1_estimate(bank3, spec3, None, q, 0.1, 60),
                    lambda: vn_estimate(bank3, spec3, None, q, 2, 0.1, 60),
                    lambda: ou_gradient(bank3, spec3, None, q, np.ones(3)),
                    lambda: em_benchmark(spec3, q, 100, 1e-2, 0)):
            with pytest.raises(ValueError, match="shape"):
                run()


def test_estimate_meta(det_bank1, spec1):
    q = QueryParams(s=0.0, t=1.0, x=np.ones(1), sigma_scale=0.5, radius=1.0,
                    field=zero_field(), use_shift=False)
    est = v0_estimate(det_bank1, spec1, None, q)
    assert est.meta["x"] == "const1"
    assert est.meta["field"] == "zero"
    assert est.meta["shift"] is False
    q0 = QueryParams(s=0.0, t=1.0, x=np.zeros(1), sigma_scale=0.5, radius=1.0,
                     field=zero_field(), use_shift=False)
    assert v0_estimate(det_bank1, spec1, None, q0).meta["x"] == "zeros"


# ---------------------------------------------------------------------------
# Benchmark


def test_em_extreme_radii(spec1, q_sine):
    huge = QueryParams(s=0.0, t=1.0, x=np.array([0.4]), sigma_scale=0.5,
                       radius=1e6, field=sine_field(), use_shift=False)
    est = em_benchmark(spec1, huge, 500, 1e-2, 0)
    assert est.value == 0.0 and est.std_error == 0.0
    tiny = QueryParams(s=0.0, t=1.0, x=np.array([0.4]), sigma_scale=0.5,
                       radius=1e-9, field=sine_field(), use_shift=False)
    est = em_benchmark(spec1, tiny, 500, 1e-2, 0)
    assert est.value == 1.0


def test_em_deterministic_in_seed(spec1, q_sine):
    a = em_benchmark(spec1, q_sine, 1000, 1e-2, 42)
    b = em_benchmark(spec1, q_sine, 1000, 1e-2, 42)
    c = em_benchmark(spec1, q_sine, 1000, 1e-2, 43)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.value != c.value
    assert a.order == -1 and a.n_samples == 1000


def test_em_series_prefix_identity(spec1, q_sine):
    # Evaluating at [0.5, 1.0] from one batch must agree bitwise with a
    # dedicated run stopped at 0.5: the first 500 steps consume the same draws.
    q_half = QueryParams(s=0.0, t=0.5, x=np.array([0.4]), sigma_scale=0.5,
                         radius=1.0, field=sine_field(), use_shift=False)
    single = em_benchmark(spec1, q_half, 2000, 1e-3, 9)
    series = em_benchmark_series(spec1, q_sine, [0.5, 1.0], 2000, 1e-3, 9)
    assert single.value == series[0].value
    assert single.std_error == series[0].std_error
    assert series[0].meta["t"] == 0.5 and series[1].meta["t"] == 1.0
    # two times on one step share its values (the second used to raise KeyError)
    twin = em_benchmark_series(spec1, q_sine, [0.5, 0.5 + 1e-12], 2000, 1e-3, 9)
    assert twin[0].value == twin[1].value == single.value


def test_em_validation(spec1, q_sine):
    with pytest.raises(ValueError):
        em_benchmark_series(spec1, q_sine, [0.7005], 100, 1e-2, 0)
    with pytest.raises(ValueError):
        em_benchmark_series(spec1, q_sine, [1.5], 100, 1e-2, 0)
    with pytest.raises(ValueError):
        em_benchmark_series(spec1, q_sine, [], 100, 1e-2, 0)
    with pytest.raises(ValueError):
        em_benchmark(spec1, q_sine, 1, 1e-2, 0)
    with pytest.raises(ValueError):
        em_benchmark(spec1, q_sine, 100, 1e-2, 0, method="heun")


def test_em_euler_refuses_an_unstable_step(spec1, q_sine):
    # lambda*delta = 2.25 past the explicit scheme's bound of 2; 1.8 runs, and
    # the exponential scheme is stable at any step
    stiff = replace(spec1, lambdas=np.array([9.0]))
    with pytest.raises(ValueError, match=r"diverges when lambda\*delta > 2, got 2.25"):
        em_benchmark(stiff, q_sine, 100, 0.25, 0, method="euler")
    for delta_em, method in ((0.2, "euler"), (0.25, "exp")):
        assert 0.0 <= em_benchmark(stiff, q_sine, 100, delta_em, 0, method=method).value <= 1.0


@pytest.mark.parametrize("delta_em", [0.0, -1e-2, math.nan, math.inf])
def test_em_rejects_bad_step(spec1, q_sine, delta_em):
    # a zero step divided by zero; the others failed on the step grid or in round()
    with pytest.raises(ValueError, match="delta_em must be finite and positive"):
        em_benchmark(spec1, q_sine, 100, delta_em, 0)


class Planted(Exception):
    pass


def test_em_draw_error_surfaces_and_helper_ends(spec1, q_sine, monkeypatch):
    # The 7th draw fails on the helper thread, in the third chunk of three
    # steps; em_benchmark must raise that exception and leave no thread behind.
    draw, planted, calls = estimators.sample_stable_increment, Planted("draw 7"), []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 7:
            raise planted
        return draw(*args, **kwargs)

    monkeypatch.setattr(estimators, "EM_CHUNK_BYTES", 3 * 100 * 8)
    monkeypatch.setattr(estimators, "sample_stable_increment", failing)
    before = threading.active_count()
    with pytest.raises(Planted) as info:
        em_benchmark(spec1, q_sine, 100, 1e-2, 0)
    assert info.value is planted
    assert threading.active_count() == before
    assert len(calls) == 7


def test_em_drift_error_stops_helper(spec1, monkeypatch):
    # A drift failing on the main thread mid-run also leaves no thread behind.
    def drift(t, x):
        if t > 0.05:
            raise Planted("drift")
        return np.sin(x)

    q = QueryParams(s=0.0, t=1.0, x=np.array([0.4]), sigma_scale=0.5, radius=1.0,
                    field=custom_field(drift, 1.0), use_shift=False)
    monkeypatch.setattr(estimators, "EM_CHUNK_BYTES", 3 * 100 * 8)
    before = threading.active_count()
    with pytest.raises(Planted):
        em_benchmark(spec1, q, 100, 1e-2, 0)
    assert threading.active_count() == before


def test_em_methods_agree(spec1, q_sine):
    a = em_benchmark(spec1, q_sine, 20000, 1e-3, 15, method="exp")
    b = em_benchmark(spec1, q_sine, 20000, 1e-3, 16, method="euler")
    se = math.hypot(a.std_error, b.std_error)
    assert abs(a.value - b.value) <= 4.0 * se


# ---------------------------------------------------------------------------
# v0 and the gradient against the deterministic-clock Gaussian closed form


def test_v0_matches_gaussian_closed_form(det_bank1, spec1):
    q = QueryParams(s=0.0, t=1.0, x=np.array([0.4]), sigma_scale=0.5,
                    radius=1.0, field=zero_field(), use_shift=False)
    est = v0_estimate(det_bank1, spec1, None, q)
    assert est.order == 0 and est.n_samples == 50000
    assert abs(est.value - DET_P_TRUE) <= 4.0 * est.std_error


# A deterministic clock and a constant drift c make the endpoint exactly
# Gaussian: N(m, V) with m = e^{-lam(t-s)} x, plus c (1 - e^{-lam(t-s)})/lam
# when the shift is on (f = c, so F_{s,t} is that term), and
# V = sigma^2 (1 - e^{-2 lam(t-s)})/(2 lam).
LAM, C, X, RADIUS, SIGMA = 2.0, 0.8, 0.3, 0.6, 0.7
LAM2 = ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=1, lambdas=np.array([LAM]),
                   sigmas=np.ones(1), horizon=1.0)


@pytest.fixture(scope="module", params=[1, 2])
def det_bank_lam2(request):
    # a fine step of 1e-2 is exact for a deterministic clock and keeps 3e4
    # records and 6e4 sub paths small; the sub paths draw from their own stream
    # domain, so they leave the records' bits as they are
    return generate_bank(LAM2, 1e-2, 1e-2, 60000, 30000, request.param,
                         deterministic_clock=True)


def constant_drift_case(s: float, t: float, use_shift: bool) -> tuple:
    """The query with drift B = C, and its time shift when use_shift (f = C)."""
    field = custom_field(lambda t, y: np.full_like(y, C), bound=C)
    q = QueryParams(s=s, t=t, x=np.array([X]), sigma_scale=SIGMA, radius=RADIUS,
                    field=field, use_shift=use_shift)
    return q, solve_flow(LAM2, field, s, q.x, TimeGrid(0.0, 1.0, 1e-3)) if use_shift else None


@pytest.mark.parametrize("use_shift", [False, True])
@pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.2, 0.9)])
def test_v0_matches_constant_drift_oracle(det_bank_lam2, s, t, use_shift):
    q, shift = constant_drift_case(s, t, use_shift)
    decay = math.exp(-LAM * (t - s))
    m = decay * X + (C * (1.0 - decay) / LAM if use_shift else 0.0)
    want = exit_probability(m, SIGMA ** 2 * (1.0 - decay ** 2) / (2.0 * LAM))
    est = v0_estimate(det_bank_lam2, LAM2, shift, q)
    assert est.n_samples == 30000
    assert abs(est.value - want) <= 4.0 * est.std_error, (est.value - want) / est.std_error


def exit_probability(m: float, var):
    """g(m) = P(|N(m, var)| > RADIUS), elementwise over an array of var."""
    scale = np.sqrt(2.0 * np.asarray(var))
    return 0.5 * (erfc((RADIUS - m) / scale) + erfc((RADIUS + m) / scale))


def exit_derivative(order: int, m: float, var):
    """d^order/dm^order of g(m) = P(|N(m, var)| > RADIUS), order 1 to 3.

    g = 1 + Phi(a) - Phi(b) with a, b = (m -+ RADIUS)/sqrt(var), and the k-th
    derivative of Phi is (-1)^(k-1) He_(k-1)(z) phi(z) (Hermite polynomials).
    Elementwise over an array of var.
    """
    sd = np.sqrt(var)
    hermite = (lambda z: 1.0, lambda z: z, lambda z: z * z - 1.0)[order - 1]
    a, b = (m - RADIUS) / sd, (m + RADIUS) / sd
    phi = [np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) for z in (a, b)]
    return (-1) ** (order - 1) * (hermite(a) * phi[0] - hermite(b) * phi[1]) / sd ** order


def simplex_weight(s: float, t: float, mesh: float, order: int) -> float:
    """e_order(w), w_j = h e^{-lam (t - tau_j)} over the nodes tau_j = s + j h < t."""
    w = mesh * np.exp(-LAM * (t - (s + mesh * np.arange(round((t - s) / mesh)))))
    e = np.zeros(order + 1)
    e[0] = 1.0
    for wj in w:
        e[1:] = e[1:] + wj * e[:-1]
    return e[order]


@pytest.mark.parametrize("order, n", [(1, 30000), (2, 30000), (3, 20000)])
@pytest.mark.parametrize("s, t, mesh", [(0.0, 1.0, 0.05), (0.2, 0.9, 0.1)])
def test_iterates_match_constant_drift_oracle(det_bank_lam2, s, t, mesh, order, n):
    # Every interval is Gaussian, so Gaussian integration by parts turns each
    # node's weight into a derivative of g, and the left-Riemann simplex sum
    # is v^n = e_n(w) C^n g^(n)(m): w_j = h e^{-lam (t - tau_j)} over the
    # nodes tau_j = s + j h < t, e_n the n-th elementary symmetric polynomial,
    # m = e^{-lam (t-s)} x and g the exit probability of N(m, V_{s,t}).
    q, _ = constant_drift_case(s, t, False)
    var = SIGMA ** 2 * (1.0 - math.exp(-2.0 * LAM * (t - s))) / (2.0 * LAM)
    want = simplex_weight(s, t, mesh, order) * C ** order \
        * exit_derivative(order, math.exp(-LAM * (t - s)) * X, var)
    est = v1_estimate(det_bank_lam2, LAM2, None, q, mesh, n) if order == 1 \
        else vn_estimate(det_bank_lam2, LAM2, None, q, order, mesh, n)
    assert est.n_samples == n
    assert abs(est.value - want) <= 4.0 * est.std_error, (est.value - want) / est.std_error


# A random clock L: given L, every interval is Gaussian with the record's
# covariance V_L, and the record's clock up to a node followed by a sub
# path's clock after it has the law of one clock.  So the oracles above hold
# averaged over clocks, v^n = e_n(w) C^n E_L[g_L^(n)(m)] (v^0 = E_L[g_L(m)]),
# with E_L a mean over fresh clocks, whose se is far below the estimate's
# from order 1 on.  Unlike a deterministic clock, I0 != I1 here, so these
# see each interval's sqrt(I0/I1) factor.
RANDOM_CLOCK = replace(LAM2, alpha=0.55)


@pytest.fixture(scope="module")
def random_clock_case():
    """A random-clock bank, and sigma^2 V_L for 3e4 fresh clocks per (s, t)."""
    bank = generate_bank(RANDOM_CLOCK, 1e-2, 1e-2, 40000, 20000, 1)
    clocks = generate_bank(RANDOM_CLOCK, 1e-2, 1e-2, 30000, 0, 1001).sub_values
    return bank, {st: covariance_integral(clocks, 1e-2, RANDOM_CLOCK, SIGMA, *st)[:, 0]
                  for st in ((0.0, 1.0), (0.2, 0.9))}


@pytest.mark.parametrize("order, n", [(0, 20000), (1, 20000), (2, 20000), (3, 10000)])
@pytest.mark.parametrize("s, t, mesh", [(0.0, 1.0, 0.05), (0.2, 0.9, 0.1)])
def test_iterates_match_random_clock_oracle(random_clock_case, s, t, mesh, order, n):
    bank, variances = random_clock_case
    q, _ = constant_drift_case(s, t, False)
    m = math.exp(-LAM * (t - s)) * X
    if order == 0:
        oracle = exit_probability(m, variances[s, t])
        est = v0_estimate(bank, RANDOM_CLOCK, None, q)
    else:
        oracle = simplex_weight(s, t, mesh, order) * C ** order \
            * exit_derivative(order, m, variances[s, t])
        est = vn_estimate(bank, RANDOM_CLOCK, None, q, order, mesh, n)
    assert est.n_samples == n
    se = math.hypot(est.std_error, oracle.std() / math.sqrt(oracle.size))
    assert abs(est.value - oracle.mean()) <= 4.0 * se, (est.value - oracle.mean()) / se


@pytest.mark.parametrize("order", [1, 2, 3])
def test_iterates_vanish_when_the_shift_takes_the_drift(det_bank_lam2, order):
    # with the shift on, f = C and the kernel's drift B - f is exactly 0
    q, shift = constant_drift_case(0.2, 0.9, True)
    est = vn_estimate(det_bank_lam2, LAM2, shift, q, order, 0.1, 2000)
    assert est.value == 0.0 and est.std_error == 0.0


def test_v0_needs_records(spec1):
    # ou_gradient shares v0's endpoint; it gave a standard error of 0.0 from
    # one record and a NaN from none
    q = QueryParams(s=0.0, t=1.0, x=np.array([0.4]), sigma_scale=0.5,
                    radius=1.0, field=zero_field(), use_shift=False)
    for m_ou in (0, 1):
        lonely = generate_bank(spec1, 1e-3, 1e-2, 2, m_ou, 0)
        with pytest.raises(ValueError, match=f"bank holds {m_ou} records, need at least 2"):
            v0_estimate(lonely, spec1, None, q)
        with pytest.raises(ValueError, match=f"bank holds {m_ou} records, need at least 2"):
            ou_gradient(lonely, spec1, None, q, np.array([1.0]))


def test_spec_mismatch_rejected(det_bank1):
    other = ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=1,
                        lambdas=np.array([2.0]), sigmas=np.ones(1), horizon=1.0)
    q = QueryParams(s=0.0, t=1.0, x=np.array([0.4]), sigma_scale=0.5,
                    radius=1.0, field=zero_field(), use_shift=False)
    with pytest.raises(ValueError, match="spec"):
        v0_estimate(det_bank1, other, None, q)


def test_missing_shift_rejected(det_bank1, spec1):
    q = QueryParams(s=0.0, t=1.0, x=np.array([0.4]), sigma_scale=0.5,
                    radius=1.0, field=sine_field(), use_shift=True)
    with pytest.raises(ValueError, match="shift"):
        v0_estimate(det_bank1, spec1, None, q)


def shifted_query(s: float) -> QueryParams:
    return QueryParams(s=s, t=1.0, x=np.array([0.4, -0.3, 0.2]), sigma_scale=0.7,
                       radius=1.0, field=sine_field(), use_shift=True)


def test_shift_of_another_dim_rejected(spec1, spec3, bank3):
    # solved for a dim-1 problem, it would broadcast into the dim-3 query
    for field in (sine_field(), zero_field()):
        shift = solve_flow(spec1, field, 0.0, np.array([0.4]), TimeGrid(0.0, 1.0, 1e-3))
        q = replace(shifted_query(0.0), field=field)
        for estimate in (v0_estimate, lambda *a: v1_estimate(*a, 1e-2, 50)):
            with pytest.raises(ValueError, match=r"shape \(\., 3\)"):
                estimate(bank3, spec3, shift, q)


def test_shift_not_covering_query_rejected(spec3, bank3):
    # one shift starts after the query's s, the other ends before its t
    for field in (sine_field(), zero_field()):
        q = replace(shifted_query(0.2), field=field)
        late = solve_flow(spec3, field, 0.5, q.x, TimeGrid(0.0, 1.0, 1e-3))
        short = solve_flow(spec3, field, 0.2, q.x, TimeGrid(0.0, 0.5, 1e-3))
        for shift, span in ((late, r"\[0\.5, 1\.0\]"), (short, r"\[0\.2, 0\.5\]")):
            for estimate in (v0_estimate, lambda *a: v1_estimate(*a, 1e-2, 50)):
                with pytest.raises(ValueError, match="covers " + span):
                    estimate(bank3, spec3, shift, q)


@pytest.mark.parametrize("h", [1.0, -0.5])
@pytest.mark.parametrize("use_shift", [False, True])
@pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.2, 0.9)])
def test_gradient_matches_constant_drift_oracle(det_bank_lam2, s, t, use_shift, h):
    # v0 = g(m) with m = e^{-lam(t-s)} x (+ F_{s,t} with the shift), so its
    # derivative along h is g'(m) e^{-lam(t-s)} h
    q, shift = constant_drift_case(s, t, use_shift)
    decay = math.exp(-LAM * (t - s))
    m = decay * X + (C * (1.0 - decay) / LAM if use_shift else 0.0)
    var = SIGMA ** 2 * (1.0 - decay ** 2) / (2.0 * LAM)
    want = exit_derivative(1, m, var) * decay * h
    est = ou_gradient(det_bank_lam2, LAM2, shift, q, np.array([h]))
    assert est.n_samples == 30000 and est.meta["direction"] == f"const{h:g}"
    assert abs(est.value - want) <= 4.0 * est.std_error, (est.value - want) / est.std_error


def test_gradient_matches_exact_derivative(det_bank1, spec1):
    q = QueryParams(s=0.0, t=1.0, x=np.array([0.3]), sigma_scale=0.5,
                    radius=1.0, field=zero_field(), use_shift=False)
    g = ou_gradient(det_bank1, spec1, None, q, np.array([1.0]))
    assert abs(g.value - DET_GRAD_TRUE) <= 4.0 * g.std_error
    g2 = ou_gradient(det_bank1, spec1, None, q, np.array([2.0]))
    assert g2.value == 2.0 * g.value
    g0 = ou_gradient(det_bank1, spec1, None, q, np.array([0.0]))
    assert g0.value == 0.0 and g0.std_error == 0.0


# ---------------------------------------------------------------------------
# Higher iterates


def test_zero_field_iterates_vanish(bank1, spec1):
    q = QueryParams(s=0.0, t=1.0, x=np.array([0.4]), sigma_scale=0.5,
                    radius=1.0, field=zero_field(), use_shift=False)
    v1 = v1_estimate(bank1, spec1, None, q, 1e-2, 2000)
    assert v1.value == 0.0 and v1.std_error == 0.0
    v2 = vn_estimate(bank1, spec1, None, q, 2, 2e-2, 500)
    assert v2.value == 0.0 and v2.std_error == 0.0


@pytest.mark.parametrize("order, mesh", [(1, 0.1), (2, 0.1)])
def test_zero_field_skips_the_walk_with_its_answer(spec3, bank3, monkeypatch, order, mesh):
    # A custom field returning zeros walks; the zero kind must give its
    # answer without walking when B = 0 (no shift, or a zero shift), and walk
    # under the sine flow's shift, where its drift is -f.
    zeros = custom_field(lambda t, x: np.zeros_like(x), 1.0)
    sine_shift, q = split_query(spec3, zero_field())
    zero_shift = solve_flow(spec3, zeros, 0.0, q.x, TimeGrid(0.0, 1.0, 1e-3))

    def walked(*args):
        raise Planted("walked")

    for shift in (None, zero_shift, sine_shift):
        on = replace(q, use_shift=shift is not None)
        for seed in (None, 5):
            want = iterate(bank3, spec3, shift, replace(on, field=zeros), order, mesh, seed)
            with monkeypatch.context() as patch:
                patch.setattr(estimators, "_node_sums", walked)
                if shift is sine_shift:
                    with pytest.raises(Planted):
                        iterate(bank3, spec3, shift, on, order, mesh, seed)
                else:
                    assert iterate(bank3, spec3, shift, on, order, mesh, seed) == want
                    assert want[:2] == ((0.0).hex(), (0.0).hex())
            assert iterate(bank3, spec3, shift, on, order, mesh, seed) == want


def test_vn_order1_equals_v1(bank1, spec1, q_sine):
    for seed in (None, 77):
        n = 4000 if seed is None else 2000
        a = v1_estimate(bank1, spec1, None, q_sine, 1e-2, n, seed=seed)
        b = vn_estimate(bank1, spec1, None, q_sine, 1, 1e-2, n, seed=seed)
        assert abs(a.value - b.value) <= 1e-12


def test_v1_deterministic(bank1, spec1, q_sine):
    a = v1_estimate(bank1, spec1, None, q_sine, 1e-2, 2000, seed=77)
    b = v1_estimate(bank1, spec1, None, q_sine, 1e-2, 2000, seed=77)
    c = v1_estimate(bank1, spec1, None, q_sine, 1e-2, 2000, seed=78)
    assert a.value == b.value
    assert a.value != c.value


def test_first_correction_shrinks_error(bank1, spec1, q_sine):
    bench = em_benchmark(spec1, q_sine, 40000, 1e-3, 7)
    v0 = v0_estimate(bank1, spec1, None, q_sine)
    v1 = v1_estimate(bank1, spec1, None, q_sine, 1e-2, 4000)
    rows = partial_sums([v0, v1], bench)
    assert abs(rows[1].eps_rel) <= 0.6 * abs(rows[0].eps_rel)


def test_iterate_magnitudes_decay(bank1, spec1, q_sine):
    v0 = v0_estimate(bank1, spec1, None, q_sine)
    v1 = v1_estimate(bank1, spec1, None, q_sine, 1e-2, 4000)
    v2 = vn_estimate(bank1, spec1, None, q_sine, 2, 2e-2, 2000)
    assert abs(v2.value) < abs(v1.value) < abs(v0.value)


def test_v1_with_shift_runs(bank1, spec1):
    shift = solve_flow(spec1, sine_field(), 0.0, np.array([0.4]),
                       TimeGrid(0.0, 1.0, 1e-3))
    q = QueryParams(s=0.0, t=1.0, x=np.array([0.4]), sigma_scale=0.5,
                    radius=1.0, field=sine_field(), use_shift=True)
    est = v1_estimate(bank1, spec1, shift, q, 1e-2, 1000)
    assert math.isfinite(est.value) and est.std_error > 0.0


# ---------------------------------------------------------------------------
# The kernel's two walkers: the helper thread walks the outer nodes below
# _split(J, order), the calling thread the rest


# (order, mesh) over [0, 1]: 10, 10 and 5 outer nodes
SPLIT_CASES = ((1, 0.1), (2, 0.1), (3, 0.2))


def split_query(spec, field, use_shift=True):
    x = np.array([0.4, -0.3, 0.2])
    shift = solve_flow(spec, sine_field(), 0.0, x, TimeGrid(0.0, 1.0, 1e-3))
    return shift, QueryParams(s=0.0, t=1.0, x=x, sigma_scale=0.8, radius=1.0,
                              field=field, use_shift=use_shift)


def iterate(bank, spec, shift, q, order, mesh, seed=None):
    """An iterate's value and se as hex (so -0.0 differs from 0.0), n and order."""
    if order == 1:
        est = v1_estimate(bank, spec, shift, q, mesh, 60, seed=seed)
    else:
        est = vn_estimate(bank, spec, shift, q, order, mesh, 60, seed=seed)
    return est.value.hex(), est.std_error.hex(), est.n_samples, est.order


def test_split_halves_the_leaves():
    for order in (1, 2, 3):
        for J in range(order, 60):
            k = estimators._split(J, order)
            total = math.comb(J, order)
            assert 2 * math.comb(k, order) <= total < 2 * math.comb(k + 1, order)
            assert (k == order - 1) == (J == order)


@pytest.mark.parametrize("order, mesh", SPLIT_CASES)
def test_every_split_gives_the_same_bits(spec3, bank3, monkeypatch, order, mesh):
    # k = order - 1 leaves every node to the calling thread, k = J every node
    # to the helper; a short switch interval interleaves the two finely.
    shift, q = split_query(spec3, sine_field())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in (None, 5):
            want = iterate(bank3, spec3, shift, q, order, mesh, seed)
            for k in range(order - 1, round(1.0 / mesh) + 1):
                monkeypatch.setattr(estimators, "_split", lambda J, order, k=k: k)
                assert iterate(bank3, spec3, shift, q, order, mesh, seed) == want, (seed, k)
            monkeypatch.undo()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("order, mesh", SPLIT_CASES)
@pytest.mark.parametrize("walker", ["helper", "caller", "block"])
def test_drift_error_surfaces_from_either_walker(spec3, bank3, order, mesh, walker):
    # The helper fails on its first drift call; the caller fails at the last
    # outer node, whose state is pushed only in walks below that node, which
    # the calling thread owns.  "block" fails on the first stack of states
    # pushed from several innermost nodes at once, on whichever walker gets
    # there first; order 1 walks one node per block and never stacks.
    main = threading.main_thread()

    def drift(t, x):
        if walker == "block":
            fail = x.ndim == 3 and len(x) > 1
        else:
            fail = (threading.current_thread() is not main if walker == "helper"
                    else abs(t - (1.0 - mesh)) < 1e-9)
        if fail:
            raise Planted(threading.current_thread().name)
        return np.sin(x)

    _, q = split_query(spec3, custom_field(drift, 1.0), use_shift=False)
    before = threading.active_count()
    if walker == "block" and order == 1:
        iterate(bank3, spec3, None, q, order, mesh)
    else:
        with pytest.raises(Planted) as info:
            iterate(bank3, spec3, None, q, order, mesh)
        if walker != "block":
            assert (str(info.value) == main.name) == (walker == "caller")
    assert threading.active_count() == before


@pytest.mark.parametrize("order", [1, 2])
def test_caller_failure_stops_the_helper(spec3, bank3, order):
    # The calling thread fails at its first drift call of the walk; at order 2
    # the frame has built every node's drift by then, from (n, dim) panels,
    # and the walk pushes (B, n, dim) stacks.  The helper's first call waits
    # until that failure has surfaced.  From then on the helper may finish
    # the outer node it is in and no other; its calls' t names that node
    # (s_1 at order 1, s_2 at order 2).  It used to walk all its nodes.
    main = threading.main_thread()
    caller_failed = threading.Event()
    helper_times = []

    def drift(t, x):
        if threading.current_thread() is not main:
            if not helper_times:
                caller_failed.wait(10)
                time.sleep(0.2)
            helper_times.append(t)
        elif order == 1 or x.ndim == 3:
            caller_failed.set()
            raise Planted(main.name)
        return np.sin(x)

    _, q = split_query(spec3, custom_field(drift, 1.0), use_shift=False)
    assert estimators._split(20, order) >= order   # the helper has nodes to walk
    with pytest.raises(Planted) as info:
        if order == 1:
            v1_estimate(bank3, spec3, None, q, 0.05, 100)
        else:
            vn_estimate(bank3, spec3, None, q, order, 0.05, 100)
    assert str(info.value) == main.name
    assert len(set(helper_times)) <= 1, sorted(set(helper_times))


@pytest.mark.parametrize("order, mesh", SPLIT_CASES[1:])
def test_every_block_gives_the_same_bits(spec3, bank3, monkeypatch, order, mesh):
    # ROWS = 60 B gives blocks of B innermost nodes on 60 tuples: one node per
    # block (the walk of one node at a time), blocks that do not divide the
    # walks, and one block for a whole walk (B >= J); on one walker (every
    # outer node to the calling thread) and on two, interleaved finely.
    J = round(1.0 / mesh)
    cubic = bounded_cubic_field(2.0, np.full(3, 2.0), 10.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for field in (sine_field(), cubic):
            _, q = split_query(spec3, field)
            shift = solve_flow(spec3, field, 0.0, q.x, TimeGrid(0.0, 1.0, 1e-3))
            for use_shift in (True, False):
                q = replace(q, use_shift=use_shift)
                for seed in (None, 5):
                    monkeypatch.setattr(estimators, "ROWS", 60)
                    want = iterate(bank3, spec3, shift, q, order, mesh, seed)
                    for block in (1, 2, 3, 7, J):
                        monkeypatch.setattr(estimators, "ROWS", 60 * block)
                        got = iterate(bank3, spec3, shift, q, order, mesh, seed)
                        assert got == want, (field.kind, use_shift, seed, block)
                        with monkeypatch.context() as one:
                            one.setattr(estimators, "_split", lambda J, order: order - 1)
                            got = iterate(bank3, spec3, shift, q, order, mesh, seed)
                        assert got == want, (field.kind, use_shift, seed, block, "one walker")
    finally:
        sys.setswitchinterval(interval)


def test_no_thread_when_nodes_equal_order(spec3, bank3, monkeypatch):
    # [0.4, 1] holds J = order nodes at these meshes, so the helper would
    # walk none; at mesh 0.3 and order 1 it walks node 0.
    started, start = [], threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    q = QueryParams(s=0.4, t=1.0, x=np.array([0.4, -0.3, 0.2]), sigma_scale=0.8,
                    radius=1.0, field=sine_field(), use_shift=False)
    for order, mesh in ((1, 0.6), (2, 0.3), (3, 0.2)):
        iterate(bank3, spec3, None, q, order, mesh)
    assert started == []
    iterate(bank3, spec3, None, q, 1, 0.3)
    assert len(started) == 1


# Traced memory of one query on banks whose fine grids differ by 4x.  numpy
# reports its buffers to tracemalloc, so the peak counts every array the call
# allocates, on either thread.  A panel is n*N*8 bytes (n pairs, or m_ou
# records for the gradient).  The budget is per walker: it leaves room for
# one walker's panels, clock bin and iterator buffers and the kept tables.
# The iterate kernel runs two walkers, each with its own panels, so its
# budget is twice that of the single-walker gradient.
MEM_FINE_STEPS = (1e-3, 2.5e-4)
MEM_GROWTH = 2.0
MEM_PANELS_PER_WALKER = 48


@pytest.fixture(scope="module")
def mem_case():
    spec = ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=10,
                       lambdas=np.arange(1.0, 11.0) ** 2, sigmas=np.ones(10), horizon=1.0)
    x = np.linspace(0.5, -0.3, 10)
    shift = solve_flow(spec, sine_field(), 0.2, x, TimeGrid(0.0, 1.0, 1e-3))
    q = QueryParams(s=0.2, t=1.0, x=x, sigma_scale=0.7, radius=1.0,
                    field=sine_field(), use_shift=True)
    banks = [generate_bank(spec, fine, 1e-2, 200, 800, 11) for fine in MEM_FINE_STEPS]
    return spec, shift, q, banks


def traced_peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_flat_in_fine_grid(peaks, panel, walkers):
    assert peaks[1] <= MEM_GROWTH * peaks[0], [p / panel for p in peaks]
    assert max(peaks) <= walkers * MEM_PANELS_PER_WALKER * panel, [p / panel for p in peaks]


@pytest.mark.parametrize("seed", [None, 5])
def test_v1_memory_flat_in_fine_grid(mem_case, seed):
    # The kernel reads the clocks one mesh bin at a time, so neither the
    # whole window's increments nor a (J+1, J+1, N) forcing table is held.
    spec, shift, q, banks = mem_case
    n = 200
    peaks = [traced_peak(lambda: v1_estimate(bank, spec, shift, q, 1e-2, n, seed=seed))
             for bank in banks]
    assert_flat_in_fine_grid(peaks, n * spec.dim * 8, walkers=2)


def test_gradient_memory_flat_in_fine_grid(mem_case):
    spec, shift, q, banks = mem_case
    peaks = [traced_peak(lambda: ou_gradient(bank, spec, shift, q, np.ones(spec.dim)))
             for bank in banks]
    assert_flat_in_fine_grid(peaks, banks[0].m_ou * spec.dim * 8, walkers=1)


@pytest.mark.parametrize("block_bytes", [1, 8 * 800 * 7, 1 << 30],
                         ids=["one-record", "seven-records", "all-records"])
def test_gradient_independent_of_block(mem_case, monkeypatch, block_bytes):
    # One record per block, blocks of 7 records (which do not divide 800),
    # and every record in one block: each row's sum is the same.
    spec, shift, q, banks = mem_case
    direction = np.linspace(1.0, -1.0, spec.dim)
    want = ou_gradient(banks[0], spec, shift, q, direction)
    monkeypatch.setattr(estimators, "GRADIENT_BLOCK_BYTES", block_bytes)
    got = ou_gradient(banks[0], spec, shift, q, direction)
    assert (got.value, got.std_error) == (want.value, want.std_error)


def test_bin_weights_hold_no_subnormal():
    # At lambda = 1e4 and fine step 1e-3 the weights of a bin of 100 fine
    # steps fall below the smallest normal double from age 36 on.
    spec = ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=2, lambdas=np.array([1.0, 1e4]),
                       sigmas=np.ones(2), horizon=1.0)
    bank = generate_bank(spec, 1e-3, 1e-2, 2, 2, 5)
    q = QueryParams(s=0.0, t=1.0, x=np.zeros(2), sigma_scale=0.7, radius=1.0,
                    field=sine_field(), use_shift=False)
    frame = estimators._MeshFrame(bank, spec, None, q, 0.1, 1, 2,
                                  estimators._mesh_nodes(bank, q, 0.1, 1),
                                  (slice(0, 2), [slice(0, 2)]))
    raw = covariance_weights(spec.lambdas, 1e-3, 100) * (0.7 * spec.sigmas) ** 2
    tiny = np.finfo(float).tiny
    assert np.any((raw > 0.0) & (raw < tiny))
    assert not np.any((frame.w2 > 0.0) & (frame.w2 < tiny))
    np.testing.assert_array_equal(frame.w2, np.where(raw < tiny, 0.0, raw))


THREADS_SCRIPT = """
import hashlib
import numpy as np
from levybank.bank import generate_bank
from levybank.core import ProblemSpec, squared_eigenvalues
from levybank.estimators import QueryParams, v1_estimate, vn_estimate
from levybank.fields import sine_field

spec = ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=100, lambdas=squared_eigenvalues(100),
                   sigmas=np.ones(100), horizon=1.0)
for fine, coarse, meshes in ((1e-3, 1e-2, (1e-2, 2e-2, 0.1)), (1e-4, 0.1, (0.1,))):
    bank = generate_bank(spec, fine, coarse, 600, 300, 7)
    for mesh in meshes:
        q = QueryParams(s=1.0 - 10 * mesh, t=1.0, x=np.full(100, 0.5), sigma_scale=0.8,
                        radius=1.0, field=sine_field(), use_shift=False)
        for est in (v1_estimate(bank, spec, None, q, mesh, 300, seed=3),
                    vn_estimate(bank, spec, None, q, 2, mesh, 300, seed=3)):
            print(est.value.hex(), est.std_error.hex())
# checkpoint blocks of 10^4 fine steps: the bank's block variances are one long contraction
bank = generate_bank(spec, 1e-5, 0.1, 6, 6, 7)
print(hashlib.sha256(bank.record_checkpoints.tobytes()).hexdigest())
"""


def test_iterates_independent_of_blas_threads():
    # Bins of k = 10, 20, 100 and 1000 fine steps; each product of (300, k)
    # increments by (k, 100) weights is large enough for OpenBLAS to split it
    # over two threads, which must not move a bit.  Nor may it move a bank's
    # checkpoints, whose blocks here span 10^4 fine steps.
    def run(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.path.dirname(os.path.dirname(levybank.__file__)))
        return subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env, check=True,
                              capture_output=True, text=True, timeout=600).stdout

    one = run(1)
    assert len(one.splitlines()) == 9
    assert run(2) == one


def test_mesh_validation(bank1, spec1, q_sine):
    for field in (sine_field(), zero_field()):
        q = replace(q_sine, field=field)
        with pytest.raises(ValueError, match="mesh"):
            v1_estimate(bank1, spec1, None, q, 0.015, 100)
        q_short = QueryParams(s=0.0, t=0.05, x=np.array([0.4]), sigma_scale=0.5,
                              radius=1.0, field=field, use_shift=False)
        with pytest.raises(ValueError, match="mesh"):
            v1_estimate(bank1, spec1, None, q_short, 0.02, 100)
        with pytest.raises(ValueError):
            v1_estimate(bank1, spec1, None, q, 1e-2, 100000)
        with pytest.raises(ValueError):
            v1_estimate(bank1, spec1, None, q, 1e-2, 1)


def test_vn_validation(bank1, spec1, q_sine):
    for field in (sine_field(), zero_field()):
        q = replace(q_sine, field=field)
        with pytest.raises(ValueError, match="order"):
            vn_estimate(bank1, spec1, None, q, 0, 1e-2, 100)
        with pytest.raises(ValueError, match="mesh too coarse"):
            vn_estimate(bank1, spec1, None, q, 3, 0.5, 100)
        with pytest.raises(ValueError, match="too small"):
            vn_estimate(bank1, spec1, None, q, 2, 1e-2, 3000)


# ---------------------------------------------------------------------------
# Partial sums


def fake(order, value, se):
    return IterateEstimate(value=value, std_error=se, n_samples=100, order=order)


def test_partial_sums_arithmetic():
    bench = fake(-1, 0.8, 0.01)
    rows = partial_sums([fake(0, 0.5, 0.02), fake(1, 0.2, 0.005)], bench)
    assert rows[0].partial_sum == 0.5
    assert rows[0].partial_sum_se == 0.02
    assert rows[0].eps_rel == pytest.approx((0.8 - 0.5) / 0.8, rel=1e-15)
    want_var0 = (0.5 / 0.8 ** 2) ** 2 * 0.01 ** 2 + 0.02 ** 2 / 0.8 ** 2
    assert rows[0].eps_rel_se == pytest.approx(math.sqrt(want_var0), rel=1e-15)
    assert rows[1].partial_sum == pytest.approx(0.7, rel=1e-15)
    assert rows[1].partial_sum_se == pytest.approx(math.hypot(0.02, 0.005), rel=1e-15)
    assert rows[1].eps_rel == pytest.approx((0.8 - 0.7) / 0.8, rel=1e-12)
    want_var1 = (0.7 / 0.8 ** 2) ** 2 * 0.01 ** 2 + (0.02 ** 2 + 0.005 ** 2) / 0.8 ** 2
    assert rows[1].eps_rel_se == pytest.approx(math.sqrt(want_var1), rel=1e-12)


def test_partial_sums_validation():
    bench = fake(-1, 0.8, 0.01)
    with pytest.raises(ValueError):
        partial_sums([], bench)
    with pytest.raises(ValueError, match="consecutive"):
        partial_sums([fake(0, 0.5, 0.02), fake(2, 0.1, 0.01)], bench)
    with pytest.raises(ValueError, match="zero"):
        partial_sums([fake(0, 0.5, 0.02)], fake(-1, 0.0, 0.0))
