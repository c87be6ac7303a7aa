"""Acceptance suite: every shipped guarantee, one printed verdict line each.

Criteria 3-6 run at desk scale (dimension 100, 1e4-sample banks) and generate
their banks on the fly with a one-slot cache, so the whole file needs about
1.5 GB resident and ~6 minutes on one core, dominated by bank generation.
Run with `pytest -s tests/test_acceptance.py` to watch the verdict lines.

Two tolerance bands (criteria 5 and 6) encode reference values that the exact
scheme provably does not reproduce; those tests compute the honest numbers,
print them, and fail.  See README "Acceptance status" for the analysis and
the independent-oracle evidence behind the shipped estimators.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np
import pytest

from levybank.bank import covariance_integral, generate_bank, load_bank, save_bank
from levybank.config import build_config
from levybank.core import ProblemSpec, TimeGrid, squared_eigenvalues
from levybank.estimators import (QueryParams, em_benchmark, ou_gradient,
                                 v0_estimate, v1_estimate, vn_estimate)
from levybank.fields import bounded_cubic_field, sine_field, zero_field
from levybank.flow import solve_flow
from levybank.stable import validate_sampler

pytestmark = pytest.mark.slow

# Frozen analytic Laplace transforms exp(-lam^alpha / cos(pi alpha / 2)) for
# gamma_bar = 1, computed independently before the sampler existed.
LAPLACE_TABLE = {
    0.55: {0.5: 0.3493457185361146, 1.0: 0.21443061991344398, 2.0: 0.10494133164267141},
    0.65: {0.5: 0.2953250715547044, 1.0: 0.14750682170401277, 2.0: 0.04962795630361816},
    0.75: {0.5: 0.21144846509712617, 1.0: 0.07330503883986966, 2.0: 0.012342132618119287},
    0.85: {0.5: 0.09287434447767093, 1.0: 0.013792124064144061, 2.0: 0.0004432854083291239},
}

DIM = 100
BANK_SEED = 2024       # fixed before any measurement; see the desk protocol
BENCH_SEED = 2024
ALPHAS = (0.65, 0.85, 0.75, 0.55)   # order chosen so 0.55 stays cached for 4-5

# Reference desk-scale values for the alpha = 0.85 sine-with-shift row.
REF_P_085 = 0.899
REF_V0_085 = 0.863

_BANK = {}          # one-slot bank cache: {"alpha":, "spec":, "bank":}
_ROWS = {}          # alpha -> dict with the sine-with-shift row of criterion 3


def desk_spec(alpha: float) -> ProblemSpec:
    return ProblemSpec(alpha=alpha, gamma_bar=1.0, dim=DIM,
                       lambdas=squared_eigenvalues(DIM), sigmas=np.ones(DIM),
                       horizon=1.0)


def desk_bank(alpha: float):
    """Generate (or fetch) the desk bank for alpha, evicting any other alpha."""
    if _BANK.get("alpha") != alpha:
        _BANK.clear()
        gc.collect()
        spec = desk_spec(alpha)
        bank = generate_bank(spec, 1e-3, 1e-2, 10000, 10000, BANK_SEED)
        _BANK.update(alpha=alpha, spec=spec, bank=bank)
    return _BANK["spec"], _BANK["bank"]


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_criterion_1_sampler_law():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, table in LAPLACE_TABLE.items():
        rows = validate_sampler(alpha, 1.0, 100000, sorted(table))
        for row in rows:
            assert math.isclose(row.analytic, table[row.lam], rel_tol=1e-12)
            worst = max(worst, abs(row.empirical - row.analytic) / row.std_error)
            assert not row.flagged, (
                f"alpha={alpha} lam={row.lam}: empirical {row.empirical:.5f} vs "
                f"analytic {row.analytic:.5f} beyond 3 standard errors")
    dt = time.perf_counter() - t0
    verdict(1, True, f"12 transform checks, worst |z| = {worst:.2f}, {dt:.1f} s")
    assert dt < 10.0, f"sampler validation took {dt:.1f} s, budget 10 s"


def test_criterion_2_covariance_closed_form():
    t0 = time.perf_counter()
    spec = desk_spec(0.75)
    det = np.linspace(0.0, 1.0, 1001)
    worst = 0.0
    for (u, t) in ((0.0, 1.0), (0.13, 0.77)):
        got = covariance_integral(det, 1e-3, spec, 1.0, u, t)
        want = (1.0 - np.exp(-2.0 * spec.lambdas * (t - u))) / (2.0 * spec.lambdas)
        rel = np.max(np.abs(got - want) / want)
        worst = max(worst, rel)
        assert rel < 1e-10, f"window ({u},{t}): worst relative error {rel:.2e}"
    # splitting identity cov(u,t) = e^{-2 lam (t-m)} cov(u,m) + cov(m,t),
    # exact on the deterministic clock and on a stochastic draw alike
    drawn = generate_bank(spec, 1e-3, 1e-2, 1, 0, 3)
    split_worst = 0.0
    for clock in (det, drawn.sub_values[0]):
        u, m, t = 0.1, 0.53, 0.98
        whole = covariance_integral(clock, 1e-3, spec, 1.0, u, t)
        left = covariance_integral(clock, 1e-3, spec, 1.0, u, m)
        right = covariance_integral(clock, 1e-3, spec, 1.0, m, t)
        gap = np.max(np.abs(whole - (np.exp(-2.0 * spec.lambdas * (t - m)) * left + right)))
        split_worst = max(split_worst, gap)
        assert gap < 1e-12, f"splitting identity off by {gap:.2e}"
    dt = time.perf_counter() - t0
    verdict(2, True, f"closed form rel {worst:.1e}, splitting {split_worst:.1e}, {dt:.2f} s")
    assert dt < 1.0, f"covariance checks took {dt:.2f} s, budget 1 s"


def test_criterion_3_first_iterate_improves():
    t0 = time.perf_counter()
    sine = sine_field()
    for alpha in ALPHAS:
        spec, bank = desk_bank(alpha)
        shift = solve_flow(spec, sine, 0.0, np.ones(DIM), TimeGrid(0.0, 1.0, 1e-3))
        q = QueryParams(s=0.0, t=1.0, x=np.ones(DIM), sigma_scale=1.0, radius=1.0,
                       field=sine, use_shift=True)
        p = em_benchmark(spec, q, 10000, 1e-3, BENCH_SEED)
        v0 = v0_estimate(bank, spec, shift, q)
        v1 = v1_estimate(bank, spec, shift, q, 1e-2, 10000)
        eps0 = (p.value - v0.value) / p.value
        eps1 = (p.value - v0.value - v1.value) / p.value
        _ROWS[alpha] = dict(p=p.value, v0=v0.value, v1=v1.value,
                            eps0=eps0, eps1=eps1)
    dt = time.perf_counter() - t0
    r85 = _ROWS[0.85]
    pairs = ", ".join(f"a={a:g}: {abs(_ROWS[a]['eps1']):.3f}<={abs(_ROWS[a]['eps0']):.3f}"
                      for a in sorted(_ROWS))
    verdict(3, abs(r85["p"] - REF_P_085) <= 0.02
            and abs(r85["v0"] - REF_V0_085) <= 0.02
            and all(abs(r["eps1"]) <= abs(r["eps0"]) for r in _ROWS.values()),
            f"a=0.85 P={r85['p']:.4f} v0={r85['v0']:.4f}; |eps1|<=|eps0|: {pairs}; "
            f"{dt:.0f} s")
    assert abs(r85["p"] - REF_P_085) <= 0.02
    assert abs(r85["v0"] - REF_V0_085) <= 0.02
    for alpha, row in _ROWS.items():
        assert abs(row["eps1"]) <= abs(row["eps0"]), (
            f"alpha={alpha}: first iterate did not improve "
            f"(|{row['eps1']:.4f}| > |{row['eps0']:.4f}|)")
    assert dt < 1800.0


def test_criterion_4_shift_halves_linear_error():
    spec, bank = desk_bank(0.55)
    q = QueryParams(s=0.0, t=1.0, x=np.ones(DIM), sigma_scale=1.0, radius=1.0,
                    field=sine_field(), use_shift=False)
    v0_plain = v0_estimate(bank, spec, None, q)
    row = _ROWS[0.55]
    eps0_shift = abs(row["eps0"])
    eps0_plain = abs((row["p"] - v0_plain.value) / row["p"])
    ratio = eps0_plain / eps0_shift
    verdict(4, ratio >= 2.0,
            f"|eps0| {eps0_shift:.4f} with shift vs {eps0_plain:.4f} without, "
            f"ratio {ratio:.1f}x")
    assert ratio >= 2.0, f"time shift only improved eps0 by {ratio:.2f}x, need >= 2x"


def test_criterion_5_shifted_cubic_first_iterate():
    spec, bank = desk_bank(0.55)
    bc = bounded_cubic_field(2.0, np.full(DIM, 2.0), 1e4)
    shift = solve_flow(spec, bc, 0.0, np.ones(DIM), TimeGrid(0.0, 1.0, 1e-3))
    q = QueryParams(s=0.0, t=1.0, x=np.ones(DIM), sigma_scale=0.7, radius=1.0,
                    field=bc, use_shift=True)
    p = em_benchmark(spec, q, 10000, 1e-3, BENCH_SEED)
    v0 = v0_estimate(bank, spec, shift, q)
    v1 = v1_estimate(bank, spec, shift, q, 1e-2, 10000)
    eps0 = (p.value - v0.value) / p.value
    eps1 = (p.value - v0.value - v1.value) / p.value
    verdict(5, eps0 < 0.0 and abs(eps1) < 0.05,
            f"P={p.value:.4f} v0={v0.value:.4f} v1={v1.value:+.4f} "
            f"eps0={eps0:+.4f} eps1={eps1:+.4f}")
    assert eps0 < 0.0, f"expected the linear estimate to overshoot, got eps0={eps0:+.4f}"
    assert abs(eps1) < 0.05, (
        f"shifted-cubic first-iterate band: eps1 = {eps1:+.4f}, required |eps1| < 0.05. "
        f"The estimator is verified unbiased against independent oracles; on the "
        f"format-2 bank at these seeds eps1 = -0.0584, with a standard error of "
        f"about 0.09; the band encodes a reference value the exact scheme does not "
        f"attain. See README, 'Acceptance status'.")


def test_criterion_6_second_iterate_sign_pattern():
    spec, bank = desk_bank(0.75)
    bc = bounded_cubic_field(2.0, np.full(DIM, 2.0), 1e4)
    q = QueryParams(s=0.0, t=1.0, x=np.ones(DIM), sigma_scale=0.7, radius=1.0,
                    field=bc, use_shift=False)
    p = em_benchmark(spec, q, 10000, 1e-3, BENCH_SEED)
    v0 = v0_estimate(bank, spec, None, q)
    v1 = v1_estimate(bank, spec, None, q, 2e-2, 10000)
    v2 = vn_estimate(bank, spec, None, q, 2, 2e-2, 5000)
    eps0 = (p.value - v0.value) / p.value
    eps1 = (p.value - v0.value - v1.value) / p.value
    eps2 = (p.value - v0.value - v1.value - v2.value) / p.value
    verdict(6, eps0 > 0.0 and eps1 > eps0 and abs(eps2) <= 0.06,
            f"P={p.value:.4f} v0={v0.value:.4f} v1={v1.value:+.4f} v2={v2.value:+.4f} "
            f"eps0={eps0:+.4f} eps1={eps1:+.4f} eps2={eps2:+.4f}")
    assert eps0 > 0.0
    assert eps1 > eps0, "without the shift the first iterate should overshoot further"
    assert abs(eps2) <= 0.06, (
        f"order-2 band: eps2 = {eps2:+.4f}, required |eps2| <= 0.06. The order-2 "
        f"estimator is checked against test_iterates_match_constant_drift_oracle "
        f"and test_iterates_match_random_clock_oracle; on the format-2 bank at these "
        f"seeds eps2 = -0.2504, with a standard error of about 0.1; the band encodes "
        f"a reference value the exact scheme does not attain. See README, "
        f"'Acceptance status'.")


def test_criterion_7_structural_properties(tmp_path):
    t0 = time.perf_counter()
    checks = []
    spec = ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=3,
                       lambdas=np.array([1.0, 4.0, 9.0]), sigmas=np.ones(3),
                       horizon=1.0)
    bank = generate_bank(spec, 1e-3, 1e-2, 2000, 2000, 31)

    # zero drift: the semilinear equation IS the OU process, iterates vanish
    qz = QueryParams(s=0.0, t=1.0, x=np.full(3, 0.5), sigma_scale=0.8, radius=0.8,
                     field=zero_field(), use_shift=False)
    p = em_benchmark(spec, qz, 4000, 1e-3, 11)
    v0 = v0_estimate(bank, spec, None, qz)
    v1 = v1_estimate(bank, spec, None, qz, 1e-2, 2000)
    v2 = vn_estimate(bank, spec, None, qz, 2, 2e-2, 500)
    assert v1.value == 0.0 and v2.value == 0.0
    gap = abs(p.value - v0.value)
    bound = 3.0 * math.hypot(p.std_error, v0.std_error)
    assert gap <= bound, f"zero-drift collapse: |P - v0| = {gap:.4f} > {bound:.4f}"
    checks.append(f"zero-drift gap {gap:.4f} <= {bound:.4f}")

    # sigma reuse: one bank serves every noise strength by exact rescaling
    clock = bank.record_clock_values[0]
    c1 = covariance_integral(clock, 1e-3, spec, 0.5, 0.2, 0.9)
    c2 = covariance_integral(clock, 1e-3, spec, 1.0, 0.2, 0.9)
    assert np.array_equal(c2, 4.0 * c1)
    # half the noise and half the radius: the same exits, so v0 to the bit
    for s, t in ((0.0, 1.0), (0.2, 0.9)):
        half, unit = (v0_estimate(bank, spec, None,
                                  QueryParams(s=s, t=t, x=np.zeros(3), sigma_scale=scale,
                                              radius=scale, field=zero_field(),
                                              use_shift=False))
                      for scale in (0.5, 1.0))
        assert (half.value, half.std_error) == (unit.value, unit.std_error)
    checks.append("sigma rescaling exact")

    # gradient representation vs central finite differences, 5 random directions
    det = generate_bank(spec, 1e-3, 1e-2, 0, 50000, 7, deterministic_clock=True)
    x0 = np.array([0.4, 0.1, -0.2])
    rng = np.random.default_rng(7)
    worst_z = 0.0
    for _ in range(5):
        h_dir = rng.standard_normal(3)
        h_dir /= np.linalg.norm(h_dir)
        qg = QueryParams(s=0.0, t=1.0, x=x0, sigma_scale=0.5, radius=1.0,
                         field=zero_field(), use_shift=False)
        grad = ou_gradient(det, spec, None, qg, h_dir)
        step = 0.05
        vp = v0_estimate(det, spec, None,
                         QueryParams(s=0.0, t=1.0, x=x0 + step * h_dir, sigma_scale=0.5,
                                     radius=1.0, field=zero_field(), use_shift=False))
        vm = v0_estimate(det, spec, None,
                         QueryParams(s=0.0, t=1.0, x=x0 - step * h_dir, sigma_scale=0.5,
                                     radius=1.0, field=zero_field(), use_shift=False))
        fd = (vp.value - vm.value) / (2.0 * step)
        se = math.hypot(grad.std_error,
                        math.hypot(vp.std_error, vm.std_error) / (2.0 * step))
        z = abs(grad.value - fd) / se
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"gradient vs FD: z = {z:.2f} in direction {h_dir}"
    checks.append(f"gradient-FD worst z {worst_z:.2f}")

    # order-1 generic iterate reproduces the dedicated first-iterate estimator
    qs = QueryParams(s=0.0, t=1.0, x=np.full(3, 0.5), sigma_scale=0.7, radius=1.0,
                     field=sine_field(), use_shift=False)
    for seed in (None, 77):
        a = v1_estimate(bank, spec, None, qs, 1e-2, 2000, seed=seed)
        b = vn_estimate(bank, spec, None, qs, 1, 1e-2, 2000, seed=seed)
        assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(a.value))
    checks.append("order-1 match 1e-12")

    # save/load round trip is bitwise
    small = generate_bank(spec, 1e-3, 1e-2, 50, 50, 13)
    path = tmp_path / "bank.lvib"
    save_bank(small, path)
    loaded = load_bank(path, spec)
    assert np.array_equal(small.sub_values, loaded.sub_values)
    assert np.array_equal(small.record_clock_values, loaded.record_clock_values)
    assert np.array_equal(small.record_checkpoints, loaded.record_checkpoints)
    checks.append("save/load bitwise")

    dt = time.perf_counter() - t0
    verdict(7, True, "; ".join(checks) + f"; {dt:.0f} s")
    assert dt < 120.0, f"property bundle took {dt:.0f} s, budget 120 s"


def test_criterion_8_fine_profile_supported():
    cfg = build_config(profile="paper")
    assert cfg.m_sub == 100000 and cfg.m_ou == 100000
    assert cfg.delta_fine == 1e-4 and cfg.delta_em == 1e-4
    assert cfg.benchmark_paths == 100000 and cfg.n_pairs == 100000
    assert cfg.benchmark_method == "euler"
    # exercise the full pipeline at the fine-profile step sizes on a tiny bank
    spec = desk_spec(0.75)
    bank = generate_bank(spec, 1e-4, 1e-2, 12, 12, 1)
    sine = sine_field()
    shift = solve_flow(spec, sine, 0.0, np.ones(DIM), TimeGrid(0.0, 1.0, 1e-4))
    q = QueryParams(s=0.0, t=1.0, x=np.ones(DIM), sigma_scale=1.0, radius=1.0,
                    field=sine, use_shift=True)
    p = em_benchmark(spec, q, 60, 1e-4, 5, method="euler")
    v0 = v0_estimate(bank, spec, shift, q)
    v1 = v1_estimate(bank, spec, shift, q, 1e-2, 12)
    assert 0.0 <= p.value <= 1.0 and 0.0 <= v0.value <= 1.0
    assert np.isfinite(v1.value)
    verdict(8, True,
            f"1e-4/1e5 profile accepted; pipeline exercised at 1e-4 steps "
            f"(P={p.value:.2f}, v0={v0.value:.2f}); full-size run needs more "
            f"memory than a desk box and is not required")
