import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import levybank.stable
from levybank.stable import (increment_scale, kanter_draws, kanter_transform,
                             laplace_exponent, sample_stable_increment, validate_sampler)


def rng_of(seed):
    return np.random.Generator(np.random.PCG64(seed))


def standard_one_sided(alpha, rng, size):
    """Kanter draws with E[exp(-lam*S)] = exp(-lam^alpha): scale 1."""
    u, e = np.empty(size), np.empty(size)
    kanter_draws(rng, u, e)
    return kanter_transform(alpha, 1.0, u, e, np.empty(size), np.empty(size))


def test_laplace_exponent_values():
    # lam^alpha gamma^alpha / cos(pi alpha / 2)
    assert laplace_exponent(0.75, 1.0, 1.0) == pytest.approx(
        2.6131259297527527, rel=1e-14)
    assert laplace_exponent(0.75, 2.0, 1.0) == pytest.approx(
        2 ** 0.75 * 2.6131259297527527, rel=1e-14)
    assert laplace_exponent(0.55, 1.0, 0.0) == 0.0


def test_increment_scale_values():
    assert increment_scale(0.75, 1.0, 1e-3) == pytest.approx(
        0.0003599264690303996, rel=1e-14)
    # linear in gamma_bar, dt^{1/alpha} scaling
    assert increment_scale(0.75, 3.0, 1e-3) == pytest.approx(
        3 * increment_scale(0.75, 1.0, 1e-3), rel=1e-14)
    assert increment_scale(0.5, 1.0, 0.25) == pytest.approx(
        0.25 ** 2 * increment_scale(0.5, 1.0, 1.0), rel=1e-14)


def test_unit_sampler_laplace_pins():
    """Kanter construction: E[exp(-lam S)] = exp(-lam^alpha)."""
    pins = [(0.55, 1.0, 0.36787944117144233),
            (0.75, 1.0, 0.36787944117144233),
            (0.75, 2.0, 0.18604013843591524),
            (0.85, 0.5, 0.574195851569996)]
    n = 200000
    for alpha, lam, want in pins:
        s = standard_one_sided(alpha, rng_of(1234), n)
        emp = np.exp(-lam * s)
        se = emp.std(ddof=1) / math.sqrt(n)
        assert abs(emp.mean() - want) <= 4 * se, (alpha, lam)


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def test_draws_golden_bitwise():
    """The draws, bit for bit, as recorded (numpy 2.4, x86-64) when the
    Kanter formula was one expression on freshly allocated arrays."""
    pins = [(0.55, 1, "1ade70642391dba80747fedbbc63e1757b4fa9b5bc3fef7027924f0c35d32788"),
            (0.85, 2, "00f84a6f4309685f95a833cc49fcbf73272b693b12b22169452afccfc38c37e7")]
    for alpha, seed, want in pins:
        assert digest(sample_stable_increment(alpha, 1.0, 1e-3, rng_of(seed), size=1000)) == want
    assert sample_stable_increment(0.75, 1.0, 1e-3, rng_of(3), size=1)[0] == \
        0.00023494756603336227
    assert digest(standard_one_sided(0.65, rng_of(4), 500)) == \
        "f057603552d6c634f77a629a34f51e90c5c6e5022ee4bfdefbcac9efba2170de"


def test_kanter_transform_of_a_block_is_its_rows():
    """One transform over a block of paths, each drawn from its own stream, gives
    row for row the bits of sampling each path alone; the draws are the
    stream's uniform(0, pi) values, then its exponentials."""
    n, scale = 300, increment_scale(0.65, 1.0, 1e-3)
    u, e = np.empty((5, n)), np.empty((5, n))
    for i in range(5):
        kanter_draws(rng_of(40 + i), u[i], e[i])
        rng = rng_of(40 + i)
        assert np.array_equal(u[i], rng.uniform(0.0, math.pi, n))
        assert np.array_equal(e[i], rng.standard_exponential(n))
    block = kanter_transform(0.65, scale, u, e, np.empty((5, n)), np.empty((5, n)))
    rows = [sample_stable_increment(0.65, 1.0, 1e-3, rng_of(40 + i), size=n) for i in range(5)]
    assert np.array_equal(block, np.stack(rows))


def test_increment_laplace_full():
    """Full increments: E[exp(-lam L_1)] = exp(-gamma^a lam^a / cos(pi a/2))."""
    n = 100000
    draws = sample_stable_increment(0.75, 1.0, 1.0, rng_of(7), size=n)
    emp = np.exp(-draws)
    se = emp.std(ddof=1) / math.sqrt(n)
    assert abs(emp.mean() - 0.07330503883986966) <= 4 * se


def test_dt_additivity_in_law():
    """Sum of 10 dt=0.1 increments must match one dt=1 increment in law."""
    n = 20000
    parts = sample_stable_increment(0.65, 1.0, 0.1, rng_of(3), size=n * 10)
    whole = sample_stable_increment(0.65, 1.0, 1.0, rng_of(4), size=n)
    assert ks_2samp(parts.reshape(n, 10).sum(axis=1), whole).pvalue > 0.01


def test_gamma_bar_exact_ratio():
    a = sample_stable_increment(0.75, 1.0, 0.5, rng_of(11), size=1000)
    b = sample_stable_increment(0.75, 2.0, 0.5, rng_of(11), size=1000)
    np.testing.assert_array_equal(2.0 * a, b)


def test_positivity():
    draws = sample_stable_increment(0.55, 1.0, 1e-3, rng_of(5), size=1000000)
    assert draws.min() > 0.0
    assert np.isfinite(draws).all()


def test_increment_rank_independence():
    """Rank correlation of consecutive increments stays near zero.

    Plain autocorrelation is useless here (infinite variance), ranks are not.
    """
    draws = sample_stable_increment(0.65, 1.0, 1e-3, rng_of(21), size=100001)
    ranks = np.argsort(np.argsort(draws)).astype(float)
    corr = np.corrcoef(ranks[:-1], ranks[1:])[0, 1]
    assert abs(corr) < 0.02


def test_validate_sampler_clean_run():
    rows = validate_sampler(0.75, 1.0, 50000, [0.0, 0.5, 1.0, 2.0], seed=0)
    assert len(rows) == 4
    zero = rows[0]
    assert zero.empirical == 1.0 and zero.analytic == 1.0
    assert zero.std_error == 0.0 and not zero.flagged
    for row in rows[1:]:
        assert not row.flagged
        assert abs(row.empirical - row.analytic) <= 3 * row.std_error


def test_validate_sampler_negative_control(monkeypatch):
    """A 2% distortion of the analytic value must be flagged."""
    def wrong(alpha, gamma_bar, lam):
        return laplace_exponent(alpha, gamma_bar, lam) - math.log(1.02)

    monkeypatch.setattr(levybank.stable, "laplace_exponent", wrong)
    rows = validate_sampler(0.75, 1.0, 50000, [0.5], seed=0)
    assert rows[0].analytic == pytest.approx(1.02 * math.exp(-laplace_exponent(0.75, 1.0, 0.5)))
    assert rows[0].flagged


def test_validate_sampler_rejects_tiny_n():
    with pytest.raises(ValueError):
        validate_sampler(0.75, 1.0, 100, [1.0])


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.51, 0.99), dt=st.floats(1e-4, 1.0),
       seed=st.integers(0, 2 ** 32))
def test_increment_determinism(alpha, dt, seed):
    a = sample_stable_increment(alpha, 1.0, dt, rng_of(seed), size=8)
    b = sample_stable_increment(alpha, 1.0, dt, rng_of(seed), size=8)
    np.testing.assert_array_equal(a, b)
    assert (a > 0).all()
