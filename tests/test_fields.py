import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from levybank.fields import (TANH_EXACT, bounded_cubic_field, custom_field, eval_field,
                             sine_field, soft_abs, soft_max, zero_field)


def test_soft_max_values():
    # equal entries: exact mean
    assert soft_max(np.array([0.7, 0.7, 0.7]), 1e4) == pytest.approx(0.7, rel=1e-15)
    # a=1, x=(0,1): e/(1+e)
    assert soft_max(np.array([0.0, 1.0]), 1.0) == pytest.approx(
        0.7310585786300049, rel=1e-14)
    # large sharpness approaches the max
    assert soft_max(np.array([-0.3, 0.2, 1.1]), 1e4) == pytest.approx(1.1, rel=1e-12)
    # stays finite where naive exp overflows
    assert np.isfinite(soft_max(np.array([500.0, 900.0]), 1e4))


def plain_soft_max(x, a):
    """The max-shifted formula with exp over every entry."""
    w = np.exp(a * (x - x.max(axis=-1, keepdims=True)))
    return (x * w).sum(axis=-1) / w.sum(axis=-1)


@pytest.mark.parametrize("a", [1.0, 1e4])
@pytest.mark.parametrize("shape", [(7,), (40, 100), (3, 5, 100)])
def test_soft_max_bitwise_equals_plain_formula(a, shape):
    # soft_max skips the exponentials that underflow to +0.0; no bit may move.
    def same_bits(x):
        got = np.asarray(soft_max(x, a), dtype=float)
        assert got.tobytes() == np.asarray(plain_soft_max(x, a)).tobytes()

    rng = np.random.default_rng(2024)
    for scale in (1e-3, 0.3, 5.0):
        same_bits(rng.normal(0.0, scale, shape))
        same_bits(np.abs(rng.normal(0.0, scale, shape)))
    same_bits(np.full(shape, 0.37))                     # all-equal rows
    # exponents a (x - max) straddling the underflow threshold near -745.13
    z = np.array([0.0, -744.9, -745.1, -745.13, -745.14, -745.2, -749.9, -750.0, -750.1])
    same_bits(np.resize(z / a, shape))
    same_bits(np.resize(z[::-1] / a + 0.25, shape))


def test_soft_abs_values():
    assert soft_abs(0.5, 2.0) == pytest.approx(0.3807970779778824, rel=1e-14)
    assert soft_abs(0.0, 1e4) == 0.0
    np.testing.assert_allclose(soft_abs(np.array([-2.0, 3.0]), 1e4), [2.0, 3.0],
                               rtol=1e-12)


def test_tanh_saturates_below_soft_abs_cutoff():
    # soft_abs takes |x| where |a*x| >= TANH_EXACT, which is x*tanh(a*x) only
    # if tanh is exactly +-1 there: on this numpy it is from 18.99 on.
    v = np.concatenate([np.linspace(TANH_EXACT, 2 * TANH_EXACT, 10**6),
                        np.logspace(np.log10(TANH_EXACT), 308, 10**5), [np.inf]])
    assert np.all(np.tanh(v) == 1.0) and np.all(np.tanh(-v) == -1.0)
    assert np.all(np.tanh(v[::3]) == 1.0)   # strided, as well as contiguous


def plain_cubic(field, x):
    """The bounded cubic written out with tanh over every entry."""
    d = field.y_bar - x
    a = field.sharpness
    denom = field.bound + plain_soft_max(d * np.tanh(a * d), a) ** 3
    return field.bound * d * np.abs(d) ** 2 / np.expand_dims(np.asarray(denom), -1)


@pytest.mark.parametrize("a", [1.0, 50.0, 1e4, 1e5])
@pytest.mark.parametrize("shape", [(7,), (40, 100), (3, 5, 100)])
def test_soft_abs_and_cubic_bitwise_equal_plain_formula(a, shape):
    rng = np.random.default_rng(99)
    y_bar = rng.normal(0.0, 2.0, shape[-1])
    field = bounded_cubic_field(2.0, y_bar, a)
    edge = TANH_EXACT / a   # |a*d| straddling the cutoff, and ties
    straddle = np.array([edge, -edge, np.nextafter(edge, 0.0), -np.nextafter(edge, 0.0),
                         np.nextafter(edge, 1.0), 0.0, -0.0])
    for d in (rng.normal(0.0, 1.0, shape), rng.normal(0.0, 3.0 / a, shape),
              np.resize(straddle, shape), np.full(shape, edge)):
        assert soft_abs(d, a).tobytes() == (d * np.tanh(a * d)).tobytes()
        x = y_bar - d
        assert eval_field(field, 0.0, x).tobytes() == plain_cubic(field, x).tobytes()


def test_sine_field():
    field = sine_field()
    assert field.kind == "sine" and field.bound == 1.0
    x = np.array([[0.1, -2.0], [3.0, 0.0]])
    np.testing.assert_array_equal(eval_field(field, 0.3, x), np.sin(x))


def test_zero_field():
    field = zero_field()
    assert field.bound == 0.0
    out = eval_field(field, 0.0, np.random.default_rng(0).normal(size=(4, 3)))
    assert np.array_equal(out, np.zeros((4, 3)))


def test_bounded_cubic_fixed_points():
    ybar = np.full(5, 2.0)
    field = bounded_cubic_field(2.0, ybar, 1e4)
    assert field.bound == pytest.approx(4.0)
    # at x = ybar the numerator vanishes identically
    np.testing.assert_array_equal(eval_field(field, 0.0, ybar), np.zeros(5))
    # at x = e (all ones): cap*1/(cap + 1) = 4/5 per coordinate
    got = eval_field(field, 0.0, np.ones(5))
    np.testing.assert_allclose(got, np.full(5, 0.8), rtol=1e-12)


def test_bounded_cubic_points_toward_target():
    field = bounded_cubic_field(2.0, np.full(3, 2.0), 100.0)
    x = np.array([-1.0, 2.0, 5.0])
    out = eval_field(field, 0.0, x)
    assert out[0] > 0.0 and out[1] == 0.0 and out[2] < 0.0


@settings(max_examples=100, deadline=None)
@given(x=arrays(float, 4, elements=st.floats(-50, 50)))
def test_bounded_cubic_bound_property(x):
    field = bounded_cubic_field(2.0, np.full(4, 2.0), 1e4)
    out = eval_field(field, 0.0, x)
    assert np.all(np.abs(out) <= field.bound * (1 + 1e-12))


def test_batch_matches_loop():
    field = bounded_cubic_field(1.5, np.array([2.0, -1.0, 0.5]), 50.0)
    xs = np.random.default_rng(3).normal(size=(6, 3), scale=3.0)
    batch = eval_field(field, 0.2, xs)
    rows = np.stack([eval_field(field, 0.2, row) for row in xs])
    np.testing.assert_array_equal(batch, rows)


def test_custom_field_passthrough():
    field = custom_field(lambda t, x: t * x, bound=10.0)
    x = np.array([1.0, -2.0])
    np.testing.assert_array_equal(eval_field(field, 0.5, x), 0.5 * x)
    assert field.bound == 10.0


def test_field_spec_validation():
    with pytest.raises(ValueError):
        bounded_cubic_field(-1.0, np.ones(2), 10.0)
    with pytest.raises(ValueError):
        bounded_cubic_field(1.0, np.ones(2), 0.0)
    with pytest.raises(ValueError):
        custom_field(None, bound=1.0)
