import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levybank.core import (DiagonalOperator, ProblemSpec, TimeGrid,
                           covariance_deterministic_clock, phi1,
                           squared_eigenvalues)


def make_spec(**kw):
    args = dict(alpha=0.75, gamma_bar=1.0, dim=3,
                lambdas=np.array([1.0, 4.0, 9.0]), sigmas=np.ones(3),
                horizon=1.0)
    args.update(kw)
    return ProblemSpec(**args)


def test_diagonal_operator_is_ndarray():
    assert DiagonalOperator is np.ndarray


def test_squared_eigenvalues():
    assert np.array_equal(squared_eigenvalues(5), [1.0, 4.0, 9.0, 16.0, 25.0])
    with pytest.raises(ValueError):
        squared_eigenvalues(0)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(alpha=0.5)
    with pytest.raises(ValueError):
        make_spec(alpha=1.0)
    with pytest.raises(ValueError):
        make_spec(lambdas=np.array([4.0, 1.0, 9.0]))
    with pytest.raises(ValueError):
        make_spec(lambdas=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        make_spec(sigmas=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        make_spec(horizon=0.0)
    with pytest.raises(ValueError):
        make_spec(gamma_bar=-1.0)
    with pytest.raises(ValueError):
        make_spec(sigmas=np.ones(4))


def test_content_hash_deterministic_and_sensitive():
    a, b = make_spec(), make_spec()
    assert a.content_hash() == b.content_hash()
    assert len(a.content_hash()) == 32
    assert a.content_hash() != make_spec(alpha=0.76).content_hash()
    assert a.content_hash() != make_spec(sigmas=np.full(3, 2.0)).content_hash()
    assert a.content_hash() != make_spec(horizon=2.0).content_hash()


def test_covariance_deterministic_clock_value():
    # sigma^2 (1 - e^{-2 lam tau}) / (2 lam) at lam=2, sigma=0.7, tau=0.3
    spec = make_spec(lambdas=np.array([2.0, 5.0, 9.0]),
                     sigmas=np.array([0.7, 1.0, 1.0]))
    got = covariance_deterministic_clock(spec, 0.2, 0.5)
    assert got[0] == pytest.approx(0.08560370904075523, rel=1e-14)
    # depends on the window only through its length
    np.testing.assert_allclose(got, covariance_deterministic_clock(spec, 0.0, 0.3),
                               rtol=1e-14)


def test_covariance_small_lambda_limit():
    spec = make_spec(lambdas=np.array([1e-10, 1.0, 2.0]))
    got = covariance_deterministic_clock(spec, 0.0, 0.4)
    assert got[0] == pytest.approx(0.4, rel=1e-9)


def test_phi1():
    assert phi1(1.0) == pytest.approx(0.6321205588285577, rel=1e-15)
    assert phi1(1e-12) == pytest.approx(1.0, rel=1e-9)
    np.testing.assert_allclose(phi1(np.array([1.0, 2.0])),
                               [0.6321205588285577, (1 - math.exp(-2)) / 2],
                               rtol=1e-14)


def test_time_grid_basics():
    grid = TimeGrid(0.0, 1.0, 0.25)
    assert grid.n_steps == 4
    times = grid.times()
    assert times[0] == 0.0 and times[-1] == 1.0 and len(times) == 5
    assert grid.index_of(0.5) == 2
    assert grid.index_of(0.5 * (1 + 1e-12)) == 2  # within tolerance
    with pytest.raises(ValueError):
        grid.index_of(0.3)
    with pytest.raises(ValueError):
        grid.index_of(1.25)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            grid.index_of(t)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0.3)  # step does not divide the span
    with pytest.raises(ValueError):
        TimeGrid(0.5, 0.5, 0.1)


@pytest.mark.parametrize("start,end,step", [
    (0.0, math.inf, 0.1), (-math.inf, 1.0, 0.1), (0.0, 1.0, math.inf),
    (0.0, 1.0, math.nan), (math.nan, 1.0, 0.1), (0.0, 1.0, 1e-310)])
def test_time_grid_rejects_non_finite(start, end, step):
    with pytest.raises(ValueError):
        TimeGrid(start, end, step)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 400), i=st.integers(0, 400))
def test_time_grid_index_roundtrip(n, i):
    i = min(i, n)
    grid = TimeGrid(0.0, 1.0, 1.0 / n)
    assert grid.index_of(grid.times()[i]) == i
