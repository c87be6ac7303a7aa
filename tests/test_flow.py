import math

import numpy as np
import pytest

from levybank.core import ProblemSpec, TimeGrid
from levybank.fields import (bounded_cubic_field, custom_field, eval_field, sine_field,
                             zero_field)
from levybank.flow import bin_forcings, forcing_convolution, solve_flow


def make_spec(lambdas, horizon=1.0):
    lam = np.asarray(lambdas, dtype=float)
    return ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=lam.size, lambdas=lam,
                       sigmas=np.ones(lam.size), horizon=horizon)


GRID = TimeGrid(0.0, 1.0, 1e-3)


def test_zero_field_is_exact_decay():
    spec = make_spec([1.0, 100.0, 1e4])
    x = np.array([0.5, -2.0, 3.0])
    shift = solve_flow(spec, zero_field(), 0.0, x, GRID)
    got = shift.flow_at(1.0)
    want = np.exp(-spec.lambdas) * x
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-300)
    # stiffest mode decays below the double floor without oscillation
    assert got[2] == 0.0


def test_stiff_sine_flow_stays_bounded():
    """lambda*h = 10: an explicit integrator would blow up within steps."""
    spec = make_spec([1.0, 100.0, 1e4])
    shift = solve_flow(spec, sine_field(), 0.0, np.ones(3), GRID)
    assert np.isfinite(shift.flow_values).all()
    assert np.abs(shift.flow_values).max() <= 1.1


def test_constant_drift_closed_form():
    # dx = (-x + 0.7) dt from 0.2: x(1) = e^{-1} 0.2 + 0.7 (1 - e^{-1})
    spec = make_spec([1.0])
    field = custom_field(lambda t, x: np.full_like(x, 0.7), bound=0.7)
    shift = solve_flow(spec, field, 0.0, np.array([0.2]), GRID)
    assert shift.flow_at(1.0)[0] == pytest.approx(0.5160602794142788, rel=1e-10)


def test_sine_flow_against_fine_euler_oracle():
    # frozen reference: explicit Euler with step 1e-6 on dx = -x + sin(x)
    spec = make_spec([1.0])
    shift = solve_flow(spec, sine_field(), 0.0, np.array([0.3]), GRID)
    assert shift.flow_at(1.0)[0] == pytest.approx(0.2956178330532583, abs=1e-6)


def test_matches_classical_rk4_for_small_lambda():
    """The integrating-factor scheme must reduce to plain RK4 as lambda -> 0."""
    spec = make_spec([1e-6])
    x0 = 0.4
    shift = solve_flow(spec, sine_field(), 0.0, np.array([x0]), GRID)

    def rhs(y):
        return -1e-6 * y + math.sin(y)

    y, h = x0, 1e-3
    for _ in range(1000):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert shift.flow_at(1.0)[0] == pytest.approx(y, rel=1e-9)


def test_step_halving_self_consistency():
    spec = make_spec([1.0, 4.0])
    x = np.array([1.0, -0.5])
    coarse = solve_flow(spec, sine_field(), 0.0, x, GRID)
    fine = solve_flow(spec, sine_field(), 0.0, x, TimeGrid(0.0, 1.0, 5e-4))
    np.testing.assert_allclose(coarse.flow_at(1.0), fine.flow_at(1.0), rtol=1e-9)


def test_restart_semigroup():
    spec = make_spec([1.0, 4.0])
    x = np.array([1.0, 0.3])
    first = solve_flow(spec, sine_field(), 0.0, x, GRID)
    second = solve_flow(spec, sine_field(), 0.4, first.flow_at(0.4), GRID)
    np.testing.assert_allclose(second.flow_at(1.0), first.flow_at(1.0), rtol=1e-9)
    # before its start the flow holds the initial point
    np.testing.assert_array_equal(second.flow_at(0.2), first.flow_at(0.4))


def test_shift_tabulates_field_along_flow():
    spec = make_spec([1.0, 2.0])
    shift = solve_flow(spec, sine_field(), 0.0, np.array([0.5, 1.0]), GRID)
    for t in (0.0, 0.123, 0.77, 1.0):
        np.testing.assert_array_equal(shift.value_at(t),
                                      np.sin(shift.flow_at(t)))
    with pytest.raises(ValueError):
        shift.value_at(0.1234567)  # off the tabulation grid


def test_flow_evaluates_field_once_per_stage():
    # The shift at t_i reuses the step's first stage, which is the field at
    # (t_i, x(t_i)); only frozen points before s and the end point add calls.
    calls = []

    def sine(t, x):
        calls.append(t)
        return np.sin(x)

    spec = make_spec([1.0, 2.0])
    x = np.array([0.5, 1.0])
    field = custom_field(sine, bound=1.0)
    shift = solve_flow(spec, field, 0.0, x, GRID)
    assert len(calls) == 4 * GRID.n_steps + 1
    for t in (0.0, 0.5, 1.0):
        np.testing.assert_array_equal(shift.value_at(t), np.sin(shift.flow_at(t)))
    calls.clear()
    solve_flow(spec, field, 0.25, x, GRID, method="euler")
    assert len(calls) == GRID.n_steps + 1


@pytest.mark.parametrize("field", [zero_field(), sine_field(),
                                   bounded_cubic_field(2.0, np.full(2, 2.0), 1e4)],
                         ids=["zero", "sine", "cubic"])
def test_frozen_prefix_bytes_equal_per_time_loop(field):
    # A built-in field does not depend on t, so the frozen points before s
    # share one evaluation; they must hold the bits of one call per time.
    spec = make_spec([1.0, 2.0])
    x = np.array([0.5, 1.0])
    shift = solve_flow(spec, field, 0.5, x, GRID)
    i_s = GRID.index_of(0.5)
    want = np.stack([eval_field(field, t, x) for t in GRID.times()[:i_s]])
    assert shift.values[:i_s].tobytes() == want.tobytes()


def test_solve_flow_validation():
    spec = make_spec([1.0])
    with pytest.raises(ValueError):
        solve_flow(spec, sine_field(), 0.0, np.array([1.0]),
                   TimeGrid(0.0, 1.0, 2e-3))  # step too coarse for tabulation
    with pytest.raises(ValueError):
        solve_flow(spec, sine_field(), 0.12345, np.array([1.0]), GRID)
    with pytest.raises(ValueError):
        solve_flow(spec, sine_field(), 0.0, np.array([1.0]), GRID,
                   method="rk4_explicit")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            solve_flow(spec, sine_field(), 0.0, np.array([bad]), GRID)


def test_euler_mode_close_but_distinct():
    spec = make_spec([1.0])
    x = np.array([0.3])
    rk = solve_flow(spec, sine_field(), 0.0, x, GRID)
    eu = solve_flow(spec, sine_field(), 0.0, x, GRID, method="euler")
    assert rk.flow_at(1.0)[0] != eu.flow_at(1.0)[0]
    assert abs(rk.flow_at(1.0)[0] - eu.flow_at(1.0)[0]) < 5e-3


def test_forcing_convolution_constant_shift():
    # f = 0.7 on [0.2, 1], lam=1: F = 0.7 (1 - e^{-0.8})
    spec = make_spec([1.0])
    field = custom_field(lambda t, x: np.full_like(x, 0.7), bound=0.7)
    shift = solve_flow(spec, field, 0.2, np.array([0.0]), GRID)
    got = forcing_convolution(spec, shift, 0.2, 1.0)
    assert got[0] == pytest.approx(0.38546972511794486, rel=1e-12)


def test_forcing_convolution_splitting():
    spec = make_spec([1.0, 9.0])
    shift = solve_flow(spec, sine_field(), 0.0, np.array([1.0, -0.4]), GRID)
    s, u, t = 0.1, 0.47, 0.9
    whole = forcing_convolution(spec, shift, s, t)
    split = (np.exp(-spec.lambdas * (t - u)) * forcing_convolution(spec, shift, s, u)
             + forcing_convolution(spec, shift, u, t))
    np.testing.assert_allclose(whole, split, rtol=1e-12)


def test_forcing_convolution_degenerate():
    spec = make_spec([1.0])
    shift = solve_flow(spec, sine_field(), 0.0, np.array([1.0]), GRID)
    with pytest.raises(ValueError):
        forcing_convolution(spec, shift, 0.4, 0.4)
    assert np.array_equal(forcing_convolution(spec, None, 0.0, 1.0), np.zeros(1))


@pytest.mark.parametrize("s, t, mesh", [(0.0, 1.0, 1e-2), (0.2, 1.0, 4e-2), (0.5, 0.6, 0.1)])
def test_bin_forcings_bytes_equal_per_bin(s, t, mesh):
    spec = make_spec([1.0, 9.0, 1e4])
    shift = solve_flow(spec, sine_field(), 0.0, np.array([1.0, -0.4, 2.0]), GRID)
    nodes = s + mesh * np.arange(round((t - s) / mesh) + 1)
    want = np.stack([forcing_convolution(spec, shift, a, b)
                     for a, b in zip(nodes[:-1], nodes[1:])])
    assert bin_forcings(spec, shift, nodes).tobytes() == want.tobytes()
