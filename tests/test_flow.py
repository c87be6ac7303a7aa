import math

import numpy as np
import pytest

from levybank.core import ProblemSpec, TimeGrid
from levybank.fields import (bounded_cubic_field, custom_field, eval_field, sine_field,
                             zero_field)
from levybank.flow import bin_forcings, solve_flow


def make_spec(lambdas, horizon=1.0):
    lam = np.asarray(lambdas, dtype=float)
    return ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=lam.size, lambdas=lam,
                       sigmas=np.ones(lam.size), horizon=horizon)


GRID = TimeGrid(0.0, 1.0, 1e-3)


def flow_states(spec, field, s, x, grid=GRID):
    """The shift and the states x(t_i) at every grid time from s to the end.

    A recording hook sees them: the first of step i's four field evaluations
    is at x(t_i) and the last evaluation at x(T), the order that
    test_flow_evaluates_field_once_per_stage pins.
    """
    seen = []

    def hook(t, y):
        seen.append(np.array(y))
        return eval_field(field, t, y)

    shift = solve_flow(spec, custom_field(hook, max(field.bound, 1.0)), s, x, grid)
    return shift, np.stack(seen[::4])


def test_zero_field_is_exact_decay():
    spec = make_spec([1.0, 100.0, 1e4])
    x = np.array([0.5, -2.0, 3.0])
    got = flow_states(spec, zero_field(), 0.0, x)[1][-1]
    want = np.exp(-spec.lambdas) * x
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-300)
    # stiffest mode decays below the double floor without oscillation
    assert got[2] == 0.0


def test_stiff_sine_flow_stays_bounded():
    """lambda*h = 10: an explicit integrator would blow up within steps."""
    spec = make_spec([1.0, 100.0, 1e4])
    states = flow_states(spec, sine_field(), 0.0, np.ones(3))[1]
    assert np.isfinite(states).all()
    assert np.abs(states).max() <= 1.1


def test_constant_drift_closed_form():
    # dx = (-x + 0.7) dt from 0.2: x(1) = e^{-1} 0.2 + 0.7 (1 - e^{-1})
    spec = make_spec([1.0])
    field = custom_field(lambda t, x: np.full_like(x, 0.7), bound=0.7)
    states = flow_states(spec, field, 0.0, np.array([0.2]))[1]
    assert states[-1, 0] == pytest.approx(0.5160602794142788, rel=1e-10)


def test_sine_flow_against_fine_euler_oracle():
    # frozen reference: explicit Euler with step 1e-6 on dx = -x + sin(x)
    spec = make_spec([1.0])
    states = flow_states(spec, sine_field(), 0.0, np.array([0.3]))[1]
    assert states[-1, 0] == pytest.approx(0.2956178330532583, abs=1e-6)


def test_matches_classical_rk4_for_small_lambda():
    """The integrating-factor scheme must reduce to plain RK4 as lambda -> 0."""
    spec = make_spec([1e-6])
    x0 = 0.4
    states = flow_states(spec, sine_field(), 0.0, np.array([x0]))[1]

    def rhs(y):
        return -1e-6 * y + math.sin(y)

    y, h = x0, 1e-3
    for _ in range(1000):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert states[-1, 0] == pytest.approx(y, rel=1e-9)


def test_step_halving_self_consistency():
    spec = make_spec([1.0, 4.0])
    x = np.array([1.0, -0.5])
    coarse = flow_states(spec, sine_field(), 0.0, x)[1]
    fine = flow_states(spec, sine_field(), 0.0, x, TimeGrid(0.0, 1.0, 5e-4))[1]
    np.testing.assert_allclose(coarse[-1], fine[-1], rtol=1e-9)


def test_restart_semigroup():
    # restarted from its own state at a grid point, the flow takes the same
    # steps, so its tail and its shift repeat the first run's bit for bit
    spec = make_spec([1.0, 4.0])
    x = np.array([1.0, 0.3])
    first, states = flow_states(spec, sine_field(), 0.0, x)
    i = GRID.index_of(0.4)
    second, restarted = flow_states(spec, sine_field(), 0.4, states[i])
    np.testing.assert_allclose(restarted[-1], states[-1], rtol=1e-9)
    np.testing.assert_array_equal(restarted, states[i:])
    np.testing.assert_array_equal(second.values, first.values[i:])


def test_shift_tabulates_field_along_flow():
    spec = make_spec([1.0, 2.0])
    x = np.array([0.5, 1.0])
    states = flow_states(spec, sine_field(), 0.0, x)[1]
    shift = solve_flow(spec, sine_field(), 0.0, x, GRID)
    np.testing.assert_array_equal(shift.values, np.sin(states))
    for t in (0.0, 0.123, 0.77, 1.0):
        np.testing.assert_array_equal(shift.value_at(t), shift.values[GRID.index_of(t)])
    with pytest.raises(ValueError):
        shift.value_at(0.1234567)  # off the tabulation grid
    late = solve_flow(spec, sine_field(), 0.25, x, GRID)
    np.testing.assert_array_equal(late.value_at(0.25), np.sin(x))
    with pytest.raises(ValueError):
        late.value_at(0.2)  # before s: not tabulated


def test_flow_evaluates_field_once_per_stage():
    # The shift at t_i reuses the step's first stage, which is the field at
    # (t_i, x(t_i)); only the end point adds a call, and none is made before s.
    calls = []

    def sine(t, x):
        calls.append((t, x))
        return np.sin(x)

    spec = make_spec([1.0, 2.0])
    x = np.array([0.5, 1.0])
    field = custom_field(sine, bound=1.0)
    for s in (0.0, 0.25):
        calls.clear()
        shift = solve_flow(spec, field, s, x, GRID)
        i_s = GRID.index_of(s)
        assert len(calls) == 4 * (GRID.n_steps - i_s) + 1
        firsts = calls[::4]
        assert [t for t, _ in firsts] == list(GRID.times()[i_s:])
        np.testing.assert_array_equal(firsts[0][1], x)
        np.testing.assert_array_equal(shift.values, np.sin([y for _, y in firsts]))


def test_shift_holds_only_f_from_s():
    spec = make_spec([1.0, 2.0])
    shift = solve_flow(spec, sine_field(), 0.25, np.array([0.5, 1.0]), GRID)
    arrays = [v for v in vars(shift).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is shift.values
    assert shift.values.shape == (GRID.n_steps - GRID.index_of(0.25) + 1, 2)
    assert shift.values.dtype == np.float64 and shift.values.base is None
    assert shift.grid == TimeGrid(0.25, 1.0, GRID.step)


def test_solve_flow_validation():
    spec = make_spec([1.0])
    for field in (sine_field(), zero_field()):
        with pytest.raises(ValueError, match="step"):
            solve_flow(spec, field, 0.0, np.array([1.0]),
                       TimeGrid(0.0, 1.0, 2e-3))  # step too coarse for tabulation
        with pytest.raises(ValueError):
            solve_flow(spec, field, 0.12345, np.array([1.0]), GRID)
        with pytest.raises(ValueError, match="grid's end"):
            solve_flow(make_spec([1.0], horizon=2.0), field, 1.0, np.array([1.0]), GRID)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_flow(spec, field, 0.0, np.array([bad]), GRID)
        with pytest.raises(ValueError, match="length"):
            solve_flow(spec, field, 0.0, np.ones(2), GRID)


def test_zero_field_shift_is_the_steps_zeros():
    # the zero kind is not integrated; a zeros hook is, to the same bytes
    spec = make_spec([1.0, 100.0, 1e4])
    zeros = custom_field(lambda t, x: np.zeros_like(x), bound=1.0)
    for s, grid in ((0.0, GRID), (0.25, GRID), (0.5, TimeGrid(0.0, 0.8, 5e-4))):
        got = solve_flow(spec, zero_field(), s, np.array([0.5, -2.0, 3.0]), grid)
        want = solve_flow(spec, zeros, s, np.array([0.5, -2.0, 3.0]), grid)
        assert got.grid == want.grid
        assert got.values.dtype == want.values.dtype
        assert got.values.tobytes() == want.values.tobytes()


def test_bin_forcings_constant_shift():
    # f = 0.7 on [0.2, 1], lam=1: F = 0.7 (1 - e^{-0.8})
    spec = make_spec([1.0])
    field = custom_field(lambda t, x: np.full_like(x, 0.7), bound=0.7)
    shift = solve_flow(spec, field, 0.2, np.array([0.0]), GRID)
    got = bin_forcings(spec, shift, [0.2, 1.0])
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(0.38546972511794486, rel=1e-12)


def test_bin_forcings_splitting():
    # u = 0.47 splits [0.1, 0.9] unevenly, so the two halves are two calls
    spec = make_spec([1.0, 9.0])
    shift = solve_flow(spec, sine_field(), 0.0, np.array([1.0, -0.4]), GRID)
    s, u, t = 0.1, 0.47, 0.9
    whole = bin_forcings(spec, shift, [s, t])[0]
    split = (np.exp(-spec.lambdas * (t - u)) * bin_forcings(spec, shift, [s, u])[0]
             + bin_forcings(spec, shift, [u, t])[0])
    np.testing.assert_allclose(whole, split, rtol=1e-12)


@pytest.fixture(scope="module")
def sine_shift():
    spec = make_spec([1.0, 9.0, 1e4])
    return spec, solve_flow(spec, sine_field(), 0.0, np.array([1.0, -0.4, 2.0]), GRID)


def test_bin_forcings_rejects_uneven_nodes(sine_shift):
    # with the first bin's width for every bin, row 1 was 0.07 off F_{0.1,0.3}
    with pytest.raises(ValueError, match="evenly spaced"):
        bin_forcings(*sine_shift, [0.0, 0.1, 0.3])


def test_bin_forcings_rejects_repeated_nodes(sine_shift):
    # [0.4, 0.4] gave a row of zeros, [0.2, 0.4, 0.4] a wrong row 1
    for nodes in ([0.4, 0.4], [0.2, 0.4, 0.4]):
        with pytest.raises(ValueError, match="strictly increasing"):
            bin_forcings(*sine_shift, nodes)


def test_bin_forcings_rejects_decreasing_nodes(sine_shift):
    # [0.4, 0.2] gave a row of zeros
    for nodes in ([0.4, 0.2], [0.6, 0.4, 0.2]):
        with pytest.raises(ValueError, match="strictly increasing"):
            bin_forcings(*sine_shift, nodes)


def test_bin_forcings_rejects_too_few_or_off_grid_nodes(sine_shift):
    for nodes in ([], [0.4], [0.2, 0.4005]):
        with pytest.raises(ValueError):
            bin_forcings(*sine_shift, nodes)


@pytest.mark.parametrize("s, t, mesh", [(0.0, 1.0, 1e-2), (0.2, 1.0, 4e-2), (0.5, 0.6, 0.1)])
def test_bin_forcings_bytes_equal_per_bin(sine_shift, s, t, mesh):
    spec, shift = sine_shift
    nodes = s + mesh * np.arange(round((t - s) / mesh) + 1)
    want = np.stack([bin_forcings(spec, shift, [a, b])[0]
                     for a, b in zip(nodes[:-1], nodes[1:])])
    assert bin_forcings(spec, shift, nodes).tobytes() == want.tobytes()
