"""Golden values for the bank, the shift flow, the estimators and the reference.

The constants were recorded on the shared small bank of conftest.py (dim 3,
400 + 400 records, seed 99) with numpy 2.4 on x86-64.  The shift values of
the flow digest date from before the iterate estimators were merged into one
simplex kernel; the bank digest and the estimator values were re-recorded when
bank format 2 switched the checkpoints to one normal per block (a new random
stream, so a deliberate change: every moved value stayed within 4 combined
standard errors of its format-1 value).  They pin that refactors keep every
value:

* the bank bytes, the shift values and the gradient bitwise, and v0 with
  the shift and the forcing F_{s,t} it reads bitwise, recorded when F_{s,t}
  had a function of its own rather than being bin_forcings' one bin;
* vn at orders 2 and 3 within 1e-12 relative, because a different walk over
  the simplex may sum the same terms in a different order; and, recorded
  before the kernel streamed its clocks and built each interval once, the
  number of drift calls at order 1 and of state rows the drift sees at
  orders 2 and 3 (one call of 120 rows each until the kernel walked its
  innermost level in blocks of nodes, which makes fewer, larger calls);
* v1, and vn at orders 2 and 3, bitwise as the kernel computes them since it
  contracts each mesh bin's clock increments with sigma^2-scaled weights
  through BLAS matrix products, and within 1e-12 relative as they were when
  it contracted unit weights with einsum and scaled by sigma^2 afterwards
  (they moved by at most 7e-16 relative);
* the Euler-Maruyama reference bitwise: its (value, std_error) and a digest of
  every state its drift sees, recorded before the reference drew its noise on
  a helper thread, whatever the chunk size (the zero field's values were
  recorded before it went back to drawing on the calling thread).

A numpy release that changes the summation order of einsum or of reductions
would move the bitwise constants; re-record them from a tree whose values are
otherwise trusted.  The bank digest and the bitwise v1 and vn values also
depend on the BLAS build (they were recorded with OpenBLAS 0.3.31), because
the bank and the kernel form their clock contractions as matrix products;
the BLAS thread count does not move them.
"""

from __future__ import annotations

import gc
import hashlib
import sys
import threading

import levybank.estimators as estimators

import numpy as np
import pytest

from levybank.core import TimeGrid
from levybank.estimators import (QueryParams, em_benchmark_series, ou_gradient,
                                 v0_estimate, v1_estimate, vn_estimate)
from levybank.fields import bounded_cubic_field, custom_field, sine_field, zero_field
from levybank.flow import bin_forcings, solve_flow

X = np.array([0.5, -0.3, 0.2])
GRID = TimeGrid(0.0, 1.0, 1e-3)
SINE = sine_field()
CUBIC = bounded_cubic_field(2.0, np.full(3, 2.0), 10.0)

BANK_SHA256 = "38249e5d85c7f40d3dfd9509a827a9f7b4e59934b78937cdca9c5dea2c71f672"
# integrator -> sha256 of the shift's values from s on, recorded when the
# shift still kept its frozen values before s and the flow itself (as the
# digest of values[i_s:]); exp_rk4 is the integrating-factor RK4 flow
FLOW_SHA256 = {
    "exp_rk4": "f8a76ca5a84bcf31748127028e0c8884dcc59a3ad7e42e79925f0e444ac67405",
}
# (field, t) -> (value, std_error) of v0 with the shift, over all 400 records
# sha256 over F_{0.2,t} of those four cases, in that order
V0_FORCING_SHA256 = "ae2b2a03024f2e66b20e9d2210b5659abde4e0c3e69613adb423e0ae844ef24e"
V0 = {
    ("sine", 0.5): (0.2875, 0.02265817417937414),
    ("sine", 1.0): (0.44, 0.024850429767895824),
    ("cubic", 0.5): (0.475, 0.024999999999999998),
    ("cubic", 1.0): (0.6125, 0.024389475009275418),
}
# (use_shift, seed) -> (value, std_error) of v1 at mesh 1e-2 on 300 pairs
V1 = {
    (False, None): (0.14668507124088231, 0.034415217396522174),
    (False, 5): (0.12288640893805727, 0.03585629447102196),
    (True, None): (0.10842402252843779, 0.029229498887143712),
    (True, 5): (0.1012654484242058, 0.03288001416118089),
}
# (order, mesh, field, use_shift, seed, value, std_error) of vn on 120 tuples
VN = [
    (2, 2e-2, SINE, False, None, 0.029573116797905585, 0.026508534844920238),
    (2, 4e-2, CUBIC, True, 7, -0.03147497201828974, 0.05926299918508199),
    (3, 0.1, SINE, True, None, -0.0006006637168993412, 0.009821172555430423),
    (3, 0.1, CUBIC, False, 3, -0.03995544727860638, 0.292580832137836),
]
# (order, seed) -> (value, std_error) of vn on 120 tuples with the shift: order 2
# with the sine at mesh 4e-2, order 3 with CUBIC at mesh 0.1
VN_BITWISE = {
    (2, None): (0.05624543731321356, 0.039409657228494856),
    (2, 5): (-0.032430438459042255, 0.03439705779424018),
    (3, None): (0.08753258508088534, 0.07284327111617038),
    (3, 5): (0.04300695580609125, 0.066400417799075),
}
# V1 and VN_BITWISE as recorded before the kernel put sigma^2 into its bin
# weights and contracted them through BLAS (VN_BITWISE: also before it built
# each interval once)
V1_EINSUM = {
    (False, None): (0.14668507124088231, 0.034415217396522174),
    (False, 5): (0.1228864089380573, 0.03585629447102196),
    (True, None): (0.10842402252843779, 0.029229498887143712),
    (True, 5): (0.1012654484242058, 0.032880014161180894),
}
VN_EINSUM = {
    (2, None): (0.05624543731321354, 0.03940965722849484),
    (2, 5): (-0.032430438459042234, 0.03439705779424018),
    (3, None): (0.08753258508088532, 0.0728432711161704),
    (3, 5): (0.04300695580609126, 0.06640041779907499),
}
VN_BITWISE_SETUP = {2: (4e-2, SINE), 3: (0.1, CUBIC)}
# order -> (mesh, drift calls at order 1, else state rows) of the same walk on
# 120 tuples with the sine
DRIFT_CALLS = {1: (1e-2, 80), 2: (4e-2, 209 * 120), 3: (0.1, 118 * 120)}
GRADIENT = (0.05807740335188382, 0.0151811524588853)
# (field, method) -> (value, std_error) at t = 0.5 and 1.0 of em_benchmark_series
# on 300 paths, step 1e-2, seed 17; the cubic is CUBIC at sharpness 1e4
EM = {
    ("sine", "exp"): [(0.3433333333333333, 0.027459642357098978),
                      (0.52, 0.028892604740584603)],
    ("sine", "euler"): [(0.35, 0.02758386421836852), (0.52, 0.028892604740584603)],
    ("cubic", "exp"): [(0.3566666666666667, 0.02770216390105995),
                       (0.5266666666666666, 0.02887459269508958)],
    ("cubic", "euler"): [(0.36666666666666664, 0.027868673283383865),
                         (0.53, 0.02886365132641704)],
    ("zero", "exp"): [(0.2633333333333333, 0.025471401031969185),
                      (0.36666666666666664, 0.027868673283383865)],
    ("zero", "euler"): [(0.2633333333333333, 0.025471401031969185),
                        (0.37, 0.027921294063982024)],
}
# sha256 over (t, state) at every drift call of the same sine reference
EM_STATES_SHA256 = {
    "exp": "e62de9bc7e4b7754f35e3d752a56be2ceaf213376f6da905a620119716628829",
    "euler": "cc0bcbb496dbc5448d1090d04c2840559d8a163002b47b8b68da99bbe1db145c",
}
EM_FIELDS = {"sine": SINE, "cubic": bounded_cubic_field(2.0, np.full(3, 2.0), 1e4),
             "zero": zero_field()}


def query(field, use_shift: bool) -> QueryParams:
    return QueryParams(s=0.2, t=1.0, x=X, sigma_scale=0.7, radius=1.0,
                       field=field, use_shift=use_shift)


def em_series(spec, field, method):
    est = em_benchmark_series(spec, query(field, False), [0.5, 1.0], 300, 1e-2, 17,
                              method=method)
    return [(e.value, e.std_error) for e in est]


def em_states_digest(spec, method):
    """Digest of every (t, state) the sine drift sees, and the reference's values."""
    digest = hashlib.sha256()

    def sine(t, x):
        digest.update(np.float64(t).tobytes() + np.ascontiguousarray(x).tobytes())
        return np.sin(x)

    values = em_series(spec, custom_field(sine, 1.0), method)
    return digest.hexdigest(), values


def test_bank_bytes_golden(bank3):
    digest = hashlib.sha256()
    for arr in (bank3.sub_values, bank3.record_clock_values, bank3.record_checkpoints):
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == BANK_SHA256


@pytest.mark.parametrize("scheme", sorted(FLOW_SHA256))
def test_flow_golden(spec3, scheme):
    shift = solve_flow(spec3, SINE, 0.2, X, GRID)
    assert hashlib.sha256(shift.values.tobytes()).hexdigest() == FLOW_SHA256[scheme]


def test_v0_golden_bitwise(spec3, bank3):
    forcing = hashlib.sha256()
    for name, field in (("sine", SINE), ("cubic", CUBIC)):
        shift = solve_flow(spec3, field, 0.2, X, GRID)
        for t in (0.5, 1.0):
            q = QueryParams(s=0.2, t=t, x=X, sigma_scale=0.7, radius=1.0, field=field)
            est = v0_estimate(bank3, spec3, shift, q)
            assert (est.value, est.std_error) == V0[name, t], (name, t)
            forcing.update(bin_forcings(spec3, shift, [0.2, t])[0].tobytes())
    assert forcing.hexdigest() == V0_FORCING_SHA256


def test_v1_golden_bitwise(spec3, bank3):
    shift = solve_flow(spec3, SINE, 0.2, X, GRID)
    for (use_shift, seed), want in V1.items():
        est = v1_estimate(bank3, spec3, shift, query(SINE, use_shift), 1e-2, 300, seed=seed)
        assert (est.value, est.std_error) == want, (use_shift, seed)


def test_iterates_match_einsum_goldens(spec3, bank3):
    # Moving sigma^2 into the weights and the contraction onto BLAS changes
    # the rounding only; dropping sigma^2 or applying it twice moves every value.
    def close(est, want):
        assert est.value == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(want[1], rel=1e-12, abs=0.0)

    shift = solve_flow(spec3, SINE, 0.2, X, GRID)
    for (use_shift, seed), want in V1_EINSUM.items():
        close(v1_estimate(bank3, spec3, shift, query(SINE, use_shift), 1e-2, 300,
                          seed=seed), want)
    for (order, seed), want in VN_EINSUM.items():
        mesh, field = VN_BITWISE_SETUP[order]
        shift = solve_flow(spec3, field, 0.2, X, GRID)
        close(vn_estimate(bank3, spec3, shift, query(field, True), order, mesh, 120,
                          seed=seed), want)


def test_vn_golden(spec3, bank3):
    for order, mesh, field, use_shift, seed, value, se in VN:
        shift = solve_flow(spec3, field, 0.2, X, GRID) if use_shift else None
        est = vn_estimate(bank3, spec3, shift, query(field, use_shift), order, mesh,
                          120, seed=seed)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("order", [2, 3])
def test_vn_golden_bitwise(spec3, bank3, order):
    mesh, field = VN_BITWISE_SETUP[order]
    shift = solve_flow(spec3, field, 0.2, X, GRID)
    for seed in (None, 5):
        est = vn_estimate(bank3, spec3, shift, query(field, True), order, mesh, 120, seed=seed)
        assert (est.value, est.std_error) == VN_BITWISE[order, seed], seed


@pytest.mark.parametrize("order", sorted(DRIFT_CALLS))
def test_iterate_drift_call_count(spec3, bank3, order):
    # The walk evaluates the drift once per node and once per pushed state.
    # From order 2 on one call takes the states pushed from a block of nodes,
    # so there the rows are counted.
    rows = []

    def sine(t, x):
        rows.append(x.size // x.shape[-1])
        return np.sin(x)

    mesh, want = DRIFT_CALLS[order]
    shift = solve_flow(spec3, SINE, 0.2, X, GRID)
    q = query(custom_field(sine, 1.0), True)
    if order == 1:
        v1_estimate(bank3, spec3, shift, q, mesh, 120)
    else:
        vn_estimate(bank3, spec3, shift, q, order, mesh, 120)
    assert (len(rows) if order == 1 else sum(rows)) == want


def test_gradient_golden_bitwise(spec3, bank3):
    shift = solve_flow(spec3, SINE, 0.2, X, GRID)
    est = ou_gradient(bank3, spec3, shift, query(SINE, True), np.array([0.6, -0.8, 0.0]))
    assert (est.value, est.std_error) == GRADIENT


def test_vn_leaves_no_reference_cycle(spec3, bank3):
    # Everything vn_estimate allocates must be freed by reference counting
    # alone; a cycle would keep the arrays alive until the collector runs.
    gc.collect()
    gc.disable()
    try:
        vn_estimate(bank3, spec3, None, query(SINE, False), 2, 0.1, 50)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


@pytest.mark.parametrize("method", ["exp", "euler"])
def test_em_benchmark_golden_bitwise(spec3, method):
    for name, field in EM_FIELDS.items():
        assert em_series(spec3, field, method) == EM[name, method], name
    assert em_states_digest(spec3, method) == (EM_STATES_SHA256[method], EM["sine", method])


@pytest.mark.parametrize("chunk_steps", [1, 7, 80, 1000])
def test_em_benchmark_independent_of_chunk_size(spec3, monkeypatch, chunk_steps):
    # 80 steps: one step per chunk, chunks of 7 (which do not divide 80, so the
    # last is short), exactly one chunk, and a chunk longer than the run.  A
    # short switch interval makes the two threads interleave often, so a chunk
    # buffer reused too early would show.
    step_bytes = 300 * spec3.dim * 8
    monkeypatch.setattr(estimators, "EM_CHUNK_BYTES", 1 if chunk_steps == 1
                        else chunk_steps * step_bytes + step_bytes // 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for method in ("exp", "euler"):
            assert em_states_digest(spec3, method) == (EM_STATES_SHA256[method],
                                                        EM["sine", method]), method
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("method", ["exp", "euler"])
def test_em_zero_drift_draws_inline_bitwise(spec3, method, monkeypatch):
    # The zero field draws on the calling thread, one step at a time; a drift
    # that returns zeros through the helper path must give the same values at
    # every step, and the zero field must start no thread.
    zeros = custom_field(lambda t, x: np.zeros_like(x), 1.0)
    times = [0.2 + k * 1e-2 for k in range(1, 81)]
    threaded = em_benchmark_series(spec3, query(zeros, False), times, 300, 1e-2, 17,
                                   method=method)

    def no_thread(thread):
        raise AssertionError("the zero field started a helper thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    inline = em_benchmark_series(spec3, query(zero_field(), False), times, 300, 1e-2, 17,
                                 method=method)
    assert [(e.value, e.std_error) for e in inline] == \
        [(e.value, e.std_error) for e in threaded]
