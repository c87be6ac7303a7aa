"""Golden values for the bank, the shift flow and the bank-based estimators.

The constants were recorded on the shared small bank of conftest.py (dim 3,
400 + 400 records, seed 99) with numpy 2.4 on x86-64.  The flow digests date
from before the iterate estimators were merged into one simplex kernel; the
bank digest and the estimator values were re-recorded when bank format 2
switched the checkpoints to one normal per block (a new random stream, so a
deliberate change: every moved value stayed within 4 combined standard errors
of its format-1 value).  They pin that refactors keep every value:

* the bank bytes, the shift flow, v1 and the gradient bitwise;
* vn at orders 2 and 3 within 1e-12 relative, because a different walk over
  the simplex may sum the same terms in a different order.

A numpy release that changes the summation order of einsum or of reductions
would move the bitwise constants; re-record them from a tree whose values are
otherwise trusted.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np
import pytest

from levybank.core import TimeGrid
from levybank.estimators import QueryParams, ou_gradient, v1_estimate, vn_estimate
from levybank.fields import bounded_cubic_field, sine_field
from levybank.flow import solve_flow

X = np.array([0.5, -0.3, 0.2])
GRID = TimeGrid(0.0, 1.0, 1e-3)
SINE = sine_field()
CUBIC = bounded_cubic_field(2.0, np.full(3, 2.0), 10.0)

BANK_SHA256 = "38249e5d85c7f40d3dfd9509a827a9f7b4e59934b78937cdca9c5dea2c71f672"
FLOW_SHA256 = {
    "exp_rk4": "4cf72545b81b3ac20be715471743b084790924eb1ceffec184d6f334d052af49",
    "euler": "58fe0cd286199aa2e0cc64229bafa92908cc22ccac517dee05d58faf952fb00b",
}
# (use_shift, seed) -> (value, std_error) of v1 at mesh 1e-2 on 300 pairs
V1 = {
    (False, None): (0.14668507124088231, 0.034415217396522174),
    (False, 5): (0.1228864089380573, 0.03585629447102196),
    (True, None): (0.10842402252843779, 0.029229498887143712),
    (True, 5): (0.1012654484242058, 0.032880014161180894),
}
# (order, mesh, field, use_shift, seed, value, std_error) of vn on 120 tuples
VN = [
    (2, 2e-2, SINE, False, None, 0.029573116797905585, 0.026508534844920238),
    (2, 4e-2, CUBIC, True, 7, -0.03147497201828974, 0.05926299918508199),
    (3, 0.1, SINE, True, None, -0.0006006637168993412, 0.009821172555430423),
    (3, 0.1, CUBIC, False, 3, -0.03995544727860638, 0.292580832137836),
]
GRADIENT = (0.05807740335188382, 0.0151811524588853)


def query(field, use_shift: bool) -> QueryParams:
    return QueryParams(s=0.2, t=1.0, x=X, sigma_scale=0.7, radius=1.0,
                       field=field, use_shift=use_shift)


def test_bank_bytes_golden(bank3):
    digest = hashlib.sha256()
    for arr in (bank3.sub_values, bank3.record_clock_values, bank3.record_checkpoints):
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == BANK_SHA256


@pytest.mark.parametrize("method", sorted(FLOW_SHA256))
def test_flow_golden(spec3, method):
    shift = solve_flow(spec3, SINE, 0.2, X, GRID, method=method)
    raw = shift.values.tobytes() + shift.flow_values.tobytes()
    assert hashlib.sha256(raw).hexdigest() == FLOW_SHA256[method]


def test_v1_golden_bitwise(spec3, bank3):
    shift = solve_flow(spec3, SINE, 0.2, X, GRID)
    for (use_shift, seed), want in V1.items():
        est = v1_estimate(bank3, spec3, shift, query(SINE, use_shift), 1e-2, 300, seed=seed)
        assert (est.value, est.std_error) == want, (use_shift, seed)


def test_vn_golden(spec3, bank3):
    for order, mesh, field, use_shift, seed, value, se in VN:
        shift = solve_flow(spec3, field, 0.2, X, GRID) if use_shift else None
        est = vn_estimate(bank3, spec3, shift, query(field, use_shift), order, mesh,
                          120, seed=seed)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)


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
