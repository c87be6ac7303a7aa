"""The benchmark workloads, each a fixed plan of steps run once per round.

Every workload is dimension 100 with lambda_k = k^2, unit sigmas, horizon 1,
fine step 1e-3, checkpoint step 1e-2 and reference step 1e-3.  All randomness
comes from the seed: it is the bank's base seed and the reference's seed
(separate stream domains, so the two are independent).  The query grids are
fixed, so the work done does not depend on the seed.

Program calls go through module attributes (`lb.generate_bank`, not a
name imported here), so the traced run's wrappers see them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import levybank.bank as lb
import levybank.estimators as le
import levybank.flow as lf
from levybank.core import ProblemSpec, TimeGrid, squared_eigenvalues
from levybank.fields import bounded_cubic_field, sine_field, zero_field

import checks

DIM = 100
DELTA_FINE, DELTA_COARSE, DELTA_EM = 1e-3, 1e-2, 1e-3


@dataclass(frozen=True)
class Step:
    phase: str
    name: str
    run: Callable[[dict], object]   # check steps return a checks.Check


@dataclass(frozen=True)
class Workload:
    name: str
    records: dict                    # size name -> records per bank family
    plan: Callable[[int, int, str], list]   # (seed, records, workdir) -> steps


def desk_spec(alpha: float) -> ProblemSpec:
    return ProblemSpec(alpha=alpha, gamma_bar=1.0, dim=DIM,
                       lambdas=squared_eigenvalues(DIM), sigmas=np.ones(DIM),
                       horizon=1.0)


def cubic_field():
    return bounded_cubic_field(2.0, np.full(DIM, 2.0), 1e4)


def _generate(spec, m_sub, m_ou, seed):
    def run(st):
        st["bank"] = lb.generate_bank(spec, DELTA_FINE, DELTA_COARSE, m_sub, m_ou, seed)
    return Step("setup", "generate_bank", run)


def _bank_checks(spec):
    """Checks every workload makes on the bank it answers from."""
    def laplace(st):
        b = st["bank"]
        terminal = np.concatenate([b.sub_values[:, -1], b.record_clock_values[:, -1]])
        return checks.clock_laplace(terminal, spec.alpha)

    def chk_law(st):
        b = st["bank"]
        return checks.checkpoint_law(b.record_clock_values, b.record_checkpoints[:, -1, :],
                                     spec.lambdas, DELTA_FINE)
    return [Step("check", "clock_laplace", laplace),
            Step("check", "checkpoint_law", chk_law)]


def table_row_plan(seed: int, m: int, workdir: str) -> list:
    """Table 1 row: alpha 0.85, sine drift with time shift, v0 and v1 at mesh
    1e-2, reference with as many paths as the bank has records."""
    spec = desk_spec(0.85)
    sine = sine_field()
    x = np.ones(DIM)
    q = le.QueryParams(s=0.0, t=1.0, x=x, sigma_scale=1.0, radius=1.0,
                       field=sine, use_shift=True)

    def flow(st):
        st["shift"] = lf.solve_flow(spec, sine, 0.0, x, TimeGrid(0.0, 1.0, DELTA_FINE))

    def v0(st):
        st["v0"] = le.v0_estimate(st["bank"], spec, st["shift"], q)

    def v1(st):
        st["v1"] = le.v1_estimate(st["bank"], spec, st["shift"], q, 1e-2, m)

    def ref(st):
        st["p"] = le.em_benchmark(spec, q, m, DELTA_EM, seed)

    return [_generate(spec, m, m, seed),
            Step("solve", "solve_flow", flow), Step("solve", "v0", v0),
            Step("solve", "v1", v1),
            Step("reference", "em_benchmark", ref),
            *_bank_checks(spec),
            Step("check", "first_iterate_improves",
                 lambda st: checks.first_iterate_improves(st["p"], st["v0"], st["v1"])),
            Step("check", "estimates_sane",
                 lambda st: checks.estimates_sane([st["v0"], st["p"]], [st["v1"]]))]


SWEEP_SIGMAS = (0.7, 1.0)
SWEEP_XS = (1.0, 0.5)          # x = c * ones
SWEEP_STARTS = (0.0, 0.5)
SWEEP_MESH = 2e-2


def sweep_plan(seed: int, m: int, workdir: str) -> list:
    """One bank written and read back, then 24 v0 + v1 queries over
    sigma x start point x drift x start time, one shift flow per
    (drift, x, s).  Reference: one zero-drift query."""
    spec = desk_spec(0.75)
    path = os.path.join(workdir, f"sweep-{seed}.lvib")
    drifts = {"sine": sine_field(), "cubic": cubic_field(), "zero": zero_field()}
    queries = []                 # (key, flow key, QueryParams)
    for kind, fld in drifts.items():
        for c in SWEEP_XS:
            for s in SWEEP_STARTS:
                for sigma in SWEEP_SIGMAS:
                    queries.append(((kind, c, s, sigma), (kind, c, s), le.QueryParams(
                        s=s, t=1.0, x=np.full(DIM, c), sigma_scale=sigma, radius=1.0,
                        field=fld, use_shift=True)))
    ref_q = le.QueryParams(s=0.0, t=1.0, x=np.ones(DIM), sigma_scale=1.0, radius=1.0,
                           field=drifts["zero"], use_shift=True)
    ref_key = ("zero", 1.0, 0.0, 1.0)

    def save(st):
        lb.save_bank(st["bank"], path)

    def load(st):
        st["answering"] = lb.load_bank(path, spec)
        os.remove(path)

    def flow_step(kind, c, s):
        def run(st):
            st.setdefault("shifts", {})[(kind, c, s)] = lf.solve_flow(
                spec, drifts[kind], s, np.full(DIM, c), TimeGrid(0.0, 1.0, DELTA_FINE))
        return Step("solve", f"solve_flow {kind} x={c:g} s={s:g}", run)

    def query_step(order, key, fkey, q):
        def run(st):
            shift, b = st["shifts"][fkey], st["answering"]
            if order == 0:
                est = le.v0_estimate(b, spec, shift, q)
            else:
                est = le.v1_estimate(b, spec, shift, q, SWEEP_MESH, m)
            st.setdefault(f"v{order}", {})[key] = est
        return Step("solve", f"v{order} {key}", run)

    steps = [_generate(spec, m, m, seed), Step("setup", "save_bank", save),
             Step("setup", "load_bank", load)]
    flows_done = set()
    for key, fkey, q in queries:
        if fkey not in flows_done:
            flows_done.add(fkey)
            steps.append(flow_step(*fkey))
        steps += [query_step(0, key, fkey, q), query_step(1, key, fkey, q)]

    def ref(st):
        st["p"] = le.em_benchmark(spec, ref_q, m, DELTA_EM, seed)

    steps.append(Step("reference", "em_benchmark", ref))
    steps += _bank_checks(spec)
    steps += [
        Step("check", "bank_read_back_bitwise",
             lambda st: checks.banks_bitwise_equal(st["bank"], st["answering"])),
        Step("check", "zero_drift_exact",
             lambda st: checks.zero_drift_exact(
                 [e.value for k, e in st["v1"].items() if k[0] == "zero"])),
        Step("check", "v0_agrees_with_reference",
             lambda st: checks.agrees_with_reference(st["v0"][ref_key], st["p"])),
        Step("check", "estimates_sane",
             lambda st: checks.estimates_sane([*st["v0"].values(), st["p"]],
                                              st["v1"].values())),
    ]
    return steps


ORDER2_MESH = 2e-2


def order2_plan(seed: int, m: int, workdir: str) -> list:
    """Table 4 row: alpha 0.75, saturated cubic drift, no shift, sigma 0.7,
    orders 0-2 at mesh 2e-2, v2 on m/5 tuples."""
    spec = desk_spec(0.75)
    q = le.QueryParams(s=0.0, t=1.0, x=np.ones(DIM), sigma_scale=0.7, radius=1.0,
                       field=cubic_field(), use_shift=False)

    def v0(st):
        st["v0"] = le.v0_estimate(st["bank"], spec, None, q)

    def v1(st):
        st["v1"] = le.v1_estimate(st["bank"], spec, None, q, ORDER2_MESH, m)

    def v2(st):
        st["v2"] = le.vn_estimate(st["bank"], spec, None, q, 2, ORDER2_MESH, m // 5)

    def ref(st):
        st["p"] = le.em_benchmark(spec, q, m, DELTA_EM, seed)

    def signs(st):
        p, v0_, v1_, v2_ = st["p"], st["v0"], st["v1"], st["v2"]
        eps2 = (p.value - v0_.value - v1_.value - v2_.value) / p.value
        st["report"] = (f"order2 for reference: P {p.value:.4f} v0 {v0_.value:.4f} "
                        f"v1 {v1_.value:+.4f} v2 {v2_.value:+.4f} (se {v2_.std_error:.4f}) "
                        f"eps2 {eps2:+.4f}")
        return checks.order2_sign_pattern(p, v0_, v1_)

    return [_generate(spec, m, m, seed),
            Step("solve", "v0", v0), Step("solve", "v1", v1), Step("solve", "v2", v2),
            Step("reference", "em_benchmark", ref),
            *_bank_checks(spec),
            Step("check", "order2_sign_pattern", signs),
            Step("check", "estimates_sane",
                 lambda st: checks.estimates_sane([st["v0"], st["p"]], [st["v1"], st["v2"]]))]


WORKLOADS = {w.name: w for w in (
    Workload("table-row", {"full": 500, "tiny": 100}, table_row_plan),
    Workload("sweep", {"full": 250, "tiny": 60}, sweep_plan),
    Workload("order2", {"full": 500, "tiny": 100}, order2_plan),
)}
