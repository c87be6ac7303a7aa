"""Fast tests of the benchmark itself: tiny runs and negative controls.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from levybank.bank import generate_bank, load_bank, save_bank  # noqa: E402
from levybank.core import ProblemSpec  # noqa: E402
from levybank.estimators import IterateEstimate, QueryParams, v1_estimate  # noqa: E402
from levybank.fields import zero_field  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_tiny(workload: str, trace: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_the_declared_metrics(workload, trace, key):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([*BENCH["command"], "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


SPEC3 = ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=3, lambdas=np.array([1.0, 4.0, 9.0]),
                    sigmas=np.ones(3), horizon=1.0)


@pytest.fixture(scope="module")
def bank3():
    return generate_bank(SPEC3, 1e-3, 1e-2, 1000, 1000, 5)


def test_laplace_check_rejects_a_wrong_alpha(bank3):
    terminal = np.concatenate([bank3.sub_values[:, -1], bank3.record_clock_values[:, -1]])
    assert checks.clock_laplace(terminal, 0.75).ok
    assert not checks.clock_laplace(terminal, 0.8).ok


def test_checkpoint_check_rejects_rescaled_noise(bank3):
    clocks, terminal = bank3.record_clock_values, bank3.record_checkpoints[:, -1, :]
    assert checks.checkpoint_law(clocks, terminal, SPEC3.lambdas, 1e-3).ok
    assert not checks.checkpoint_law(clocks, 1.1 * terminal, SPEC3.lambdas, 1e-3).ok


def test_zero_drift_check_rejects_a_perturbed_v1(bank3):
    q = QueryParams(s=0.0, t=1.0, x=np.full(3, 0.5), sigma_scale=0.8, radius=0.8,
                    field=zero_field(), use_shift=False)
    v1 = v1_estimate(bank3, SPEC3, None, q, 1e-2, 200).value
    assert checks.zero_drift_exact([v1, v1]).ok
    assert not checks.zero_drift_exact([v1, v1 + 5e-324]).ok


def test_read_back_check_rejects_a_flipped_bit(tmp_path, bank3):
    path = tmp_path / "bank.lvib"
    save_bank(bank3, path)
    loaded = load_bank(path, SPEC3)
    assert checks.banks_bitwise_equal(bank3, loaded).ok
    chk = loaded.record_checkpoints.copy()
    chk.view(np.uint64)[7, 3, 1] ^= 1
    flipped = type(loaded)(loaded.header, loaded.sub_values, loaded.record_clock_values, chk)
    assert not checks.banks_bitwise_equal(bank3, flipped).ok


def est(value, se):
    return IterateEstimate(value=value, std_error=se, n_samples=1000, order=0)


def test_iterate_checks_reject_the_wrong_direction():
    p, v0 = est(0.90, 0.003), est(0.86, 0.003)
    assert checks.first_iterate_improves(p, v0, est(0.04, 0.005)).ok
    assert not checks.first_iterate_improves(p, v0, est(-0.06, 0.005)).ok
    assert checks.order2_sign_pattern(p, v0, est(-0.02, 0.01)).ok
    assert not checks.order2_sign_pattern(p, v0, est(0.05, 0.01)).ok
    assert not checks.order2_sign_pattern(p, est(0.92, 0.003), est(-0.02, 0.01)).ok
