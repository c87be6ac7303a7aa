"""End-to-end CLI tests: every subcommand in-process plus the exit-code map."""

from __future__ import annotations

import csv
import hashlib
import math
import os
import struct
import weakref
from pathlib import Path

import pytest

import levybank.bank
import levybank.estimators
import levybank.flow
import levybank.stable
from levybank import cli
from levybank.bank import load_bank
from levybank.config import build_config
from levybank.estimators import IterateEstimate
from levybank.stable import laplace_exponent

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HEADER_FMT = "<4sI32sdddIQQQB11x"
HEADER_FIELDS = ("magic", "version", "spec_hash", "delta_fine", "delta_coarse",
                 "horizon", "dim", "m_sub", "m_ou", "base_seed", "precision")


@pytest.fixture(autouse=True)
def restore_blas_env(monkeypatch):
    """cli.main pins BLAS in os.environ; give each test's variables back."""
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)


def conf_text(out_dir: Path, extra: str = "") -> str:
    return f"""
# small two-mode problem, fast enough for the unit suite
problem.alpha = 0.75
problem.dim = 2
bank.m_sub = 300
bank.m_ou = 300
bank.seed = 5
query.alphas = 0.75
query.x = const:0.4
query.sigmas = 0.5
query.radius = 0.6
estimator.n_pairs = 300
estimator.n_tuples = 100
estimator.benchmark_paths = 400
estimator.delta_em = 1e-2
estimator.sample_seed = 1
output.dir = {out_dir}
{extra}
"""


def write_conf(tmp_path: Path, extra: str = "") -> Path:
    conf = tmp_path / "conf.ini"
    conf.write_text(conf_text(tmp_path / "out", extra))
    return conf


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_bank_command_reproducible(tmp_path, capsys):
    conf = write_conf(tmp_path)
    target = tmp_path / "bank.lvib"
    assert cli.main(["bank", "--config", str(conf), "--bank", str(target)]) == 0
    assert "m_sub=300" in capsys.readouterr().out
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    target.unlink()
    assert cli.main(["bank", "--config", str(conf), "--bank", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_table_zero_field_sanity(tmp_path):
    # Zero drift turns the model into the exactly-solvable OU case: the
    # benchmark and v0 must agree statistically and v1 must be exactly zero.
    conf = write_conf(tmp_path, "query.field = zero\nquery.shift = off\n")
    assert cli.main(["table", "--table", "1", "--config", str(conf)]) == 0
    out = tmp_path / "out"
    header, rows = read_csv(out / "table1.csv")
    assert header == ["alpha", "P", "v0", "eps0_r", "v1", "eps1_r"]
    se_header, se_rows = read_csv(out / "table1_se.csv")
    assert se_header == ["alpha", "P_se", "v0_se", "eps0_r_se", "v1_se", "eps1_r_se"]
    (row,), (se_row,) = rows, se_rows
    p, v0, v1 = float(row[1]), float(row[2]), float(row[4])
    p_se, v0_se = float(se_row[1]), float(se_row[2])
    assert v1 == 0.0
    assert abs(p - v0) <= 3.0 * math.hypot(p_se, v0_se)

    before = (out / "table1.csv").read_bytes(), (out / "table1_se.csv").read_bytes()
    assert cli.main(["table", "--table", "1", "--config", str(conf)]) == 0
    after = (out / "table1.csv").read_bytes(), (out / "table1_se.csv").read_bytes()
    assert before == after


def test_table4_has_second_order_columns(tmp_path):
    conf = write_conf(tmp_path)
    assert cli.main(["table", "--table", "4", "--config", str(conf)]) == 0
    header, rows = read_csv(tmp_path / "out" / "table4.csv")
    assert header == ["alpha", "P", "v0", "eps0_r", "v1", "eps1_r", "v2", "eps2_r"]
    assert len(rows) == 1 and all(math.isfinite(float(v)) for v in rows[0])


def test_figure_outputs_one_file_per_curve(tmp_path):
    conf = write_conf(tmp_path, "query.t_values = 0.5, 1.0\n")
    assert cli.main(["figure", "--figure", "1", "--config", str(conf)]) == 0
    out = tmp_path / "out"
    for tag in ("alpha0.6_sigma0.1_shift", "alpha0.6_sigma1.3_shift"):
        header, rows = read_csv(out / f"figure1_{tag}.csv")
        assert header == ["t", "P", "v0", "v0_plus_v1", "abs_eps0", "abs_eps1"]
        assert [r[0] for r in rows] == ["0.5", "1"]


def test_figure_names_the_keys_it_ignores(tmp_path, capsys):
    # the shared config sets query.alphas and query.sigmas; the preset's
    # sigma 0.1 and 1.3 shift curves are written all the same
    conf = write_conf(tmp_path, "query.sigmas = 0.3\nquery.shift = off\nquery.t_values = 1.0\n")
    assert cli.main(["figure", "--figure", "1", "--config", str(conf)]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("figure 1 ignores")]
    assert notes == ["figure 1 ignores query.alphas, query.sigmas, query.shift: its preset "
                     "fixes each curve's alpha, sigma and shift, and runs orders 0-1"]
    assert sorted(p.name for p in (tmp_path / "out").glob("figure1_*.csv")) == [
        "figure1_alpha0.6_sigma0.1_shift.csv", "figure1_alpha0.6_sigma1.3_shift.csv"]


def test_figure_uses_an_explicit_field(tmp_path):
    # figure 1's preset drift is sine; with the zero drift every v1 is exactly 0
    conf = write_conf(tmp_path, "query.field = zero\nquery.t_values = 0.5, 1.0\n")
    assert cli.main(["figure", "--figure", "1", "--config", str(conf)]) == 0
    _, rows = read_csv(tmp_path / "out" / "figure1_alpha0.6_sigma1.3_shift.csv")
    assert len(rows) == 2 and all(r[2] == r[3] for r in rows)


def test_bank_path_alpha_placeholder(tmp_path):
    conf = write_conf(tmp_path, f"query.alphas = 0.6, 0.75\nquery.t_values = 1.0\n"
                      f"bank.path = {tmp_path}/banks/b{{alpha}}.lvib\n")
    assert cli.main(["table", "--table", "1", "--config", str(conf)]) == 0
    assert sorted(p.name for p in (tmp_path / "banks").iterdir()) == ["b0.6.lvib", "b0.75.lvib"]
    _, rows = read_csv(tmp_path / "out" / "table1.csv")
    assert [float(r[0]) for r in rows] == [0.6, 0.75]


def test_bank_path_needs_placeholder_for_several_alphas(tmp_path, capsys):
    conf = write_conf(tmp_path, f"query.alphas = 0.6, 0.75\nbank.path = {tmp_path}/b.lvib\n")
    assert cli.main(["table", "--table", "1", "--config", str(conf)]) == 2
    assert "needs an {alpha} placeholder" in capsys.readouterr().err
    assert not (tmp_path / "b.lvib").exists()


@pytest.mark.parametrize("name", ["b{alpha}{x}.lvib", "b{alpha}{0}.lvib", "b{alpha:q}.lvib",
                                  "b{alpha.x}.lvib", "b{alpha[0]}.lvib", "b{alpha}}.lvib"])
def test_bank_path_bad_placeholder(tmp_path, capsys, name):
    # each used to escape as a KeyError, IndexError, ValueError, AttributeError
    # or TypeError traceback from str.format (exit 1)
    conf = write_conf(tmp_path, f"bank.path = {tmp_path}/{name}\n")
    for command in (["table", "--table", "1"], ["bank"]):
        assert cli.main([*command, "--config", str(conf)]) == 2
        assert "bank.path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [conf]


def test_sweep_needs_a_bank(tmp_path, capsys):
    conf = write_conf(tmp_path)
    assert cli.main(["sweep", "--config", str(conf)]) == 2
    assert capsys.readouterr().err.startswith("error: sweep needs a bank")


def sweep_conf_for(tmp_path: Path, bank_file: Path) -> Path:
    conf = tmp_path / "sweep.ini"
    conf.write_text(conf_text(tmp_path / "out", f"""
bank.path = {bank_file}
query.shift = off
sweep.s_values = 0, 0.5, 1.0
sweep.sigmas = 0.5
sweep.fields = sine
sweep.x_values = ones
"""))
    return conf


def test_sweep_loads_bank_once(tmp_path, monkeypatch):
    conf = write_conf(tmp_path)
    bank_file = tmp_path / "shared.lvib"
    assert cli.main(["bank", "--config", str(conf), "--bank", str(bank_file)]) == 0
    loads = []

    def counting_load(*args, **kwargs):
        loads.append(args)
        return load_bank(*args, **kwargs)

    monkeypatch.setattr(levybank.bank, "load_bank", counting_load)
    assert cli.main(["sweep", "--config", str(sweep_conf_for(tmp_path, bank_file))]) == 0
    assert len(loads) == 1
    header, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert header[:7] == ["s", "t", "x", "sigma", "field", "shift", "status"]
    status = {r[0]: r[6] for r in rows}
    assert status == {"0": "ok", "0.5": "ok", "1": "invalid"}
    bad = [r for r in rows if r[6] == "invalid"][0]
    assert bad[7] == "nan"
    t_header, t_rows = read_csv(tmp_path / "out" / "sweep_timing.csv")
    assert t_header[-1] == "wall_ms" and len(t_rows) == len(rows)


def test_sweep_holds_one_shift_at_a_time(tmp_path, monkeypatch):
    conf = write_conf(tmp_path)
    bank_file = tmp_path / "shared.lvib"
    assert cli.main(["bank", "--config", str(conf), "--bank", str(bank_file)]) == 0
    solve_flow = levybank.flow.solve_flow
    shifts, alive = [], []

    def recording_solve(*args):
        alive.append(sum(ref() is not None for ref in shifts))
        shift = solve_flow(*args)
        shifts.append(weakref.ref(shift))
        return shift

    monkeypatch.setattr(levybank.flow, "solve_flow", recording_solve)
    sweep = tmp_path / "sweep.ini"
    sweep.write_text(conf_text(tmp_path / "out", f"""
bank.path = {bank_file}
query.shift = on
sweep.s_values = 0, 0.5
sweep.sigmas = 0.5, 1.0
sweep.fields = sine, zero
sweep.x_values = ones
"""))
    assert cli.main(["sweep", "--config", str(sweep)]) == 0
    # one solve per (field, x, s) key, after the last key's shift was freed
    assert alive == [0, 0, 0, 0]
    _, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert len(rows) == 8 and {r[6] for r in rows} == {"ok"}


@pytest.mark.parametrize("command, line", [
    ("table", "query.sigmas = 0.5, 1.0"),
    ("table", "query.t_values = 0.5, 1.0"),
    ("sweep", "query.t_values = 0.5, 1.0"),
])
def test_table_and_sweep_refuse_several_values(tmp_path, capsys, command, line):
    # table ran only the first sigma and the last t, sweep the last t, silently
    conf = write_conf(tmp_path, f"{line}\nbank.path = {tmp_path}/absent.lvib\n")
    args = [command] + (["--table", "1"] if command == "table" else [])
    assert cli.main(args + ["--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} runs one value of {line.split(' =')[0]}")
    assert not (tmp_path / "absent.lvib").exists()


def test_validate_command(tmp_path):
    conf = write_conf(tmp_path)
    assert cli.main(["validate", "--config", str(conf)]) == 0
    header, rows = read_csv(tmp_path / "out" / "validate.csv")
    assert rows, "validate.csv must contain comparison rows"


def test_exit_code_config_error(tmp_path, capsys):
    conf = write_conf(tmp_path, "bogus.key = 1\n")
    assert cli.main(["table", "--table", "1", "--config", str(conf)]) == 2
    assert "error:" in capsys.readouterr().err
    conf2 = write_conf(tmp_path, "bank.delta_fine = 3e-3\n")
    assert cli.main(["table", "--table", "1", "--config", str(conf2)]) == 2


@pytest.mark.parametrize("line", [
    "query.radius = nan", "query.radius = inf", "estimator.mesh = nan",
    "bank.delta_fine = nan", "problem.gamma_bar = inf", "query.s = inf",
    "query.sigmas = 0.5, nan", "query.sigmas = inf", "query.sigmas = 0",
    "sweep.sigmas = nan", "query.t_values = 0.5, nan", "query.field_b0 = nan",
    "query.x = const:nan", "query.x = 0.4, inf", "query.x = 0.4",
    # lists a command cannot run, and a field kind it does not know
    "query.alphas =", "query.t_values =", "sweep.s_values =", "sweep.fields =", "sweep.x_values =",
    "sweep.fields = sine, cubic", "problem.dim = 0",
    # every other rejection of a config file's values
    "query.shift = maybe", "no equals sign", "problem.dim = abc", "query.x = const:abc",
    "profile = bogus", "problem.alpha = 0.5", "estimator.mesh = 0", "bank.m_ou = -1",
    "bank.precision = 2", "estimator.benchmark_method = rk4", "query.field = cubic",
    "estimator.orders = 0, 2", "bank.seed = -1", "query.s = -0.1",
    # sample counts the estimators refuse, found only after a bank was made
    "estimator.n_pairs = 1", "estimator.n_pairs = 0", "estimator.n_pairs = -3",
    "estimator.n_tuples = 1", "estimator.benchmark_paths = 1",
])
def test_exit_code_non_finite_config_value(tmp_path, capsys, line):
    # NaN passed the positivity checks, and sigmas and x were not checked;
    # each rejection exits 2 before a bank is read or made, naming its key
    conf = write_conf(tmp_path, line + "\n")
    assert cli.main(["table", "--table", "1", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and line.split(" =")[0] in err
    assert not (tmp_path / "out").exists()


def test_exit_code_unstable_euler_step(tmp_path, capsys):
    # the CLI's spectrum is k^2, so 15^2 * 1e-2 = 2.25 is past the explicit
    # scheme's bound of 2, which 14^2 * 1e-2 = 1.96 is not
    conf = write_conf(tmp_path, "estimator.benchmark_method = euler\nproblem.dim = 15\n")
    assert cli.main(["table", "--table", "2", "--config", str(conf)]) == 2
    assert capsys.readouterr().err == ("error: estimator.benchmark_method = euler needs "
                                       "problem.dim^2 * estimator.delta_em <= 2, got 2.25\n")
    assert not (tmp_path / "out").exists()
    conf = write_conf(tmp_path, "estimator.benchmark_method = euler\nproblem.dim = 14\n")
    assert build_config(str(conf)).benchmark_method == "euler"


def test_exit_code_out_is_a_file(tmp_path, capsys):
    conf = write_conf(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["bank", "--config", str(conf), "--out", str(taken)]) == 3
    assert "[Errno 17] File exists" in capsys.readouterr().err


def test_exit_code_validation_failure(tmp_path, monkeypatch, capsys):
    # a 2% error in the analytic transform is flagged; the rows are still written
    def wrong(alpha, gamma_bar, lam):
        return laplace_exponent(alpha, gamma_bar, lam) - math.log(1.02)

    monkeypatch.setattr(levybank.stable, "laplace_exponent", wrong)
    conf = write_conf(tmp_path)
    assert cli.main(["validate", "--config", str(conf)]) == 4
    _, rows = read_csv(tmp_path / "out" / "validate.csv")
    assert sum(row[-1] == "1" for row in rows) == 3
    assert "error: validation failed: 3 sampler rows flagged" in capsys.readouterr().err


def test_exit_code_unreadable_config(tmp_path, capsys):
    missing = tmp_path / "absent.ini"
    assert cli.main(["table", "--table", "1", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and str(missing) in err


def test_blas_runs_on_one_thread(tmp_path, monkeypatch, capsys):
    # the benchmark pins BLAS the same way; there is no option to change it
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "2")
    conf = write_conf(tmp_path)
    assert cli.main(["bank", "--config", str(conf), "--bank", str(tmp_path / "b.lvib")]) == 0
    assert [os.environ[var] for var in BLAS_VARS] == ["1", "1", "1"]
    with pytest.raises(SystemExit) as stop:
        cli.main(["table", "--table", "1", "--config", str(conf), "--threads", "1"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


def test_exit_code_missing_bank(tmp_path, capsys):
    conf = write_conf(tmp_path, f"bank.path = {tmp_path}/absent.lvib\n"
                      "sweep.s_values = 0\nsweep.sigmas = 1\n"
                      "sweep.fields = sine\nsweep.x_values = ones\n")
    assert cli.main(["sweep", "--config", str(conf)]) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_code_corrupt_bank_under_spec_dir(tmp_path, capsys):
    # A truncated bank is an I/O error (3) whatever its path says.
    conf = write_conf(tmp_path)
    bank_file = tmp_path / "spec" / "b.lvib"
    assert cli.main(["bank", "--config", str(conf), "--bank", str(bank_file)]) == 0
    raw = bank_file.read_bytes()
    bank_file.write_bytes(raw[:len(raw) // 2])
    capsys.readouterr()
    assert cli.main(["sweep", "--config", str(sweep_conf_for(tmp_path, bank_file))]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_exit_code_wrong_spec_bank(tmp_path, capsys):
    # A sound bank built under another spec is a configuration error (2).
    conf = write_conf(tmp_path, "problem.alpha = 0.65\n")
    bank_file = tmp_path / "other.lvib"
    assert cli.main(["bank", "--config", str(conf), "--bank", str(bank_file)]) == 0
    capsys.readouterr()
    assert cli.main(["sweep", "--config", str(sweep_conf_for(tmp_path, bank_file))]) == 2
    assert "different problem spec" in capsys.readouterr().err


@pytest.mark.parametrize("edit,resize", [
    ({"delta_fine": 0.0}, False),
    ({"delta_coarse": 0.0}, False),
    ({"horizon": math.inf}, False),
    # 2.5 fine steps per checkpoint, with a payload sized to match the header
    ({"delta_coarse": 2.5e-3}, True),
    # a payload of 2^40 paths, far beyond the file
    ({"m_sub": 2 ** 40}, False),
], ids=["delta_fine_zero", "delta_coarse_zero", "horizon_inf", "coarse_not_multiple",
        "payload_too_large"])
def test_malformed_header_is_an_io_error(tmp_path, capsys, edit, resize):
    conf = write_conf(tmp_path)
    bank_file = tmp_path / "bad.lvib"
    assert cli.main(["bank", "--config", str(conf), "--bank", str(bank_file)]) == 0
    raw = bank_file.read_bytes()
    head = struct.calcsize(HEADER_FMT)
    fields = dict(zip(HEADER_FIELDS, struct.unpack(HEADER_FMT, raw[:head])))
    fields.update(edit)
    payload = raw[head:]
    if resize:
        n_fine = round(fields["horizon"] / fields["delta_fine"])
        n_chk = round(fields["horizon"] / fields["delta_coarse"])
        payload = bytes(8 * ((fields["m_sub"] + fields["m_ou"]) * (n_fine + 1)
                             + fields["m_ou"] * (n_chk + 1) * fields["dim"]))
    bank_file.write_bytes(struct.pack(HEADER_FMT, *fields.values()) + payload)
    with pytest.raises(ValueError):
        load_bank(bank_file)
    capsys.readouterr()
    assert cli.main(["sweep", "--config", str(sweep_conf_for(tmp_path, bank_file))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_exit_code_numerical_failure(tmp_path, monkeypatch):
    def poisoned(bank, spec, shift, q):
        return IterateEstimate(value=float("nan"), std_error=0.0,
                               n_samples=10, order=0)

    monkeypatch.setattr(levybank.estimators, "v0_estimate", poisoned)
    conf = write_conf(tmp_path, "query.field = zero\nquery.shift = off\n")
    assert cli.main(["table", "--table", "1", "--config", str(conf)]) == 4


@pytest.mark.parametrize("args", [["table", "--table", "1"], ["figure", "--figure", "1"]],
                         ids=["table", "figure"])
def test_exit_code_zero_reference(tmp_path, capsys, args):
    # no reference path leaves a ball of radius 100: no relative error exists
    conf = write_conf(tmp_path, "query.radius = 100\nquery.t_values = 1.0\n")
    assert cli.main(args + ["--config", str(conf)]) == 4
    assert "benchmark probability is zero" in capsys.readouterr().err


def test_exit_code_bad_seed(tmp_path, capsys):
    conf = write_conf(tmp_path)
    rc = cli.main(["table", "--table", "1", "--config", str(conf),
                   "--seed", str(2 ** 64)])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
