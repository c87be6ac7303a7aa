"""Command-line front end: banks, tables, figure data, sweeps, validation.

Subcommands:

  bank      generate a simulation bank file and print a summary line
  table     tail probabilities and iterate corrections for one results table
  figure    time-series CSV (t, P, v0, v0+v1, |eps0|, |eps1|) per curve
  sweep     many queries against one preloaded bank, with timing evidence
  validate  sampler Laplace-transform suite plus covariance oracle check

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure (non-finite estimate, or a zero reference probability).  All numeric
CSV cells carry 17 significant digits.  Heavy imports happen inside the
commands, so main() pins BLAS to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import KEYS, ConfigError, build_config, parse_x


class _NumericalFailure(Exception):
    """A non-finite number reached the output layer."""


class _BankFileError(Exception):
    """Bank file missing or unreadable (distinct from config problems)."""


_TABLE_PRESETS = {
    1: dict(field_kind="sine", use_shift=True, sigmas=[1.0], orders=[0, 1]),
    2: dict(field_kind="sine", use_shift=False, sigmas=[1.0], orders=[0, 1]),
    3: dict(field_kind="bc", use_shift=True, sigmas=[0.7], orders=[0, 1]),
    4: dict(field_kind="bc", use_shift=False, sigmas=[0.7], orders=[0, 1, 2]),
}

# figure curves as (alpha, sigma, shift on) triples
_FIGURE_PRESETS = {
    1: ("sine", [(0.6, 0.1, True), (0.6, 1.3, True)]),
    2: ("bc", [(0.55, 0.5, True), (0.55, 0.5, False),
               (0.85, 0.5, True), (0.85, 0.5, False)]),
    3: ("bc", [(0.6, 0.1, True), (0.6, 1.3, True)]),
}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _write_csv(cfg, name: str, header: list, rows: list) -> None:
    """Write name under cfg.out_dir, making the directory, and print its path."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(out / name)


def _check_numbers(label: str, *estimates) -> None:
    """Refuse a non-finite estimate, and a zero benchmark (order -1): no relative error."""
    for est in estimates:
        if not (math.isfinite(est.value) and math.isfinite(est.std_error)):
            raise _NumericalFailure(f"non-finite estimate in {label}: {est}")
        if est.order == -1 and est.value == 0.0:
            raise _NumericalFailure(f"{label}: benchmark probability is zero, "
                                    "relative errors undefined")


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


def _make_field(cfg, kind: str):
    import numpy as np
    from .fields import bounded_cubic_field, sine_field, zero_field
    if kind == "sine":
        return sine_field()
    if kind == "zero":
        return zero_field()
    # "bc": config admits no other kind
    return bounded_cubic_field(cfg.field_b0, np.full(cfg.dim, cfg.field_ybar),
                               cfg.field_sharpness)


def _make_spec(cfg, alpha: float):
    import numpy as np
    from .core import ProblemSpec, squared_eigenvalues
    return ProblemSpec(alpha=alpha, gamma_bar=cfg.gamma_bar, dim=cfg.dim,
                       lambdas=squared_eigenvalues(cfg.dim),
                       sigmas=np.ones(cfg.dim), horizon=cfg.horizon)


def _solve_shift(cfg, field, s: float, x):
    """The time shift from (s, x); the flow does not depend on alpha."""
    from .core import TimeGrid
    from .flow import solve_flow
    grid = TimeGrid(0.0, cfg.horizon, min(cfg.delta_fine, 1e-3))
    return solve_flow(_make_spec(cfg, cfg.alpha), field, s, x, grid)


def _bank_path(cfg, alpha: float, n_alphas: int) -> Path:
    if cfg.bank_path:
        if "{alpha" in cfg.bank_path:
            try:
                return Path(cfg.bank_path.format(alpha=alpha))
            except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
                raise ConfigError(f"bank.path {cfg.bank_path} does not format with "
                                  f"alpha={alpha:g} ({type(exc).__name__}: {exc}); its "
                                  "one brace field is {alpha}") from exc
        if n_alphas > 1:
            raise ConfigError("bank.path needs an {alpha} placeholder when "
                              "several alpha values are requested")
        return Path(cfg.bank_path)
    return Path(cfg.out_dir) / f"bank_a{alpha:g}.lvib"


def _load_bank_checked(path: Path, spec):
    from .bank import SpecMismatchError, load_bank
    if not path.exists():
        raise _BankFileError(f"bank file not found: {path}")
    try:
        return load_bank(str(path), expected_spec=spec)
    except SpecMismatchError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise _BankFileError(f"{path}: {exc}") from exc


def _bank_summary(path: Path, bank) -> str:
    h = bank.header
    return (f"bank {path} ({path.stat().st_size} bytes): m_sub={h.m_sub} "
            f"m_ou={h.m_ou} dim={h.dim} delta_fine={h.delta_fine:g} "
            f"delta_coarse={h.delta_coarse:g} seed={h.base_seed} "
            f"hash={h.spec_hash.hex()[:16]}")


def _write_bank(cfg, spec, path: Path):
    from .bank import generate_bank, save_bank
    bank = generate_bank(spec, cfg.delta_fine, cfg.delta_coarse, cfg.m_sub,
                         cfg.m_ou, cfg.bank_seed, precision=cfg.precision)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_bank(bank, str(path))
    return bank


def _ensure_bank(cfg, spec, alpha: float, n_alphas: int):
    path = _bank_path(cfg, alpha, n_alphas)
    if path.exists():
        bank = _load_bank_checked(path, spec)
        _status(f"loaded {_bank_summary(path, bank)}")
        return bank
    _status(f"generating bank for alpha={alpha:g} "
            f"(m_sub={cfg.m_sub}, m_ou={cfg.m_ou}, dim={cfg.dim})")
    t0 = time.perf_counter()
    bank = _write_bank(cfg, spec, path)
    _status(f"wrote {_bank_summary(path, bank)} in {time.perf_counter() - t0:.1f}s")
    return bank


def _single(command: str, key: str, values: list):
    if len(values) != 1:
        raise ConfigError(f"{command} runs one value of {key}, got {values}")
    return values[0]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_bank(cfg, args) -> int:
    path = _bank_path(cfg, cfg.alpha, 1)
    print(_bank_summary(path, _write_bank(cfg, _make_spec(cfg, cfg.alpha), path)))
    return 0


def _query_for(cfg, s: float, sigma: float, t: float, x, field, use_shift: bool):
    from .estimators import QueryParams
    return QueryParams(s=s, t=t, x=x, sigma_scale=sigma, radius=cfg.radius,
                       field=field, use_shift=use_shift)


def _iterates(cfg, bank, spec, shift, q, max_order: int) -> list:
    """[v0, v1, v2, ..., v_max_order] for one query (v0 and v1 always)."""
    from .estimators import v0_estimate, v1_estimate, vn_estimate
    return [v0_estimate(bank, spec, shift, q),
            v1_estimate(bank, spec, shift, q, cfg.mesh, cfg.n_pairs, seed=cfg.sample_seed)] \
        + [vn_estimate(bank, spec, shift, q, order, cfg.mesh, cfg.n_tuples,
                       seed=cfg.sample_seed) for order in range(2, max_order + 1)]


def cmd_table(cfg, args) -> int:
    preset = {k: v for k, v in _TABLE_PRESETS[args.table].items()
              if k not in cfg.explicit}
    cfg = replace(cfg, **preset)
    from .estimators import em_benchmark, partial_sums
    sigma = _single("table", "query.sigmas", cfg.sigmas)
    t = _single("table", "query.t_values", cfg.t_values or [cfg.horizon])
    x = parse_x(cfg.x, cfg.dim)
    field = _make_field(cfg, cfg.field_kind)
    shift = _solve_shift(cfg, field, cfg.s, x) if cfg.use_shift else None
    q = _query_for(cfg, cfg.s, sigma, t, x, field, cfg.use_shift)
    max_order = max(cfg.orders)
    header = ["alpha", "P"] + [c for k in range(max(max_order, 1) + 1)
                               for c in (f"v{k}", f"eps{k}_r")]
    rows, se_rows = [], []
    for alpha in cfg.alphas:
        spec = _make_spec(cfg, alpha)
        bank = _ensure_bank(cfg, spec, alpha, len(cfg.alphas))
        t0 = time.perf_counter()
        bench = em_benchmark(spec, q, cfg.benchmark_paths, cfg.delta_em,
                             cfg.bank_seed, method=cfg.benchmark_method)
        iterates = _iterates(cfg, bank, spec, shift, q, max_order)
        _check_numbers(f"table {args.table} alpha={alpha:g}", bench, *iterates)
        sums = partial_sums(iterates, bench)
        row = [alpha, bench.value]
        se_row = [alpha, bench.std_error]
        for est, ps in zip(iterates, sums):
            row += [est.value, ps.eps_rel]
            se_row += [est.std_error, ps.eps_rel_se]
        rows.append(row)
        se_rows.append(se_row)
        _status(f"table {args.table} alpha={alpha:g}: P={bench.value:.4f} "
                f"eps={['%.3g' % p.eps_rel for p in sums]} "
                f"({time.perf_counter() - t0:.1f}s)")
    _write_csv(cfg, f"table{args.table}.csv", header, rows)
    _write_csv(cfg, f"table{args.table}_se.csv",
               [header[0]] + [c + "_se" for c in header[1:]], se_rows)
    return 0


def cmd_figure(cfg, args) -> int:
    field_kind, curves = _FIGURE_PRESETS[args.figure]
    if "field_kind" in cfg.explicit:
        field_kind = cfg.field_kind
    ignored = [key for key, (attr, _) in KEYS.items()
               if attr in ("alphas", "sigmas", "use_shift", "orders") and attr in cfg.explicit]
    if ignored:
        _status(f"figure {args.figure} ignores {', '.join(ignored)}: its preset fixes each "
                "curve's alpha, sigma and shift, and runs orders 0-1")
    from .estimators import em_benchmark_series, partial_sums
    t_grid = cfg.t_values or [round(0.1 * k, 10) for k in range(1, 11)]
    x = parse_x(cfg.x, cfg.dim)
    field = _make_field(cfg, field_kind)
    shift = None
    header = ["t", "P", "v0", "v0_plus_v1", "abs_eps0", "abs_eps1"]
    n_distinct = len({curve[0] for curve in curves})
    for alpha, sigma, use_shift in curves:
        spec = _make_spec(cfg, alpha)
        bank = _ensure_bank(cfg, spec, alpha, n_distinct)
        if use_shift and shift is None:
            shift = _solve_shift(cfg, field, cfg.s, x)
        q_last = _query_for(cfg, cfg.s, sigma, t_grid[-1], x, field, use_shift)
        bench = em_benchmark_series(spec, q_last, t_grid, cfg.benchmark_paths,
                                    cfg.delta_em, cfg.bank_seed,
                                    method=cfg.benchmark_method)
        rows = []
        for t_val, b_est in zip(t_grid, bench):
            q = _query_for(cfg, cfg.s, sigma, t_val, x, field, use_shift)
            iterates = _iterates(cfg, bank, spec, shift, q, 1)
            _check_numbers(f"figure {args.figure} t={t_val:g}", b_est, *iterates)
            s0, s1 = partial_sums(iterates, b_est)
            rows.append([t_val, b_est.value, s0.partial_sum, s1.partial_sum,
                         abs(s0.eps_rel), abs(s1.eps_rel)])
        tag = f"alpha{alpha:g}_sigma{sigma:g}_" + ("shift" if use_shift else "noshift")
        _write_csv(cfg, f"figure{args.figure}_{tag}.csv", header, rows)
        _status(f"figure {args.figure} curve {tag} done")
    return 0


def cmd_sweep(cfg, args) -> int:
    if not cfg.bank_path:
        raise ConfigError("sweep needs a bank: set bank.path or pass --bank")
    t = _single("sweep", "query.t_values", cfg.t_values or [cfg.horizon])
    spec = _make_spec(cfg, cfg.alpha)
    path = Path(cfg.bank_path)
    bank = _load_bank_checked(path, spec)
    _status(f"loaded {_bank_summary(path, bank)}")
    header = ["s", "t", "x", "sigma", "field", "shift", "status",
              "v0", "v0_se", "v1", "v1_se"]
    rows, timing_rows = [], []
    # sigma is the innermost loop, so the rows of one (field, x, s) key are
    # consecutive and one shift at a time is held
    shift_key, shift = None, None
    for s_val in cfg.sweep_s_values:
        for x_desc in cfg.sweep_x_values:
            for field_kind in cfg.sweep_fields:
                for sigma in cfg.sweep_sigmas:
                    key = [s_val, t, x_desc, sigma, field_kind,
                           cfg.use_shift]
                    t0 = time.perf_counter()
                    try:
                        x = parse_x(x_desc, cfg.dim)
                        fld = _make_field(cfg, field_kind)
                        ck = (field_kind, x_desc, s_val)
                        if cfg.use_shift and ck != shift_key:
                            shift_key, shift = None, None   # free the last one first
                            shift = _solve_shift(cfg, fld, s_val, x)
                            shift_key = ck
                        q = _query_for(cfg, s_val, sigma, t, x, fld, cfg.use_shift)
                        v0, v1 = _iterates(cfg, bank, spec, shift, q, 1)
                        _check_numbers(f"sweep row {key}", v0, v1)
                        rows.append(key + ["ok", v0.value, v0.std_error,
                                           v1.value, v1.std_error])
                    except (ConfigError, ValueError) as exc:
                        _status(f"sweep row {key} invalid: {exc}")
                        rows.append(key + ["invalid", "nan", "nan", "nan", "nan"])
                    timing_rows.append(key + [(time.perf_counter() - t0) * 1e3])
    _write_csv(cfg, "sweep.csv", header, rows)
    _write_csv(cfg, "sweep_timing.csv", header[:6] + ["wall_ms"], timing_rows)
    _status(f"sweep: {sum(row[6] == 'ok' for row in rows)}/{len(rows)} rows ok")
    return 0


def cmd_validate(cfg, args) -> int:
    import numpy as np
    from .bank import covariance_integral, generate_bank
    from .core import covariance_deterministic_clock
    from .stable import validate_sampler
    rows = []
    n_flagged = 0
    for alpha in cfg.alphas:
        for row in validate_sampler(alpha, cfg.gamma_bar, 100000,
                                    [0.5, 1.0, 2.0], seed=cfg.bank_seed):
            rows.append([alpha, row.lam, row.empirical, row.analytic,
                         row.std_error, int(row.flagged)])
            n_flagged += int(row.flagged)
            mark = "FLAG" if row.flagged else "ok"
            print(f"sampler alpha={alpha:g} lam={row.lam:g}: "
                  f"empirical={row.empirical:.6f} analytic={row.analytic:.6f} "
                  f"se={row.std_error:.2e} [{mark}]")
    spec = _make_spec(cfg, cfg.alpha)
    det_bank = generate_bank(spec, cfg.delta_fine, cfg.delta_coarse, 0, 1,
                             cfg.bank_seed, deterministic_clock=True)
    got = covariance_integral(det_bank.record_clock_values[0], cfg.delta_fine, spec, 1.0,
                              0.0, cfg.horizon)
    want = covariance_deterministic_clock(spec, 0.0, cfg.horizon)
    cov_err = float(np.max(np.abs(got - want) / want))
    print(f"covariance deterministic-clock max rel err: {cov_err:.3e} (tol 1e-10)")
    _write_csv(cfg, "validate.csv",
               ["alpha", "lam", "empirical", "analytic", "std_error", "flagged"], rows)
    if n_flagged or cov_err > 1e-10:
        raise _NumericalFailure(
            f"validation failed: {n_flagged} sampler rows flagged, "
            f"covariance err {cov_err:.3e}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key-value config file")
    common.add_argument("--bank", metavar="PATH", help="bank file override")
    common.add_argument("--out", metavar="DIR", help="output directory override")
    common.add_argument("--profile", choices=["desk", "paper"],
                        help="scale profile (default desk)")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="base seed override")
    parser = argparse.ArgumentParser(
        prog="levybank",
        description="Tail probabilities for semilinear SDEs with subordinated "
                    "noise, via reusable simulation banks")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bank", parents=[common], help="generate a bank file")
    p_table = sub.add_parser("table", parents=[common], help="results table CSV")
    p_table.add_argument("--table", type=int, required=True, choices=[1, 2, 3, 4])
    p_figure = sub.add_parser("figure", parents=[common], help="time-series CSV")
    p_figure.add_argument("--figure", type=int, required=True, choices=[1, 2, 3])
    sub.add_parser("sweep", parents=[common],
                   help="query sweep against one bank")
    sub.add_parser("validate", parents=[common], help="sampler/oracle checks")
    return parser


_DISPATCH = {"bank": cmd_bank, "table": cmd_table, "figure": cmd_figure,
             "sweep": cmd_sweep, "validate": cmd_validate}

# the first type an error is an instance of names its exit code; OSError comes
# before ValueError, since io.UnsupportedOperation is both
_EXIT_CODES = {_BankFileError: 3, OSError: 3, _NumericalFailure: 4, ValueError: 2}


def main(argv=None) -> int:
    # One BLAS thread, before any command loads numpy: BLAS worker threads
    # would compete with the iterate kernel's two walkers, and no value
    # depends on the thread count.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise ConfigError(f"--seed must be an unsigned 64-bit int, got {args.seed}")
        cfg = build_config(args.config, args.profile,
                           bank_seed=args.seed, bank_path=args.bank,
                           out_dir=args.out)
        return _DISPATCH[args.command](cfg, args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
