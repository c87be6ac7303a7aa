"""Experiment configuration: flat key-value files with section prefixes.

Format, one `section.key = value` pair per line:

    # comment (';' also starts a comment)
    profile = desk
    problem.alpha = 0.75
    bank.m_sub = 10000
    query.sigmas = 0.7, 1.0

Precedence, lowest to highest: desk defaults, profile overrides, config file,
command-line flags.  Unknown keys are rejected.  Lists are comma-separated.
The full schema is the KEYS table below; README documents each key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


@dataclass
class ExperimentConfig:
    # problem.*  (sqrt(Q) is the identity at bank level; sigma scales queries)
    alpha: float = 0.75
    gamma_bar: float = 1.0
    dim: int = 100
    horizon: float = 1.0
    # bank.*
    m_sub: int = 10000
    m_ou: int = 10000
    delta_fine: float = 1e-3
    delta_coarse: float = 1e-2
    bank_seed: int = 2024
    bank_path: Optional[str] = None
    precision: int = 8
    # query.*
    alphas: list = field(default_factory=lambda: [0.55, 0.65, 0.75, 0.85])
    sigmas: list = field(default_factory=lambda: [1.0])
    t_values: Optional[list] = None
    s: float = 0.0
    radius: float = 1.0
    x: str = "ones"
    field_kind: str = "sine"
    field_b0: float = 2.0
    field_ybar: float = 2.0
    field_sharpness: float = 1e4
    use_shift: bool = True
    # estimator.*
    mesh: float = 1e-2
    n_pairs: int = 10000
    n_tuples: int = 5000
    orders: list = field(default_factory=lambda: [0, 1])
    benchmark_paths: int = 10000
    delta_em: float = 1e-3
    benchmark_method: str = "exp"
    sample_seed: Optional[int] = None
    # sweep.*
    sweep_s_values: list = field(default_factory=lambda: [0.0])
    sweep_sigmas: list = field(default_factory=lambda: [0.5, 0.7, 1.0, 1.3])
    sweep_fields: list = field(default_factory=lambda: ["sine"])
    sweep_x_values: list = field(default_factory=lambda: ["ones"])
    # output.*
    out_dir: str = "."
    profile: str = "desk"
    # attributes assigned by the config file or CLI flags (not a config key);
    # lets table/figure presets defer to explicit user choices
    explicit: frozenset = frozenset()


_PAPER_OVERRIDES = {
    "m_sub": 100000, "m_ou": 100000, "delta_fine": 1e-4,
    "n_pairs": 100000, "benchmark_paths": 100000, "delta_em": 1e-4,
    "benchmark_method": "euler",
}

_PROFILES = {"desk": {}, "paper": _PAPER_OVERRIDES}


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean (on/off), got {raw!r}")


def _to_float_list(raw: str) -> list:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _to_int_list(raw: str) -> list:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _to_str_list(raw: str) -> list:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


# config key -> (ExperimentConfig attribute, parser)
KEYS = {
    "profile": ("profile", str.strip),
    "problem.alpha": ("alpha", float),
    "problem.gamma_bar": ("gamma_bar", float),
    "problem.dim": ("dim", int),
    "problem.horizon": ("horizon", float),
    "bank.m_sub": ("m_sub", int),
    "bank.m_ou": ("m_ou", int),
    "bank.delta_fine": ("delta_fine", float),
    "bank.delta_coarse": ("delta_coarse", float),
    "bank.seed": ("bank_seed", int),
    "bank.path": ("bank_path", str.strip),
    "bank.precision": ("precision", int),
    "query.alphas": ("alphas", _to_float_list),
    "query.sigmas": ("sigmas", _to_float_list),
    "query.t_values": ("t_values", _to_float_list),
    "query.s": ("s", float),
    "query.radius": ("radius", float),
    "query.x": ("x", str.strip),
    "query.field": ("field_kind", str.strip),
    "query.field_b0": ("field_b0", float),
    "query.field_ybar": ("field_ybar", float),
    "query.field_sharpness": ("field_sharpness", float),
    "query.shift": ("use_shift", _to_bool),
    "estimator.mesh": ("mesh", float),
    "estimator.n_pairs": ("n_pairs", int),
    "estimator.n_tuples": ("n_tuples", int),
    "estimator.orders": ("orders", _to_int_list),
    "estimator.benchmark_paths": ("benchmark_paths", int),
    "estimator.delta_em": ("delta_em", float),
    "estimator.benchmark_method": ("benchmark_method", str.strip),
    "estimator.sample_seed": ("sample_seed", int),
    "sweep.s_values": ("sweep_s_values", _to_float_list),
    "sweep.sigmas": ("sweep_sigmas", _to_float_list),
    "sweep.fields": ("sweep_fields", _to_str_list),
    "sweep.x_values": ("sweep_x_values", _to_str_list),
    "output.dir": ("out_dir", str.strip),
}


def parse_config_file(path: str) -> dict:
    """Read a key-value file into {attribute: parsed value}; later keys win."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].split(";", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr, parser = KEYS[key]
        try:
            out[attr] = parser(raw)
        except (TypeError, ValueError) as exc:   # a ConfigError too: name the key
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def parse_x(descriptor: str, dim: int) -> list:
    """The start point named by query.x or an entry of sweep.x_values.

    ones, zeros, const:<v> or dim comma-separated values, all finite.
    """
    desc = descriptor.strip()
    if desc in ("ones", "zeros"):
        return [1.0 if desc == "ones" else 0.0] * dim
    try:
        vals = [float(desc.split(":", 1)[1])] * dim if desc.startswith("const:") \
            else [float(tok) for tok in desc.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad start point {descriptor!r}: {exc}") from exc
    if len(vals) != dim:
        raise ConfigError(f"start point {descriptor!r} has {len(vals)} entries, "
                          f"problem.dim is {dim}")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"start point {descriptor!r} must be finite")
    return vals


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    for key, (attr, parser) in KEYS.items():
        val = getattr(cfg, attr)
        if parser in (float, _to_float_list) and val is not None:
            if not all(math.isfinite(v) for v in (val if isinstance(val, list) else [val])):
                raise ConfigError(f"{key} must be finite, got {val}")
    if cfg.dim < 1:
        raise ConfigError(f"problem.dim must be at least 1, got {cfg.dim}")
    for name, val in (("bank.m_sub", cfg.m_sub), ("bank.m_ou", cfg.m_ou)):
        if val < 0:
            raise ConfigError(f"{name} must be nonnegative, got {val}")
    for name, vals in (("problem.alpha", [cfg.alpha]), ("query.alphas", cfg.alphas)):
        if not vals or not all(0.5 < a < 1.0 for a in vals):
            raise ConfigError(f"{name} must be values in (1/2, 1), got {vals}")
    for name, val in (("bank.delta_fine", cfg.delta_fine),
                      ("bank.delta_coarse", cfg.delta_coarse),
                      ("problem.horizon", cfg.horizon),
                      ("problem.gamma_bar", cfg.gamma_bar),
                      ("estimator.mesh", cfg.mesh),
                      ("estimator.delta_em", cfg.delta_em),
                      ("query.radius", cfg.radius)):
        if not val > 0:
            raise ConfigError(f"{name} must be positive, got {val}")
    for name, vals in (("query.sigmas", cfg.sigmas), ("sweep.sigmas", cfg.sweep_sigmas)):
        if not vals or not all(v > 0 for v in vals):
            raise ConfigError(f"{name} must be a list of positive values, got {vals}")
    if cfg.precision not in (4, 8):
        raise ConfigError(f"bank.precision must be 4 or 8, got {cfg.precision}")
    if cfg.benchmark_method not in ("exp", "euler"):
        raise ConfigError(f"estimator.benchmark_method must be exp or euler, "
                          f"got {cfg.benchmark_method!r}")
    for name, kinds in (("query.field", [cfg.field_kind]), ("sweep.fields", cfg.sweep_fields)):
        if not kinds or not set(kinds) <= {"sine", "bc", "zero"}:
            raise ConfigError(f"{name} must name sine, bc or zero, got {kinds}")
    for name, vals in (("sweep.s_values", cfg.sweep_s_values),
                       ("sweep.x_values", cfg.sweep_x_values)):
        if not vals:
            raise ConfigError(f"{name} must not be empty")
    if cfg.orders != list(range(len(cfg.orders))) or not cfg.orders:
        raise ConfigError(f"estimator.orders must be consecutive 0..n, got {cfg.orders}")
    if cfg.bank_seed < 0 or cfg.bank_seed >= 2 ** 64:
        raise ConfigError(f"bank.seed must be an unsigned 64-bit int, got {cfg.bank_seed}")
    if not cfg.s >= 0.0:
        raise ConfigError(f"query.s must be nonnegative, got {cfg.s}")
    try:
        parse_x(cfg.x, cfg.dim)
    except ConfigError as exc:
        raise ConfigError(f"query.x: {exc}") from exc
    return cfg


def build_config(file_path: Optional[str] = None, profile: Optional[str] = None,
                 **flag_overrides) -> ExperimentConfig:
    """Assemble the effective config from defaults, profile, file, flags."""
    file_pairs = parse_config_file(file_path) if file_path else {}
    prof = profile or file_pairs.get("profile") or "desk"
    if prof not in _PROFILES:
        raise ConfigError(f"unknown profile {prof!r} (desk or paper)")
    cfg = ExperimentConfig(profile=prof)
    cfg = replace(cfg, **_PROFILES[prof])
    file_pairs.pop("profile", None)
    known = {f.name for f in fields(ExperimentConfig)}
    explicit = set()
    for source in (file_pairs, flag_overrides):
        for attr, val in source.items():
            if attr not in known:
                raise ConfigError(f"unknown config attribute {attr!r}")
            if val is not None:
                cfg = replace(cfg, **{attr: val})
                explicit.add(attr)
    cfg = replace(cfg, explicit=frozenset(explicit))
    return _validate(cfg)
