"""Experiment configuration: flat key-value files with section prefixes.

Format, one `section.key = value` pair per line:

    # comment (';' also starts a comment)
    profile = desk
    problem.alpha = 0.75
    bank.m_sub = 10000
    query.sigmas = 0.7, 1.0

Precedence, lowest to highest: desk defaults, profile overrides, config file,
command-line flags.  Unknown keys are rejected.  Lists are comma-separated.
The full schema is the ExperimentConfig class below: each field names its
config key and parser through _key, and KEYS is derived from the fields.
README documents each key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


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


def _key(key: str, parser, default):
    """A field that config key `key` sets through `parser`; a list default is copied."""
    meta = {"key": key, "parser": parser}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    # problem.*  (sqrt(Q) is the identity at bank level; sigma scales queries)
    alpha: float = _key("problem.alpha", float, 0.75)
    gamma_bar: float = _key("problem.gamma_bar", float, 1.0)
    dim: int = _key("problem.dim", int, 100)
    horizon: float = _key("problem.horizon", float, 1.0)
    # bank.*
    m_sub: int = _key("bank.m_sub", int, 10000)
    m_ou: int = _key("bank.m_ou", int, 10000)
    delta_fine: float = _key("bank.delta_fine", float, 1e-3)
    delta_coarse: float = _key("bank.delta_coarse", float, 1e-2)
    bank_seed: int = _key("bank.seed", int, 2024)
    bank_path: Optional[str] = _key("bank.path", str.strip, None)
    precision: int = _key("bank.precision", int, 8)
    # query.*
    alphas: list = _key("query.alphas", _to_float_list, [0.55, 0.65, 0.75, 0.85])
    sigmas: list = _key("query.sigmas", _to_float_list, [1.0])
    t_values: Optional[list] = _key("query.t_values", _to_float_list, None)
    s: float = _key("query.s", float, 0.0)
    radius: float = _key("query.radius", float, 1.0)
    x: str = _key("query.x", str.strip, "ones")
    field_kind: str = _key("query.field", str.strip, "sine")
    field_b0: float = _key("query.field_b0", float, 2.0)
    field_ybar: float = _key("query.field_ybar", float, 2.0)
    field_sharpness: float = _key("query.field_sharpness", float, 1e4)
    use_shift: bool = _key("query.shift", _to_bool, True)
    # estimator.*
    mesh: float = _key("estimator.mesh", float, 1e-2)
    n_pairs: int = _key("estimator.n_pairs", int, 10000)
    n_tuples: int = _key("estimator.n_tuples", int, 5000)
    orders: list = _key("estimator.orders", _to_int_list, [0, 1])
    benchmark_paths: int = _key("estimator.benchmark_paths", int, 10000)
    delta_em: float = _key("estimator.delta_em", float, 1e-3)
    benchmark_method: str = _key("estimator.benchmark_method", str.strip, "exp")
    sample_seed: Optional[int] = _key("estimator.sample_seed", int, None)
    # sweep.*
    sweep_s_values: list = _key("sweep.s_values", _to_float_list, [0.0])
    sweep_sigmas: list = _key("sweep.sigmas", _to_float_list, [0.5, 0.7, 1.0, 1.3])
    sweep_fields: list = _key("sweep.fields", _to_str_list, ["sine"])
    sweep_x_values: list = _key("sweep.x_values", _to_str_list, ["ones"])
    # output.*
    out_dir: str = _key("output.dir", str.strip, ".")
    profile: str = _key("profile", str.strip, "desk")
    # attributes assigned by the config file or CLI flags (not a config key);
    # lets table/figure presets defer to explicit user choices
    explicit: frozenset = frozenset()


# config key -> (ExperimentConfig attribute, parser)
KEYS = {f.metadata["key"]: (f.name, f.metadata["parser"])
        for f in fields(ExperimentConfig) if f.metadata}

_PAPER_OVERRIDES = {
    "m_sub": 100000, "m_ou": 100000, "delta_fine": 1e-4,
    "n_pairs": 100000, "benchmark_paths": 100000, "delta_em": 1e-4,
    "benchmark_method": "euler",
}

_PROFILES = {"desk": {}, "paper": _PAPER_OVERRIDES}


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
    for name, val in (("estimator.n_pairs", cfg.n_pairs), ("estimator.n_tuples", cfg.n_tuples),
                      ("estimator.benchmark_paths", cfg.benchmark_paths)):
        if val < 2:
            raise ConfigError(f"{name} must be at least 2, got {val}")
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
    if cfg.benchmark_method == "euler" and cfg.dim ** 2 * cfg.delta_em > 2:
        # the CLI's spectrum is lambda_k = k^2; the explicit scheme diverges past 2
        raise ConfigError(f"estimator.benchmark_method = euler needs problem.dim^2 * "
                          f"estimator.delta_em <= 2, got {cfg.dim ** 2 * cfg.delta_em:g}")
    for name, kinds in (("query.field", [cfg.field_kind]), ("sweep.fields", cfg.sweep_fields)):
        if not kinds or not set(kinds) <= {"sine", "bc", "zero"}:
            raise ConfigError(f"{name} must name sine, bc or zero, got {kinds}")
    for name, vals in (("sweep.s_values", cfg.sweep_s_values),
                       ("sweep.x_values", cfg.sweep_x_values)):
        if not vals:
            raise ConfigError(f"{name} must not be empty")
    if cfg.t_values == []:   # unset means the horizon; set but empty is an error
        raise ConfigError("query.t_values must not be empty")
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
