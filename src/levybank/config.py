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
config key, parser and rule through _key, and KEYS is derived from the
fields.  README documents each key.
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


# A rule is (test of one value, phrase for its error); a list tests each entry.
_POSITIVE = (lambda v: v > 0, "positive")
_NONNEGATIVE = (lambda v: v >= 0, "nonnegative")
_AT_LEAST_2 = (lambda v: v >= 2, "at least 2")
_STABLE = (lambda v: 0.5 < v < 1.0, "in (1/2, 1)")
_U64 = (lambda v: 0 <= v < 2 ** 64, "an unsigned 64-bit int")
_FIELD_KIND = (lambda v: v in ("sine", "bc", "zero"), "sine, bc or zero")


def _formats_alpha(path: str) -> bool:
    try:   # a path that holds "{alpha" formats, with {alpha} its one brace field
        return "{alpha" not in path or bool(path.format(alpha=0.75))
    except (KeyError, IndexError, ValueError, AttributeError, TypeError):
        return False


def _key(key: str, parser, default, rule=None):
    """A field for config key `key`, set through `parser` and checked by `rule`
    (a float key's values must first be finite); a list default is copied."""
    finite = ((math.isfinite, "finite"),) if parser in (float, _to_float_list) else ()
    rules = finite + ((rule,) if rule else ())
    meta = {"key": key, "parser": parser, "rules": rules}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    # problem.*  (sqrt(Q) is the identity at bank level; sigma scales queries)
    alpha: float = _key("problem.alpha", float, 0.75, _STABLE)
    gamma_bar: float = _key("problem.gamma_bar", float, 1.0, _POSITIVE)
    dim: int = _key("problem.dim", int, 100, (lambda v: v >= 1, "at least 1"))
    horizon: float = _key("problem.horizon", float, 1.0, _POSITIVE)
    # bank.*
    m_sub: int = _key("bank.m_sub", int, 10000, _NONNEGATIVE)
    m_ou: int = _key("bank.m_ou", int, 10000, _NONNEGATIVE)
    delta_fine: float = _key("bank.delta_fine", float, 1e-3, _POSITIVE)
    delta_coarse: float = _key("bank.delta_coarse", float, 1e-2, _POSITIVE)
    bank_seed: int = _key("bank.seed", int, 2024, _U64)
    bank_path: Optional[str] = _key("bank.path", str.strip, None,
                                    (_formats_alpha, "a path whose one brace field is {alpha}"))
    precision: int = _key("bank.precision", int, 8, (lambda v: v in (4, 8), "4 or 8"))
    # query.*
    alphas: list = _key("query.alphas", _to_float_list, [0.55, 0.65, 0.75, 0.85], _STABLE)
    sigmas: list = _key("query.sigmas", _to_float_list, [1.0], _POSITIVE)
    t_values: Optional[list] = _key("query.t_values", _to_float_list, None, _POSITIVE)
    s: float = _key("query.s", float, 0.0, _NONNEGATIVE)
    radius: float = _key("query.radius", float, 1.0, _POSITIVE)
    x: str = _key("query.x", str.strip, "ones")
    field_kind: str = _key("query.field", str.strip, "sine", _FIELD_KIND)
    field_b0: float = _key("query.field_b0", float, 2.0, _POSITIVE)
    field_ybar: float = _key("query.field_ybar", float, 2.0)
    field_sharpness: float = _key("query.field_sharpness", float, 1e4, _POSITIVE)
    use_shift: bool = _key("query.shift", _to_bool, True)
    # estimator.*
    mesh: float = _key("estimator.mesh", float, 1e-2, _POSITIVE)
    n_pairs: int = _key("estimator.n_pairs", int, 10000, _AT_LEAST_2)
    n_tuples: int = _key("estimator.n_tuples", int, 5000, _AT_LEAST_2)
    orders: list = _key("estimator.orders", _to_int_list, [0, 1])
    benchmark_paths: int = _key("estimator.benchmark_paths", int, 10000, _AT_LEAST_2)
    delta_em: float = _key("estimator.delta_em", float, 1e-3, _POSITIVE)
    benchmark_method: str = _key("estimator.benchmark_method", str.strip, "exp",
                                 (lambda v: v in ("exp", "euler"), "exp or euler"))
    sample_seed: Optional[int] = _key("estimator.sample_seed", int, None, _U64)
    # sweep.*
    sweep_s_values: list = _key("sweep.s_values", _to_float_list, [0.0])
    sweep_sigmas: list = _key("sweep.sigmas", _to_float_list, [0.5, 0.7, 1.0, 1.3], _POSITIVE)
    sweep_fields: list = _key("sweep.fields", _to_str_list, ["sine"], _FIELD_KIND)
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

_PROFILES = {"desk": {}, "paper": {
    "m_sub": 100000, "m_ou": 100000, "delta_fine": 1e-4,
    "n_pairs": 100000, "benchmark_paths": 100000, "delta_em": 1e-4,
    "benchmark_method": "euler",
}}


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
    """Each key's own rules, then the checks that read several keys."""
    for f in fields(ExperimentConfig):
        key, val = f.metadata.get("key"), getattr(cfg, f.name)
        if key is None or val is None:   # not a key, or unset
            continue
        if val == []:
            raise ConfigError(f"{key} must not be empty")
        for v in (val if isinstance(val, list) else [val]):
            for test, phrase in f.metadata["rules"]:
                if not test(v):
                    raise ConfigError(f"{key} must be {phrase}, got {v!r}")
    if cfg.benchmark_method == "euler" and cfg.dim ** 2 * cfg.delta_em > 2:
        # the CLI's spectrum is lambda_k = k^2; the explicit scheme diverges past 2
        raise ConfigError(f"estimator.benchmark_method = euler needs problem.dim^2 * "
                          f"estimator.delta_em <= 2, got {cfg.dim ** 2 * cfg.delta_em:g}")
    if cfg.orders != list(range(len(cfg.orders))):
        raise ConfigError(f"estimator.orders must be consecutive 0..n, got {cfg.orders}")
    try:
        parse_x(cfg.x, cfg.dim)
    except ConfigError as exc:
        raise ConfigError(f"query.x: {exc}") from exc
    check_times(cfg, cfg.t_values or [cfg.horizon])
    return cfg


def check_times(cfg: ExperimentConfig, times: list) -> None:
    """Refuse a time outside (query.s, problem.horizon], or a step that does not tile
    [query.s, t]; times are query.t_values when set, else those the command runs."""
    # the library's grid rule; numpy loads here, after main has pinned BLAS
    from .core import TimeGrid

    def on_grid(key: str, value: float, what: str, *grid) -> None:
        try:
            TimeGrid(*grid)
        except ValueError:
            raise ConfigError(f"{key} must {what}, got {value!r}") from None

    on_grid("estimator.mesh", cfg.mesh,
            f"be a whole multiple of bank.delta_coarse = {cfg.delta_coarse!r}",
            0.0, cfg.mesh, cfg.delta_coarse)
    for t in times:   # a command's own times end at the horizon, up to rounding
        if not cfg.s < t <= (cfg.horizon if cfg.t_values else math.inf):
            raise ConfigError(
                f"query.t_values must lie in (query.s, problem.horizon] = "
                f"({cfg.s!r}, {cfg.horizon!r}], got {t!r}" if cfg.t_values else
                f"query.s must be below every time queried, got {cfg.s!r} >= {t!r}")
        for key, step in (("estimator.mesh", cfg.mesh), ("estimator.delta_em", cfg.delta_em)):
            on_grid(key, step, f"divide [query.s, t] = [{cfg.s!r}, {t!r}]", cfg.s, t, step)


def build_config(file_path: Optional[str] = None, profile: Optional[str] = None,
                 **flag_overrides) -> ExperimentConfig:
    """Assemble the effective config from defaults, profile, file, flags."""
    file_pairs = parse_config_file(file_path) if file_path else {}
    prof = profile or file_pairs.get("profile") or "desk"
    if prof not in _PROFILES:
        raise ConfigError(f"unknown profile {prof!r} (desk or paper)")
    cfg = ExperimentConfig(profile=prof, **_PROFILES[prof])
    file_pairs.pop("profile", None)
    explicit = set()
    for source in (file_pairs, flag_overrides):
        for attr, val in source.items():
            if val is not None:
                cfg = replace(cfg, **{attr: val})
                explicit.add(attr)
    return _validate(replace(cfg, explicit=frozenset(explicit)))
