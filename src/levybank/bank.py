"""The reusable batch of subordinator paths and stochastic convolutions.

A bank holds M_sub subordinator-only paths (the independent covariance draws
the iterate estimators need) and M_ou convolution records.  Each record is one
realization of (L, Ztilde) where Ztilde is the unit-noise stochastic
convolution int_0^t e^{(t-r)A} dW_{L_r}, stored only at coarse checkpoints.
No sigma enters generation: queries scale by sigma at read time, which is what
makes one bank serve every (s, x, sigma, drift) query.

Conditionally on the clock, the noise that coarse block b (fine bins
i = bk .. bk+k-1, with k fine steps of length d per block) adds to component n
is one centered Gaussian, so each block takes a single standard normal:

    Z_{b+1} = e^{-lambda_n d k} Z_b + sqrt(V_{b,n}) * xi_{b,n},
    V_{b,n} = sum_j e^{-2 lambda_n d (k-1-j)} (1-e^{-2 lambda_n d})/(2 lambda_n d) dL_{bk+j}

V is the covariance integral int e^{-2 lambda (t-r)} dL_r over the block under
the "L linear within a bin" surrogate, i.e. dL_block @ covariance_weights.
The covariance quadrature uses the same per-bin weights, so the two are
consistent and both become exact in the deterministic-clock limit, which is
the test oracle.  The recurrence runs in float64; precision 4 rounds only the
stored values.  W_L itself is never stored; every consumer needs only Ztilde
and L.

File format (little endian, magic "LVIB", version 2):

    magic[4] | u32 version | spec_hash[32] | f8 delta_fine | f8 delta_coarse |
    f8 horizon | u32 dim | u64 m_sub | u64 m_ou | u64 base_seed |
    u8 precision (8 or 4) | pad[11]

a 104-byte header, so the payload starts 8-byte aligned, followed by three
contiguous little-endian sections: subordinator-only path values
(m_sub x (n_fine+1), f8), record clock values (m_ou x (n_fine+1), f8), record
checkpoints (m_ou x (n_chk+1) x dim, f8 or f4 per the precision flag).
Version 1 (100-byte header, one normal per fine step) is refused: its
checkpoints came from a different random stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import (GRID_RTOL, DiagonalOperator, ProblemSpec, TimeGrid,
                   covariance_weights)
from .stable import SubordinatorPath, sample_stable_increment
from .streams import (DOMAIN_RECORD_BLOCK_GAUSS, DOMAIN_RECORD_CLOCK,
                      DOMAIN_SUB_PATH, make_rng, stream_key)

MAGIC = b"LVIB"
FORMAT_VERSION = 2
_HEADER_FMT = "<4sI32sdddIQQQB11x"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

# Number of load_bank calls since import (or the last reset); lets reuse tests
# assert that a sweep reads its bank exactly once.
_load_calls = 0


def load_call_count() -> int:
    return _load_calls


def reset_load_call_count() -> None:
    global _load_calls
    _load_calls = 0


@dataclass(frozen=True)
class BankHeader:
    version: int
    spec_hash: bytes
    delta_fine: float
    delta_coarse: float
    horizon: float
    dim: int
    m_sub: int
    m_ou: int
    base_seed: int
    precision: int  # bytes per checkpoint scalar: 8 or 4

    def pack(self) -> bytes:
        return struct.pack(_HEADER_FMT, MAGIC, self.version, self.spec_hash,
                           self.delta_fine, self.delta_coarse, self.horizon,
                           self.dim, self.m_sub, self.m_ou, self.base_seed,
                           self.precision)

    @staticmethod
    def unpack(raw: bytes) -> "BankHeader":
        if len(raw) < 8 or raw[:4] != MAGIC:
            raise ValueError(f"not a bank file (magic {raw[:4]!r})")
        (version,) = struct.unpack_from("<I", raw, 4)
        if version == 1:
            raise ValueError("bank file format version 1 predates exact block sampling "
                             "of the checkpoints; regenerate the bank")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported bank format version {version}")
        if len(raw) < _HEADER_SIZE:
            raise ValueError("bank file is truncated (no header)")
        _, _, spec_hash, dfine, dcoarse, horizon, dim, m_sub, m_ou, seed, prec = \
            struct.unpack(_HEADER_FMT, raw)
        if prec not in (4, 8):
            raise ValueError(f"bad precision flag {prec}")
        return BankHeader(version=version, spec_hash=spec_hash, delta_fine=dfine,
                          delta_coarse=dcoarse, horizon=horizon, dim=dim,
                          m_sub=m_sub, m_ou=m_ou, base_seed=seed, precision=prec)


@dataclass(frozen=True)
class ConvolutionRecord:
    """One realization of (clock L, unit-noise convolution checkpoints)."""

    sub: SubordinatorPath
    conv_checkpoints: np.ndarray  # (n_chk+1, N), row j at time j*delta_coarse
    seed: int


class SimulationBank:
    """In-memory bank; strictly read-only after construction or load."""

    def __init__(self, header: BankHeader, sub_values: np.ndarray,
                 record_clock_values: np.ndarray, record_checkpoints: np.ndarray):
        self.header = header
        self.sub_values = sub_values                  # (m_sub, n_fine+1) f8
        self.record_clock_values = record_clock_values  # (m_ou, n_fine+1) f8
        self.record_checkpoints = record_checkpoints  # (m_ou, n_chk+1, N)
        self.fine_grid = TimeGrid(0.0, header.horizon, header.delta_fine)
        self.coarse_grid = TimeGrid(0.0, header.horizon, header.delta_coarse)
        for arr in (sub_values, record_clock_values, record_checkpoints):
            arr.setflags(write=False)

    @property
    def m_sub(self) -> int:
        return self.header.m_sub

    @property
    def m_ou(self) -> int:
        return self.header.m_ou

    def record(self, i: int) -> ConvolutionRecord:
        """Convolution record i as a view-backed object."""
        sub = SubordinatorPath(grid=self.fine_grid, values=self.record_clock_values[i],
                               seed=stream_key(DOMAIN_RECORD_CLOCK, i))
        return ConvolutionRecord(sub=sub, conv_checkpoints=self.record_checkpoints[i],
                                 seed=stream_key(DOMAIN_RECORD_BLOCK_GAUSS, i))

    def checkpoint_index(self, t: float) -> int:
        """Index of a coarse checkpoint, or ValueError if t is off-grid."""
        return self.coarse_grid.index_of(t)


def _coarse_ratio(delta_fine: float, delta_coarse: float) -> int:
    ratio = delta_coarse / delta_fine
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > GRID_RTOL * ratio:
        raise ValueError(
            f"delta_coarse {delta_coarse} is not an integer multiple of delta_fine {delta_fine}")
    return k


def generate_bank(spec: ProblemSpec, delta_fine: float, delta_coarse: float,
                  m_sub: int, m_ou: int, base_seed: int,
                  precision: int = 8, deterministic_clock: bool = False) -> SimulationBank:
    """Generate a bank; deterministic in all arguments.

    Seeds derive from base_seed through disjoint stream domains (sub-only
    paths / record clocks / record Gaussians), so every path is reproducible
    in isolation and the three families are independent.  deterministic_clock
    replaces every clock increment by delta_fine (variance-oracle test hook);
    Gaussian streams are untouched by the hook.
    """
    if m_sub < 0 or m_ou < 0:
        raise ValueError("m_sub and m_ou must be nonnegative")
    if precision not in (4, 8):
        raise ValueError(f"precision must be 4 or 8 bytes, got {precision}")
    k_ratio = _coarse_ratio(delta_fine, delta_coarse)
    fine_grid = TimeGrid(0.0, spec.horizon, delta_fine)
    n_fine = fine_grid.n_steps
    if n_fine % k_ratio:
        raise ValueError(
            f"checkpoint grid (step {delta_coarse}) must divide the fine grid "
            f"({n_fine} steps of {delta_fine})")
    n_blocks = n_fine // k_ratio
    lam = spec.lambdas
    d = delta_fine

    def clock_values(domain: int, index: int) -> np.ndarray:
        vals = np.empty(n_fine + 1)
        vals[0] = 0.0
        if deterministic_clock:
            vals[1:] = d * np.arange(1, n_fine + 1)
        else:
            rng = make_rng(base_seed, domain, index)
            incr = sample_stable_increment(spec.alpha, spec.gamma_bar, d, rng, size=n_fine)
            np.cumsum(incr, out=vals[1:])
        return vals

    sub_values = np.empty((m_sub, n_fine + 1))
    for i in range(m_sub):
        sub_values[i] = clock_values(DOMAIN_SUB_PATH, i)

    record_clock = np.empty((m_ou, n_fine + 1))
    for i in range(m_ou):
        record_clock[i] = clock_values(DOMAIN_RECORD_CLOCK, i)

    # One normal per (block, mode), scaled by the block's conditional standard
    # deviation; the recurrence then runs over all records at once.
    chk = np.zeros((m_ou, n_blocks + 1, spec.dim))
    block_weights = covariance_weights(lam, d, k_ratio)
    for r in range(m_ou):
        block_var = np.diff(record_clock[r]).reshape(n_blocks, k_ratio) @ block_weights
        chk[r, 1:] = np.sqrt(block_var) * make_rng(
            base_seed, DOMAIN_RECORD_BLOCK_GAUSS, r).standard_normal((n_blocks, spec.dim))
    decay_blk = np.exp(-lam * d * k_ratio)
    for b in range(n_blocks):
        chk[:, b + 1] += decay_blk * chk[:, b]
    record_chk = chk if precision == 8 else chk.astype(np.float32)

    header = BankHeader(version=FORMAT_VERSION, spec_hash=spec.content_hash(),
                        delta_fine=delta_fine, delta_coarse=delta_coarse,
                        horizon=spec.horizon, dim=spec.dim, m_sub=m_sub, m_ou=m_ou,
                        base_seed=base_seed, precision=precision)
    return SimulationBank(header, sub_values, record_clock, record_chk)


def _fine_window(path: SubordinatorPath, u: float, t: float) -> tuple[int, int]:
    """Snap [u, t] inward to the fine grid; returns (iu, it) with iu < it.

    Times within relative tolerance 1e-9 of a grid point hit it exactly;
    otherwise u rounds up and t rounds down, so the quadrature never uses mass
    outside the requested window.
    """
    grid = path.grid
    ru = (u - grid.start) / grid.step
    rt = (t - grid.start) / grid.step
    iu = int(round(ru))
    if abs(ru - iu) > GRID_RTOL * max(1.0, abs(ru)):
        iu = int(np.ceil(ru))
    it = int(round(rt))
    if abs(rt - it) > GRID_RTOL * max(1.0, abs(rt)):
        it = int(np.floor(rt))
    iu = max(iu, 0)
    it = min(it, grid.n_steps)
    if not 0 <= iu < it:
        raise ValueError(f"need u < t inside the path window, got u={u}, t={t}")
    return iu, it


def covariance_integral(record_or_path, spec: ProblemSpec, sigma_scale: float,
                        u: float, t: float) -> DiagonalOperator:
    """Conditional covariance int_u^t e^{2(t-r)A} Q dL_r for one clock draw.

    Per-bin exponential-averaged weights, matching generation: bin with left
    edge r_i contributes e^{-2 lambda (t - r_i - d)} (1-e^{-2 lambda d})/(2
    lambda d) dL_i.  u and t are snapped inward to the fine grid (see
    _fine_window).  Entries are strictly positive whenever t > u.
    """
    if sigma_scale <= 0.0:
        raise ValueError(f"sigma_scale must be positive, got {sigma_scale}")
    path = record_or_path.sub if isinstance(record_or_path, ConvolutionRecord) else record_or_path
    iu, it = _fine_window(path, u, t)
    weights = covariance_weights(spec.lambdas, path.grid.step, it - iu)  # bins iu..it-1
    dl = np.diff(path.values[iu:it + 1])
    return (sigma_scale * spec.sigmas) ** 2 * np.einsum("bk,b->k", weights, dl)


def convolution_segment(record: ConvolutionRecord, spec: ProblemSpec,
                        sigma_scale: float, s: float, t: float) -> np.ndarray:
    """sigma_scale * sqrt(Q) * (Ztilde_t - e^{(t-s)A} Ztilde_s), checkpoints only.

    Equals the stochastic integral int_s^t e^{(t-r)A} sqrt(Q) dW_{L_r} for this
    record.  s and t must be coarse checkpoints with s <= t; s = t gives 0.
    """
    end = record.sub.grid.end
    checkpoints = TimeGrid(0.0, end, end / (record.conv_checkpoints.shape[0] - 1))
    js, jt = checkpoints.index_of(s), checkpoints.index_of(t)
    if js > jt:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    chk = record.conv_checkpoints
    prop = np.exp(-spec.lambdas * (t - s))
    return sigma_scale * spec.sigmas * (np.asarray(chk[jt], dtype=float)
                                        - prop * np.asarray(chk[js], dtype=float))


def save_bank(bank: SimulationBank, path) -> None:
    """Write the bank in the documented binary format (see module docstring)."""
    with open(path, "wb") as fh:
        fh.write(bank.header.pack())
        np.ascontiguousarray(bank.sub_values, dtype="<f8").tofile(fh)
        np.ascontiguousarray(bank.record_clock_values, dtype="<f8").tofile(fh)
        dtype = "<f8" if bank.header.precision == 8 else "<f4"
        np.ascontiguousarray(bank.record_checkpoints, dtype=dtype).tofile(fh)


def load_bank(path, expected_spec: ProblemSpec | None = None) -> SimulationBank:
    """Read a bank file back; value-exact at the declared storage precision.

    Malformed, truncated or oversized files are rejected with a ValueError.
    When expected_spec is given, its content hash must match the header.
    """
    global _load_calls
    _load_calls += 1
    with open(path, "rb") as fh:
        header = BankHeader.unpack(fh.read(_HEADER_SIZE))
        if expected_spec is not None and header.spec_hash != expected_spec.content_hash():
            raise ValueError("bank was generated under a different problem spec")
        n_fine = int(round(header.horizon / header.delta_fine))
        n_blocks = int(round(header.horizon / header.delta_coarse))
        n_sub = header.m_sub * (n_fine + 1)
        n_clk = header.m_ou * (n_fine + 1)
        n_chk = header.m_ou * (n_blocks + 1) * header.dim
        chk_dtype = "<f8" if header.precision == 8 else "<f4"
        sub = np.fromfile(fh, dtype="<f8", count=n_sub)
        clk = np.fromfile(fh, dtype="<f8", count=n_clk)
        chk = np.fromfile(fh, dtype=chk_dtype, count=n_chk)
        if sub.size != n_sub or clk.size != n_clk or chk.size != n_chk or fh.read(1):
            raise ValueError(f"bank file {path} payload does not match its header")
    return SimulationBank(header,
                          sub.reshape(header.m_sub, n_fine + 1),
                          clk.reshape(header.m_ou, n_fine + 1),
                          chk.reshape(header.m_ou, n_blocks + 1, header.dim))
