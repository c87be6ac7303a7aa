"""The reusable batch of subordinator paths and stochastic convolutions.

A bank is a header and three read-only arrays, which the estimators index
directly: M_sub subordinator-only clock paths `sub_values` (the independent
covariance draws the iterate estimators need), and M_ou convolution records,
each one realization of (L, Ztilde) stored as its clock row in
`record_clock_values` and its checkpoints in `record_checkpoints`.  Ztilde is
the unit-noise stochastic convolution int_0^t e^{(t-r)A} dW_{L_r}, stored
only at coarse checkpoints.  No sigma enters generation: queries scale by
sigma at read time, which is what makes one bank serve every (s, x, sigma,
drift) query.

Conditionally on the clock, the noise that coarse block b (fine bins
i = bk .. bk+k-1, with k fine steps of length d per block) adds to component n
is one centered Gaussian, so each block takes a single standard normal:

    Z_{b+1} = e^{-lambda_n d k} Z_b + sqrt(V_{b,n}) * xi_{b,n},
    V_{b,n} = sum_j e^{-2 lambda_n d (k-1-j)} (1-e^{-2 lambda_n d})/(2 lambda_n d) dL_{bk+j}

V is the covariance integral int e^{-2 lambda (t-r)} dL_r over the block under
the "L linear within a bin" surrogate, i.e. dL_block @ covariance_weights,
formed by core.contract in pieces of at most CONTRACT_PIECE fine steps, so
the bytes do not depend on the BLAS thread count.
covariance_integral, the covariance of any on-grid window given the clock,
uses the same per-bin weights, so the two are consistent and both become
exact in the deterministic-clock limit, which is the test oracle.  The
recurrence runs in float64; precision 4 rounds only the stored values.  W_L
itself is never stored; every consumer needs only Ztilde and L.  Generation
takes its second thread under the one helper-thread rule, core.two_threads.

File format (little endian, magic "LVIB", version 2):

    magic[4] | u32 version | spec_hash[32] | f8 delta_fine | f8 delta_coarse |
    f8 horizon | u32 dim | u64 m_sub | u64 m_ou | u64 base_seed |
    u8 precision (8 or 4) | pad[11]

a 104-byte header, so the payload starts 8-byte aligned, followed by three
contiguous little-endian sections: subordinator-only path values
(m_sub x (n_fine+1), f8), record clock values (m_ou x (n_fine+1), f8), record
checkpoints (m_ou x (n_chk+1) x dim, f8 or f4 per the precision flag).
The header's steps must partition the horizon as generate_bank requires and
the file size must match the header, else load_bank raises ValueError before
reading the payload.  Version 1 (100-byte header, one normal per fine step)
is refused: its checkpoints came from a different random stream.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import (DiagonalOperator, ProblemSpec, TimeGrid, contract, covariance_weights,
                   two_threads)
from .stable import increment_scale, kanter_draws, kanter_transform
from .streams import (DOMAIN_RECORD_BLOCK_GAUSS, DOMAIN_RECORD_CLOCK,
                      DOMAIN_SUB_PATH, make_rng)

MAGIC = b"LVIB"
FORMAT_VERSION = 2
_HEADER_FMT = "<4sI32sdddIQQQB11x"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
GENERATE_CHUNK_BYTES = 1 << 17   # Kanter draws of one chunk of paths, per buffer


class SpecMismatchError(ValueError):
    """A bank file was generated under a different problem spec."""


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


class SimulationBank:
    """The header and the three bank arrays, read-only after construction or load."""

    def __init__(self, header: BankHeader, sub_values: np.ndarray,
                 record_clock_values: np.ndarray, record_checkpoints: np.ndarray):
        self.header = header
        self.sub_values = sub_values                  # (m_sub, n_fine+1) f8
        self.record_clock_values = record_clock_values  # (m_ou, n_fine+1) f8
        self.record_checkpoints = record_checkpoints  # (m_ou, n_chk+1, N)
        self.fine_grid, self.coarse_grid = _grids(header.horizon, header.delta_fine,
                                                  header.delta_coarse)
        for arr in (sub_values, record_clock_values, record_checkpoints):
            arr.setflags(write=False)

    @property
    def m_sub(self) -> int:
        return self.header.m_sub

    @property
    def m_ou(self) -> int:
        return self.header.m_ou


def _grids(horizon: float, delta_fine: float, delta_coarse: float) -> tuple[TimeGrid, TimeGrid]:
    """The fine and checkpoint grids on [0, horizon], for generation and loading.

    ValueError unless both steps divide the horizon and every checkpoint block
    spans the same whole number of fine steps.
    """
    fine = TimeGrid(0.0, horizon, delta_fine)
    coarse = TimeGrid(0.0, horizon, delta_coarse)
    k = TimeGrid(0.0, delta_coarse, delta_fine).n_steps
    if fine.n_steps != k * coarse.n_steps:
        raise ValueError(
            f"checkpoint grid (step {delta_coarse}) must divide the fine grid "
            f"({fine.n_steps} steps of {delta_fine})")
    return fine, coarse


def generate_bank(spec: ProblemSpec, delta_fine: float, delta_coarse: float,
                  m_sub: int, m_ou: int, base_seed: int,
                  precision: int = 8, deterministic_clock: bool = False) -> SimulationBank:
    """Generate a bank; deterministic in all arguments.

    Seeds derive from base_seed through disjoint stream domains (sub-only
    paths / record clocks / record Gaussians), so every path is reproducible
    in isolation and the three families are independent.  deterministic_clock
    replaces every clock increment by delta_fine (variance-oracle test hook);
    Gaussian streams are untouched by the hook.

    The work comes in chunks of up to GENERATE_CHUNK_BYTES // (8 n_fine)
    sub paths or records, which the calling thread and one helper thread take
    in turn through core.two_threads.  Within a chunk each path draws its
    uniforms and exponentials from its own stream, one Kanter transform turns
    the whole block into increments, and a record chunk then scales each
    record's block normals and runs the checkpoint recurrence over its
    records in float64, writing them to the output (rounded there at
    precision 4).  Each path and record has its own stream and every
    operation acts row by row, so the bytes do not depend on the chunk size
    or on which thread took a chunk.
    """
    if m_sub < 0 or m_ou < 0:
        raise ValueError("m_sub and m_ou must be nonnegative")
    if precision not in (4, 8):
        raise ValueError(f"precision must be 4 or 8 bytes, got {precision}")
    fine_grid, coarse_grid = _grids(spec.horizon, delta_fine, delta_coarse)
    n_fine, n_blocks = fine_grid.n_steps, coarse_grid.n_steps
    k_ratio = n_fine // n_blocks
    lam, dim = spec.lambdas, spec.dim
    d = delta_fine
    scale = increment_scale(spec.alpha, spec.gamma_bar, d)
    ramp = d * np.arange(1, n_fine + 1)
    # one normal per (block, mode), scaled by the block's conditional standard deviation
    block_weights = covariance_weights(lam, d, k_ratio)
    decay_blk = np.exp(-lam * d * k_ratio)

    sub_values = np.empty((m_sub, n_fine + 1))
    record_clock = np.empty((m_ou, n_fine + 1))
    record_chk = np.empty((m_ou, n_blocks + 1, dim), np.float64 if precision == 8 else np.float32)
    per = max(1, GENERATE_CHUNK_BYTES // (8 * n_fine))
    jobs = [(DOMAIN_SUB_PATH, lo, min(lo + per, m_sub)) for lo in range(0, m_sub, per)]
    jobs += [(DOMAIN_RECORD_CLOCK, lo, min(lo + per, m_ou)) for lo in range(0, m_ou, per)]

    def clocks(values: np.ndarray, domain: int, lo: int, hi: int, kanter: list) -> None:
        values[lo:hi, 0] = 0.0
        rows = values[lo:hi, 1:]
        if deterministic_clock:
            rows[...] = ramp
            return
        u, out, scratch = (b[:hi - lo] for b in kanter)
        for i in range(lo, hi):   # the exponentials wait in the rows they become
            kanter_draws(make_rng(base_seed, domain, i), u[i - lo], rows[i - lo])
        kanter_transform(spec.alpha, scale, u, rows, out, scratch)
        np.cumsum(out, axis=1, out=rows)

    def records(lo: int, hi: int, kanter: list, dl: np.ndarray, std: np.ndarray,
                spare: np.ndarray, decayed: np.ndarray, staged: np.ndarray | None) -> None:
        clocks(record_clock, DOMAIN_RECORD_CLOCK, lo, hi, kanter)
        chk = record_chk[lo:hi] if staged is None else staged[:hi - lo]
        chk[:, 0] = 0.0
        for r in range(lo, hi):
            np.subtract(record_clock[r, 1:], record_clock[r, :-1], out=dl)
            np.sqrt(contract(dl.reshape(n_blocks, k_ratio), block_weights, std, spare), out=std)
            noise = chk[r - lo, 1:]
            make_rng(base_seed, DOMAIN_RECORD_BLOCK_GAUSS, r).standard_normal(
                (n_blocks, dim), out=noise)
            noise *= std
        decayed = decayed[:hi - lo]
        for b in range(n_blocks):
            chk[:, b + 1] += np.multiply(decay_blk, chk[:, b], out=decayed)
        if staged is not None:   # precision 4: round this chunk's float64 values
            record_chk[lo:hi] = chk

    def buffers() -> tuple:
        kanter = [np.empty((per, n_fine)) for _ in range(3)]
        return kanter, (np.empty(n_fine), *np.empty((2, n_blocks, dim)), np.empty((per, dim)),
                        np.empty((per, n_blocks + 1, dim)) if precision == 4 else None)

    def work(todo: list, kanter: list, per_record: tuple):   # one item per chunk
        return (clocks(sub_values, domain, lo, hi, kanter) if domain == DOMAIN_SUB_PATH
                else records(lo, hi, kanter, *per_record) for domain, lo, hi in todo)

    # Each worker reuses its buffers chunk after chunk.  This thread allocates
    # both sets, so the helper leaves no freed buffers in a heap of its own.
    two_threads(work(jobs[::2], *buffers()),
                work(jobs[1::2], *buffers()) if len(jobs) > 1 else None)

    header = BankHeader(version=FORMAT_VERSION, spec_hash=spec.content_hash(),
                        delta_fine=delta_fine, delta_coarse=delta_coarse,
                        horizon=spec.horizon, dim=spec.dim, m_sub=m_sub, m_ou=m_ou,
                        base_seed=base_seed, precision=precision)
    return SimulationBank(header, sub_values, record_clock, record_chk)


def covariance_integral(clock: np.ndarray, d: float, spec: ProblemSpec,
                        sigma_scale: float, u: float, t: float) -> DiagonalOperator:
    """Conditional covariance int_u^t e^{2(t-r)A} Q dL_r, given the clock.

    clock is one clock row (n_fine+1 values of L on the fine grid of step d)
    or an (m, n_fine+1) block of rows; the result is (N,) or (m, N).  u < t
    must both be fine-grid points (ValueError otherwise).  Per-bin weights
    match generation: the bin with left edge r_i contributes
    e^{-2 lambda (t - r_i - d)} (1-e^{-2 lambda d})/(2 lambda d) dL_i, so the
    quadrature is exact for the deterministic clock.  Entries are strictly
    positive.  ou_gradient contracts its records through this call, a block
    of rows at a time.
    """
    if sigma_scale <= 0.0:
        raise ValueError(f"sigma_scale must be positive, got {sigma_scale}")
    grid = TimeGrid(0.0, d * (clock.shape[-1] - 1), d)
    iu, it = grid.index_of(u), grid.index_of(t)
    if iu >= it:
        raise ValueError(f"need u < t, got u={u}, t={t}")
    weights = covariance_weights(spec.lambdas, d, it - iu)  # bins iu..it-1
    dl = np.diff(clock[..., iu:it + 1], axis=-1)
    return (sigma_scale * spec.sigmas) ** 2 * np.einsum("...b,bk->...k", dl, weights)


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

    Malformed, truncated or oversized files are rejected with a ValueError
    before any payload is read.  When expected_spec is given, its content hash
    must match the header, else SpecMismatchError (a ValueError).
    """
    with open(path, "rb") as fh:
        header = BankHeader.unpack(fh.read(_HEADER_SIZE))
        fine, coarse = _grids(header.horizon, header.delta_fine, header.delta_coarse)
        if expected_spec is not None and header.spec_hash != expected_spec.content_hash():
            raise SpecMismatchError("bank was generated under a different problem spec")
        n_sub = header.m_sub * (fine.n_steps + 1)
        n_clk = header.m_ou * (fine.n_steps + 1)
        n_chk = header.m_ou * (coarse.n_steps + 1) * header.dim
        if os.fstat(fh.fileno()).st_size != \
                _HEADER_SIZE + 8 * (n_sub + n_clk) + header.precision * n_chk:
            raise ValueError(f"bank file {path} payload does not match its header")
        chk_dtype = "<f8" if header.precision == 8 else "<f4"
        sub = np.fromfile(fh, dtype="<f8", count=n_sub)
        clk = np.fromfile(fh, dtype="<f8", count=n_clk)
        chk = np.fromfile(fh, dtype=chk_dtype, count=n_chk)
    return SimulationBank(header,
                          sub.reshape(header.m_sub, fine.n_steps + 1),
                          clk.reshape(header.m_ou, fine.n_steps + 1),
                          chk.reshape(header.m_ou, coarse.n_steps + 1, header.dim))
