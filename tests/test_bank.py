"""Tests for the simulation bank: generation, queries, file format."""

from __future__ import annotations

import hashlib
import math
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from scipy.stats import kstest

import levybank.bank
import levybank.estimators
import levybank.stable
from levybank.bank import (FORMAT_VERSION, MAGIC, SpecMismatchError, covariance_integral,
                           generate_bank, load_bank, save_bank)
from levybank.core import ProblemSpec
from levybank.estimators import QueryParams, ou_gradient, v0_estimate, v1_estimate
from levybank.fields import sine_field, zero_field
from levybank.streams import DOMAIN_RECORD_BLOCK_GAUSS, DOMAIN_RECORD_CLOCK

HEADER_FMT = "<4sI32sdddIQQQB11x"


def closed_form_covariance(lam, sigma, tau):
    if lam == 0.0:
        return sigma * sigma * tau
    return sigma * sigma * (1.0 - math.exp(-2.0 * lam * tau)) / (2.0 * lam)


@pytest.fixture(scope="module")
def spec2():
    return ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=2,
                       lambdas=np.array([1.0, 4.0]), sigmas=np.ones(2), horizon=1.0)


@pytest.fixture(scope="module")
def det_bank_stiff():
    spec = ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=3,
                       lambdas=np.array([1.0, 100.0, 1.0e4]), sigmas=np.ones(3),
                       horizon=1.0)
    return spec, generate_bank(spec, 1e-3, 1e-2, 0, 2, 0, deterministic_clock=True)


def test_generation_deterministic(spec3):
    a = generate_bank(spec3, 1e-3, 1e-2, 30, 30, 5)
    b = generate_bank(spec3, 1e-3, 1e-2, 30, 30, 5)
    assert np.array_equal(a.sub_values, b.sub_values)
    assert np.array_equal(a.record_clock_values, b.record_clock_values)
    assert np.array_equal(a.record_checkpoints, b.record_checkpoints)


def test_seed_changes_bank(spec3):
    a = generate_bank(spec3, 1e-3, 1e-2, 10, 10, 5)
    b = generate_bank(spec3, 1e-3, 1e-2, 10, 10, 6)
    assert not np.array_equal(a.sub_values, b.sub_values)
    assert not np.array_equal(a.record_checkpoints, b.record_checkpoints)


def test_bank_shapes_and_readonly(bank3):
    assert bank3.sub_values.shape == (400, 1001)
    assert bank3.record_clock_values.shape == (400, 1001)
    assert bank3.record_checkpoints.shape == (400, 101, 3)
    with pytest.raises(ValueError):
        bank3.sub_values[0, 0] = 1.0


def test_clock_paths_start_at_zero_and_increase(bank3):
    assert np.all(bank3.sub_values[:, 0] == 0.0)
    assert np.all(bank3.record_clock_values[:, 0] == 0.0)
    assert np.all(np.diff(bank3.sub_values, axis=1) > 0.0)
    assert np.all(np.diff(bank3.record_clock_values, axis=1) > 0.0)
    assert np.all(bank3.record_checkpoints[:, 0, :] == 0.0)


def test_deterministic_clock_matches_closed_form(det_bank_stiff):
    # With dL_r = dr the covariance integral is sigma^2 (1-e^{-2 lam tau})/(2 lam),
    # including the stiff lam = 1e4 mode; the per-bin exponential weights make
    # the quadrature exact, not just accurate.
    spec, bank = det_bank_stiff
    for (u, t) in ((0.0, 1.0), (0.13, 0.77)):
        got = covariance_integral(bank.record_clock_values[0], 1e-3, spec, 1.0, u, t)
        want = np.array([closed_form_covariance(lam, 1.0, t - u) for lam in spec.lambdas])
        assert np.max(np.abs(got / want - 1.0)) < 1e-12


def test_covariance_splitting_identity(spec3, bank3):
    clock = bank3.record_clock_values[7]
    s, u, t = 0.0, 0.41, 0.9
    full = covariance_integral(clock, 1e-3, spec3, 1.0, s, t)
    left = covariance_integral(clock, 1e-3, spec3, 1.0, s, u)
    right = covariance_integral(clock, 1e-3, spec3, 1.0, u, t)
    glued = np.exp(-2.0 * spec3.lambdas * (t - u)) * left + right
    assert np.max(np.abs(full / glued - 1.0)) < 1e-12


def test_unit_jump_covariance(spec1):
    # A clock that jumps by 1 in the first fine bin and then stays flat:
    # the integral reduces to the single-bin weight e^{-2 lam (t - d)} phi1(2 lam d).
    clock = np.concatenate([[0.0], np.ones(1000)])
    got = covariance_integral(clock, 1e-3, spec1, 1.0, 0.0, 1.0)
    assert got[0] == pytest.approx(0.1354707087885013, rel=1e-12)


def test_covariance_rejects_off_grid_window(spec2):
    clock = generate_bank(spec2, 1e-3, 1e-2, 0, 1, 8).record_clock_values[0]
    with pytest.raises(ValueError, match="not on the grid"):
        covariance_integral(clock, 1e-3, spec2, 1.0, 0.13049, 0.77)
    with pytest.raises(ValueError, match="not on the grid"):
        covariance_integral(clock, 1e-3, spec2, 1.0, 0.131, 0.7705)
    with pytest.raises(ValueError, match="not on the grid"):
        covariance_integral(clock, 1e-3, spec2, 1.0, 0.0, 1.001)


def test_covariance_rejects_bad_window(spec3, bank3):
    clock = bank3.record_clock_values[0]
    with pytest.raises(ValueError):
        covariance_integral(clock, 1e-3, spec3, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        covariance_integral(clock, 1e-3, spec3, 1.0, 0.6, 0.4)
    with pytest.raises(ValueError):
        covariance_integral(clock, 1e-3, spec3, 0.0, 0.0, 1.0)


def test_covariance_of_a_block_is_its_rows(spec3, bank3):
    # A block of clock rows gives, row for row, the bits of one row at a time.
    block = covariance_integral(bank3.record_clock_values[:5], 1e-3, spec3, 0.7, 0.2, 0.9)
    rows = [covariance_integral(c, 1e-3, spec3, 0.7, 0.2, 0.9)
            for c in bank3.record_clock_values[:5]]
    assert np.array_equal(block, np.stack(rows))


def test_checkpoint_law_is_gaussian(spec2):
    # Conditionally on the clock, checkpoint k over [0, t] is centered Gaussian
    # with variance covariance_integral(...); standardized values must pass a KS
    # test against N(0, 1) at both an interior and the final checkpoint.
    bank = generate_bank(spec2, 1e-3, 1e-2, 0, 1500, 314)
    for t_query, j in ((0.37, 37), (1.0, 100)):
        unit = covariance_integral(bank.record_clock_values, 1e-3, spec2, 1.0, 0.0, t_query)
        z = np.asarray(bank.record_checkpoints[:, j, :]) / np.sqrt(unit)
        for k in range(spec2.dim):
            assert kstest(z[:, k], "norm").pvalue > 0.01


def test_block_increments_are_gaussian(spec2):
    # Each block's increment chk[j+1] - e^{-lambda Delta} chk[j] is the noise of
    # that block alone: standardized by the covariance integral over the block
    # it must be N(0, 1) for every block and mode (Bonferroni over all tests),
    # and pooled over the blocks of each mode, which has the power to see a
    # variance taken from the wrong block.
    bank = generate_bank(spec2, 1e-3, 1e-2, 0, 600, 315)
    n_blocks = bank.record_checkpoints.shape[1] - 1
    delta = bank.header.delta_coarse
    chk = np.asarray(bank.record_checkpoints)
    incr = chk[:, 1:] - np.exp(-spec2.lambdas * delta) * chk[:, :-1]
    var = np.stack([covariance_integral(bank.record_clock_values, 1e-3, spec2, 1.0,
                                        j * delta, (j + 1) * delta)
                    for j in range(n_blocks)], axis=1)
    z = incr / np.sqrt(var)
    level = 0.01 / (n_blocks * spec2.dim)
    for k in range(spec2.dim):
        assert kstest(z[:, :, k].ravel(), "norm").pvalue > 0.01, k
        for j in range(n_blocks):
            assert kstest(z[:, j, k], "norm").pvalue > level, (j, k)


def test_consecutive_checkpoints_decay_by_one_block():
    # Given the clock, Cov(chk[j+1], chk[j]) = e^{-lambda Delta} Var(chk[j]), so
    # chk[j] (chk[j+1] - e^{-lambda Delta} chk[j]) has mean zero.  Divided by
    # sqrt(V_j v_j), with V_j the variance over [0, tau_j] and v_j over the
    # block, each term is a product of two independent N(0, 1); terms are
    # uncorrelated, so the mean over records and blocks has standard error
    # 1/sqrt(count).  At lambda Delta = 1 a block decay short by one fine step
    # (e^{-0.9} for e^{-1}) moves that mean by 14 standard errors at this seed.
    spec = ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=2, lambdas=np.array([1.0, 100.0]),
                       sigmas=np.ones(2), horizon=1.0)
    bank = generate_bank(spec, 1e-3, 1e-2, 0, 400, 316)
    chk = np.asarray(bank.record_checkpoints)
    n_blocks, delta = chk.shape[1] - 1, bank.header.delta_coarse
    v = np.stack([covariance_integral(bank.record_clock_values, 1e-3, spec, 1.0,
                                      j * delta, (j + 1) * delta)
                  for j in range(n_blocks)], axis=1)
    decay = np.exp(-spec.lambdas * delta)
    big_v = np.zeros_like(v)
    for j in range(1, n_blocks):
        big_v[:, j] = decay ** 2 * big_v[:, j - 1] + v[:, j - 1]
    terms = chk[:, 1:-1] * (chk[:, 2:] - decay * chk[:, 1:-1]) \
        / np.sqrt(big_v[:, 1:] * v[:, 1:])
    se = 1.0 / math.sqrt(terms.shape[0] * terms.shape[1])
    assert np.all(np.abs(terms.mean(axis=(0, 1))) < 4.0 * se), terms.mean(axis=(0, 1)) / se


def test_one_normal_per_block_and_mode(spec3, monkeypatch):
    # Each record's Gaussian stream is asked for exactly n_blocks * dim normals.
    counts = {}
    make_rng = levybank.bank.make_rng

    class Counting:
        def __init__(self, key, rng):
            self.key, self.rng = key, rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, size=None, **kwargs):
            counts[self.key] = counts.get(self.key, 0) + int(np.prod(size or 1))
            return self.rng.standard_normal(size, **kwargs)

    monkeypatch.setattr(levybank.bank, "make_rng",
                        lambda *key: Counting(key, make_rng(*key)))
    generate_bank(spec3, 1e-3, 1e-2, 3, 5, 11)
    gauss = {key: n for key, n in counts.items() if key[1] == DOMAIN_RECORD_BLOCK_GAUSS}
    assert gauss == {(11, DOMAIN_RECORD_BLOCK_GAUSS, r): 100 * 3 for r in range(5)}


class OneWorker:
    """Stands in for the helper thread's pool: runs each submitted call at once."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, *args):
        done = Future()
        try:
            done.set_result(fn(*args))
        except BaseException as exc:
            done.set_exception(exc)
        return done


def bank_digest(bank) -> str:
    arrays = (bank.sub_values, bank.record_clock_values, bank.record_checkpoints)
    return hashlib.sha256(b"".join(a.dtype.str.encode() + a.tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("m_sub, m_ou, options", [
    (9, 13, {}),
    (0, 11, {}),
    (10, 0, {}),
    (5, 8, {"deterministic_clock": True}),
    (6, 9, {"precision": 4}),
], ids=["m_sub-ne-m_ou", "no-sub-paths", "no-records", "deterministic-clock", "precision-4"])
def test_bank_bytes_independent_of_chunks_and_workers(spec3, monkeypatch, m_sub, m_ou, options):
    # Every path and record draws from its own stream and every operation acts
    # row by row, so neither the chunk size nor the worker that takes a chunk
    # may move a byte, however often the threads interleave.  With two
    # workers, both must have drawn.
    want = bank_digest(generate_bank(spec3, 1e-3, 1e-2, m_sub, m_ou, 12, **options))
    make_rng = levybank.bank.make_rng
    for paths in (1, 7, max(m_sub, m_ou)):
        monkeypatch.setattr(levybank.bank, "GENERATE_CHUNK_BYTES", 8 * 1000 * paths)
        for pool in (OneWorker, levybank.bank.ThreadPoolExecutor):
            threads = set()

            def seen(*key):
                threads.add(threading.get_ident())
                return make_rng(*key)

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)   # hand the interpreter over often
            try:
                with monkeypatch.context() as m:
                    m.setattr(levybank.bank, "ThreadPoolExecutor", pool)
                    m.setattr(levybank.bank, "make_rng", seen)
                    got = generate_bank(spec3, 1e-3, 1e-2, m_sub, m_ou, 12, **options)
            finally:
                sys.setswitchinterval(switch)
            assert bank_digest(got) == want, (paths, pool)
            chunks = -(-m_sub // paths) + -(-m_ou // paths)
            if pool is OneWorker:
                assert threads <= {threading.get_ident()}
            elif chunks > 1 and not options.get("deterministic_clock"):
                assert len(threads) == 2, (paths, threads)


@pytest.mark.parametrize("record", [2, 3], ids=["caller", "helper"])
def test_generation_error_surfaces(spec3, monkeypatch, record):
    # One record per chunk and no sub paths: the calling thread takes the even
    # records and the helper the odd ones.  A stream that fails in either
    # surfaces as its own exception, and the helper thread is joined (the
    # autouse fixture fails a test that leaves a thread running).
    make_rng = levybank.bank.make_rng
    where = []

    def failing(seed, domain, index):
        if domain == DOMAIN_RECORD_CLOCK and index == record:
            where.append(threading.current_thread() is threading.main_thread())
            raise RuntimeError(f"no stream for record {index}")
        return make_rng(seed, domain, index)

    monkeypatch.setattr(levybank.bank, "GENERATE_CHUNK_BYTES", 8 * 1000)
    monkeypatch.setattr(levybank.bank, "make_rng", failing)
    with pytest.raises(RuntimeError, match=f"no stream for record {record}"):
        generate_bank(spec3, 1e-3, 1e-2, 0, 8, 12)
    assert where == [record % 2 == 0]


def test_precision_4_never_holds_the_f8_checkpoints():
    # Each chunk's float64 checkpoints are rounded into the float32 output as
    # the chunk finishes, so generation never holds the float64 checkpoints of
    # the whole bank, let alone them and their float32 copy (1.5 times their size).
    dim = 100
    spec = ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=dim,
                       lambdas=np.arange(1.0, dim + 1.0) ** 2, sigmas=np.ones(dim),
                       horizon=1.0)
    tracemalloc.start()
    try:
        bank = generate_bank(spec, 1e-3, 1e-2, 0, 300, 17, precision=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    f8_bytes = 8 * bank.record_checkpoints.size
    assert peak < f8_bytes, (peak, f8_bytes)


def test_sigma_rescaling_is_exact(spec3, bank3):
    clock = bank3.record_clock_values[5]
    cov1 = covariance_integral(clock, 1e-3, spec3, 1.0, 0.0, 1.0)
    cov2 = covariance_integral(clock, 1e-3, spec3, 2.0, 0.0, 1.0)
    assert np.array_equal(cov2, 4.0 * cov1)
    # Halving sigma and the radius halves the endpoint and the threshold
    # exactly, so v0 keeps its value and standard error to the bit.
    for s, t in ((0.0, 1.0), (0.2, 0.9)):
        half, unit = (v0_estimate(bank3, spec3, None,
                                  QueryParams(s=s, t=t, x=np.zeros(3), sigma_scale=scale,
                                              radius=scale, field=zero_field(),
                                              use_shift=False))
                      for scale in (0.5, 1.0))
        assert (half.value, half.std_error) == (unit.value, unit.std_error)


def test_queries_never_invoke_sampler(spec3, bank3, monkeypatch):
    # Re-querying an existing bank at a new sigma must be pure arithmetic.
    def boom(*args, **kwargs):
        raise AssertionError("stable sampler invoked during a bank query")

    monkeypatch.setattr(levybank.stable, "sample_stable_increment", boom)
    monkeypatch.setattr(levybank.estimators, "sample_stable_increment", boom)
    monkeypatch.setattr(levybank.stable, "kanter_transform", boom)
    monkeypatch.setattr(levybank.bank, "kanter_transform", boom)
    q = QueryParams(s=0.0, t=1.0, x=np.full(3, 0.3), sigma_scale=0.7, radius=1.0,
                    field=sine_field(), use_shift=False)
    v0_estimate(bank3, spec3, None, q)
    v1_estimate(bank3, spec3, None, q, 0.1, 50)
    ou_gradient(bank3, spec3, None, q, np.ones(3))


def test_grid_divisibility_enforced(spec3):
    with pytest.raises(ValueError):
        generate_bank(spec3, 3e-3, 1e-2, 2, 2, 0)


def test_sub_only_bank(spec3):
    bank = generate_bank(spec3, 1e-3, 1e-2, 5, 0, 1)
    assert bank.m_ou == 0
    assert bank.record_checkpoints.shape == (0, 101, 3)
    full = generate_bank(spec3, 1e-3, 1e-2, 5, 3, 1)
    assert np.array_equal(bank.sub_values, full.sub_values)


def test_save_load_roundtrip(tmp_path, spec3, bank3):
    path = tmp_path / "bank.lvib"
    save_bank(bank3, path)
    loaded = load_bank(path, expected_spec=spec3)
    assert loaded.header == bank3.header
    assert np.array_equal(loaded.sub_values, bank3.sub_values)
    assert np.array_equal(loaded.record_clock_values, bank3.record_clock_values)
    assert np.array_equal(loaded.record_checkpoints, bank3.record_checkpoints)


def test_half_precision_roundtrip(tmp_path, spec3):
    bank = generate_bank(spec3, 1e-3, 1e-2, 2, 20, 7, precision=4)
    full = generate_bank(spec3, 1e-3, 1e-2, 2, 20, 7)
    # The recurrence runs in float64 at either precision; 4 rounds the result.
    assert np.array_equal(bank.record_checkpoints, full.record_checkpoints.astype(np.float32))
    p8 = tmp_path / "full.lvib"
    p4 = tmp_path / "half.lvib"
    save_bank(full, p8)
    save_bank(bank, p4)
    assert p4.stat().st_size < p8.stat().st_size
    loaded = load_bank(p4, expected_spec=spec3)
    assert loaded.header.precision == 4
    assert np.array_equal(loaded.record_checkpoints, bank.record_checkpoints)
    # Checkpoints survive the float32 round trip; clocks stay full precision.
    assert np.array_equal(loaded.record_clock_values, bank.record_clock_values)


def test_load_rejects_garbage(tmp_path, spec3, bank3):
    path = tmp_path / "bank.lvib"
    save_bank(bank3, path)
    raw = path.read_bytes()

    truncated = tmp_path / "short.lvib"
    truncated.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(ValueError):
        load_bank(truncated)

    padded = tmp_path / "long.lvib"
    padded.write_bytes(raw + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_bank(padded)

    bad_magic = tmp_path / "magic.lvib"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_bank(bad_magic)


def test_load_rejects_format_version_1(tmp_path, spec3):
    # A version-1 file: 100-byte header, then a payload of the stated size.
    bank = generate_bank(spec3, 1e-3, 1e-2, 1, 1, 0)
    header = struct.pack("<4sI32sdddIQQQB7x", MAGIC, 1, spec3.content_hash(),
                         1e-3, 1e-2, 1.0, 3, 1, 1, 0, 8)
    path = tmp_path / "v1.lvib"
    path.write_bytes(header + bank.sub_values.tobytes() + bank.record_clock_values.tobytes()
                     + bank.record_checkpoints.tobytes())
    with pytest.raises(ValueError, match="predates exact block sampling.*regenerate"):
        load_bank(path)


def test_load_rejects_wrong_spec(tmp_path, spec3, bank3):
    path = tmp_path / "bank.lvib"
    save_bank(bank3, path)
    other = ProblemSpec(alpha=0.65, gamma_bar=1.0, dim=3,
                        lambdas=np.array([1.0, 4.0, 9.0]), sigmas=np.ones(3),
                        horizon=1.0)
    with pytest.raises(SpecMismatchError, match="spec"):
        load_bank(path, expected_spec=other)


def test_file_layout_golden(tmp_path, spec3, bank3):
    # Parse the file with struct/frombuffer only, no bank code, to pin the
    # on-disk layout: header then three contiguous little-endian sections.
    path = tmp_path / "bank.lvib"
    save_bank(bank3, path)
    raw = path.read_bytes()
    head = struct.calcsize(HEADER_FMT)
    assert head == 104
    (magic, version, spec_hash, d_fine, d_coarse, horizon,
     dim, m_sub, m_ou, seed, precision) = struct.unpack(HEADER_FMT, raw[:head])
    assert magic == MAGIC == b"LVIB"
    assert version == FORMAT_VERSION == 2
    assert spec_hash == spec3.content_hash()
    assert (d_fine, d_coarse, horizon) == (1e-3, 1e-2, 1.0)
    assert (dim, m_sub, m_ou, seed, precision) == (3, 400, 400, 99, 8)

    n_fine, n_chk = 1001, 101
    sizes = [m_sub * n_fine * 8, m_ou * n_fine * 8, m_ou * n_chk * dim * 8]
    assert len(raw) == head + sum(sizes)
    off = head
    sub = np.frombuffer(raw, dtype="<f8", count=m_sub * n_fine, offset=off)
    off += sizes[0]
    clocks = np.frombuffer(raw, dtype="<f8", count=m_ou * n_fine, offset=off)
    off += sizes[1]
    chk = np.frombuffer(raw, dtype="<f8", count=m_ou * n_chk * dim, offset=off)
    assert np.array_equal(sub.reshape(m_sub, n_fine), bank3.sub_values)
    assert np.array_equal(clocks.reshape(m_ou, n_fine), bank3.record_clock_values)
    assert np.array_equal(chk.reshape(m_ou, n_chk, dim), bank3.record_checkpoints)
