"""Reproducible random-number streams derived from a single base seed.

Every stochastic object in the engine draws from its own numpy Generator whose
SeedSequence entropy is the tuple (base_seed, domain, index).  Domains separate
the independent families (subordinator-only paths, record clocks, record
block Gaussians, benchmark paths, ...); the index enumerates objects within a
family.  The derivation is injective because SeedSequence hashes the entropy tuple
componentwise, so path i of a bank can be regenerated in isolation and distinct
objects never share a stream.  Domains lie in [0, 256) and indices in
[0, 2^56).
"""

from __future__ import annotations

import numpy as np

# Stream families.  Values are part of the bank file contract: changing them
# changes every generated path.
DOMAIN_SUB_PATH = 1       # subordinator-only paths (the omega_0.. draws)
DOMAIN_RECORD_CLOCK = 2   # the clock L of a convolution record
DOMAIN_RECORD_GAUSS = 3   # reserved: per-fine-step normals of format-1 banks
DOMAIN_BENCHMARK = 4      # Euler-Maruyama benchmark paths
DOMAIN_VALIDATE = 5       # sampler validation draws
DOMAIN_SELECTION = 6      # estimator subsample/pairing permutations
DOMAIN_RECORD_BLOCK_GAUSS = 7  # one normal per (checkpoint block, mode) of a record

_MAX_INDEX = 1 << 56


def seed_sequence(base_seed: int, domain: int, index: int) -> np.random.SeedSequence:
    """SeedSequence for stream (base_seed, domain, index)."""
    if base_seed < 0:
        raise ValueError(f"base seed must be nonnegative, got {base_seed}")
    if not 0 <= domain < 256:
        raise ValueError(f"domain out of range: {domain}")
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"index out of range: {index}")
    return np.random.SeedSequence(entropy=(base_seed, domain, index))


def make_rng(base_seed: int, domain: int, index: int) -> np.random.Generator:
    """Fresh PCG64 generator for stream (base_seed, domain, index)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(base_seed, domain, index)))
