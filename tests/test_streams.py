import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levybank.streams import (DOMAIN_BENCHMARK, DOMAIN_RECORD_BLOCK_GAUSS,
                              DOMAIN_RECORD_CLOCK, DOMAIN_RECORD_GAUSS,
                              DOMAIN_SELECTION, DOMAIN_SUB_PATH, DOMAIN_VALIDATE,
                              make_rng, seed_sequence)

ALL_DOMAINS = (DOMAIN_SUB_PATH, DOMAIN_RECORD_CLOCK, DOMAIN_RECORD_GAUSS,
               DOMAIN_BENCHMARK, DOMAIN_VALIDATE, DOMAIN_SELECTION,
               DOMAIN_RECORD_BLOCK_GAUSS)


def test_domains_are_distinct_and_part_of_the_file_contract():
    assert len(set(ALL_DOMAINS)) == len(ALL_DOMAINS)
    # frozen values: changing any of these silently changes every bank;
    # 3 drew format-1 checkpoints and stays reserved
    assert ALL_DOMAINS == (1, 2, 3, 4, 5, 6, 7)


@pytest.mark.parametrize("domain,index", [(-1, 0), (256, 0), (0, -1), (0, 1 << 56)])
def test_stream_key_rejects_out_of_range(domain, index):
    # a stream key (domain, index) outside [0, 256) x [0, 2^56) is refused
    with pytest.raises(ValueError):
        seed_sequence(0, domain, index)


def test_seed_sequence_entropy_is_the_triple():
    ss = seed_sequence(2024, DOMAIN_RECORD_CLOCK, 41)
    assert ss.entropy == (2024, DOMAIN_RECORD_CLOCK, 41)
    assert seed_sequence(0, 255, (1 << 56) - 1).entropy == (0, 255, (1 << 56) - 1)
    with pytest.raises(ValueError):
        seed_sequence(-1, DOMAIN_SUB_PATH, 0)


@settings(max_examples=50, deadline=None)
@given(base=st.integers(0, 2**63 - 1), domain=st.integers(0, 255),
       index=st.integers(0, 2**56 - 1))
def test_make_rng_deterministic(base, domain, index):
    a = make_rng(base, domain, index).standard_normal(4)
    b = make_rng(base, domain, index).standard_normal(4)
    assert np.array_equal(a, b)


def test_neighbouring_streams_do_not_collide():
    # same index across domains, and same domain across indices and seeds,
    # must all yield distinct draws: records regenerate in isolation
    draws = [tuple(make_rng(2024, d, 0).standard_normal(3)) for d in ALL_DOMAINS]
    draws += [tuple(make_rng(2024, DOMAIN_SUB_PATH, i).standard_normal(3))
              for i in (1, 2, 3)]
    draws += [tuple(make_rng(2025, DOMAIN_SUB_PATH, 0).standard_normal(3))]
    assert len(set(draws)) == len(draws)
