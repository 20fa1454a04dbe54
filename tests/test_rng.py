"""Seed derivation: determinism, the golden mixing vector, and injectivity."""

from finipost.rng import derive_key, derive_seed, splitmix64, state_from_key

GOLDEN_KEY = 0x238275BC38FCBE91


def test_golden_vector():
    assert derive_key(0, 0, 0) == GOLDEN_KEY


def test_determinism():
    a = derive_seed(12345, 6, 7)
    b = derive_seed(12345, 6, 7)
    assert a.random(8).tolist() == b.random(8).tolist()


def test_distinct_streams():
    base = derive_seed(99, 0, 0).random(4).tolist()
    assert derive_seed(99, 1, 0).random(4).tolist() != base
    assert derive_seed(99, 0, 1).random(4).tolist() != base


def test_splitmix_is_bijective_step():
    # Distinct inputs to a single round stay distinct on a dense sample.
    xs = {splitmix64(i) for i in range(100000)}
    assert len(xs) == 100000


def test_key_injectivity_on_a_million_triples():
    keys = set()
    for master in (0, 42, 2**63):
        for replicate in range(500):
            for stream in range(667):
                keys.add(derive_key(master, replicate, stream))
    assert len(keys) == 3 * 500 * 667


def test_same_key_same_stream():
    k = derive_key(7, 3, 1)
    assert state_from_key(k).standard_normal(5).tolist() == state_from_key(k).standard_normal(5).tolist()
