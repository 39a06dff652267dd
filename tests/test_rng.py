"""cbfrrt.rng's stream held to the installed numpy: pcg64_raw's words to
PCG64.random_raw, and standard_normal's draws to Generator.standard_normal,
bit for bit."""

import numpy as np
import pytest

from cbfrrt import rng
from cbfrrt.rng import pcg64_raw, standard_normal

# From five 32-bit words up (2^128 and wider), a seed runs SeedSequence's
# second mixing loop; 2^64 - 1 and 2^64 straddle a word boundary.
WIDE_SEEDS = (2**32 + 5, 2**64 - 1, 2**64, 2**70 + 3, 2**96 + 7, 2**128 + 1,
              2**200 + 12345, 10**60, 123456789)


@pytest.mark.parametrize("seeds", [range(200), WIDE_SEEDS], ids=["0-199", "wide"])
def test_words_match_numpy_pcg64(seeds):
    for seed in seeds:
        raw = pcg64_raw(seed)
        want = np.random.PCG64(seed).random_raw(400).tolist()
        assert [raw() for _ in want] == want, seed


def test_an_integer_of_another_type_seeds_as_its_value():
    assert pcg64_raw(np.uint64(2**64 - 1))() == pcg64_raw(2**64 - 1)()


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError),
                                         ("1", TypeError)])
def test_seeds_numpy_refuses_are_refused(seed, error):
    with pytest.raises(error):
        np.random.PCG64(seed)
    with pytest.raises(error):
        pcg64_raw(seed)


def test_normals_match_numpy_bit_for_bit():
    # 50 seeds x 10,000 draws; hex tells -0.0 from 0.0. A draw that read two
    # words left the rectangle and was accepted in a wedge; a draw beyond r
    # came from the tail. Both branches must be reached for the test to
    # hold them to numpy.
    draws_per_seed = 10_000
    wedge = tail = 0
    for seed in range(50):
        raw = pcg64_raw(seed)
        words = 0

        def counted():
            nonlocal words
            words += 1
            return raw()

        normal = standard_normal(counted)
        want = np.random.default_rng(seed).standard_normal(draws_per_seed).tolist()
        for i, expected in enumerate(want):
            before = words
            got = normal()
            assert got.hex() == expected.hex(), (seed, i, got, expected)
            wedge += words - before == 2
            tail += abs(got) > rng._R
    assert wedge > 0 and tail > 0, (wedge, tail)

