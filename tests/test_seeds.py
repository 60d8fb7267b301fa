import numpy as np
import pytest

from bellatrex._seeds import (
    derive_seeds,
    entropy_words,
    generator_keys,
    keyed_generator,
    seed_states,
)
from bellatrex.explain import derive_seed
from bellatrex.numeric import sorted_rows


@pytest.mark.parametrize("length", range(1, 10))
def test_seed_states_equal_seed_sequence(length):
    # entropies shorter than, equal to and longer than the pool of four
    # words, zero words among them
    rng = np.random.default_rng(90 + length)
    entropy = rng.integers(0, 2**32, size=(40, length), dtype=np.uint64).astype(np.uint32)
    entropy[:4] = 0
    entropy[4, 0] = 2**32 - 1
    for n_words in (1, 3, 4, 8, 9):
        got = seed_states(entropy, n_words)
        for row, words in zip(entropy, got):
            expected = np.random.SeedSequence([int(v) for v in row]).generate_state(n_words)
            assert words.dtype == expected.dtype and words.tobytes() == expected.tobytes()


def test_entropy_words_split_integers_as_seed_sequence_does():
    assert entropy_words(0) == [0]
    assert entropy_words(2**32 - 1) == [2**32 - 1]
    assert entropy_words(2**32) == [0, 1]
    assert entropy_words(3 * 2**64 + 5) == [5, 0, 3]
    with pytest.raises(ValueError):
        entropy_words(-1)


def test_derive_seeds_equal_derive_seed():
    parts = [(0, 0), (9, 26), (2**32 - 1, 3), (2**32, 1), (2**70 + 11, 5), (12, 2**40)]
    parts += [(int(s), i) for s, i in np.random.default_rng(3).integers(0, 2**32, size=(30, 2))]
    assert derive_seeds(parts) == [derive_seed(*p) for p in parts]
    assert derive_seeds([]) == []


def test_keyed_generators_draw_as_default_rng():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**70 + 5] + list(range(100, 130))
    for seed, key in zip(seeds, generator_keys(seeds)):
        got, expected = keyed_generator(key), np.random.default_rng(seed)
        assert got.integers(97) == expected.integers(97)
        assert got.random(5).tobytes() == expected.random(5).tobytes()
        assert got.bit_generator.state == expected.bit_generator.state


def test_kmeans_with_a_keyed_generator_equals_kmeans_with_its_seed():
    rows = sorted_rows(np.random.default_rng(4).normal(size=(30, 3)))
    for seed, key in zip((5, 77), generator_keys([5, 77])):
        a = rows.kmeans(3, seed)
        b = rows.kmeans(3, keyed_generator(key))
        for x, y in ((a.centroids, b.centroids), (a.assignments, b.assignments),
                     (a.sizes, b.sizes), (a.representatives, b.representatives)):
            assert x.tobytes() == y.tobytes()
