"""numpy's ``SeedSequence`` hash for many entropies at once.

``np.random.SeedSequence(entropy).generate_state(n)`` spends most of its
time in the hash that mixes the entropy words into a pool of four 32-bit
words and draws the state from the pool, and the explainer calls it twice
for every grid cell with K > 1: once in ``derive_seed`` for the cell's seed,
once in ``np.random.default_rng`` for the generator that seed keys.  The
hash uses the same sequence of multipliers whatever the entropy is, so
``seed_states`` runs it on the rows of a uint32 array as a fixed list of
array operations, bit for bit the words that ``SeedSequence`` gives
(``test_seed_states_equal_seed_sequence`` pins this); ``derive_seeds``
gives many ``derive_seed`` values at once, and ``keyed_generator`` builds
the generator of a ``generator_keys`` key as ``np.random.default_rng``
builds it from the seed.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MASK = 0xFFFFFFFF


def _constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash's running constant before and after each of ``count``
    calls: a call XORs its value with the first and multiplies it by the
    second."""
    before = [init]
    for _ in range(count):
        before.append(before[-1] * mult & _MASK)
    words = np.array(before, dtype=np.uint32)
    return words[:-1], words[1:]


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _SHIFT)


def entropy_words(value: int) -> list[int]:
    """The 32-bit words, least significant first, that ``SeedSequence``
    makes of a non-negative integer entropy (0 is one word)."""
    if value < 0:
        raise ValueError("seeds must be non-negative")
    words = [value & _MASK]
    value >>= 32
    while value:
        words.append(value & _MASK)
        value >>= 32
    return words


def seed_states(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """(m, n_words) uint32 array whose row i is
    ``np.random.SeedSequence(entropy[i].tolist()).generate_state(n_words)``
    for the (m, L) uint32 entropy words, L >= 1 (an integer entropy is the
    list of its ``entropy_words``)."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    m, length = entropy.shape
    xor, mult = _constants(_INIT_A, _MULT_A,
                           _POOL + _POOL * (_POOL - 1) + _POOL * max(0, length - _POOL))
    pool = np.zeros((m, _POOL), dtype=np.uint32)
    pool[:, :min(length, _POOL)] = entropy[:, :_POOL]
    pool = _hash(pool, xor[:_POOL], mult[:_POOL])
    call = _POOL
    for src in range(_POOL):
        # the pool's other words, each mixed with its own hash of word src
        dst = [j for j in range(_POOL) if j != src]
        hashed = _hash(pool[:, src:src + 1], xor[call:call + 3], mult[call:call + 3])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        call += _POOL - 1
    for src in range(_POOL, length):
        hashed = _hash(entropy[:, src:src + 1], xor[call:call + _POOL], mult[call:call + _POOL])
        pool = _mix(pool, hashed)
        call += _POOL
    xor, mult = _constants(_INIT_B, _MULT_B, n_words)
    return _hash(pool[:, np.arange(n_words) % _POOL], xor, mult)


class _State(ISeedSequence):
    """A seed sequence that hands over the PCG64 key computed for it."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a PCG64 key is four uint64 words")
        return self.key


def _grouped_states(entropies: list[list[int]], n_words: int) -> list[np.ndarray]:
    """``seed_states`` of entropy word lists of any lengths, run once per
    length; row i of the result belongs to ``entropies[i]``."""
    out: list[np.ndarray | None] = [None] * len(entropies)
    by_length: dict[int, list[int]] = {}
    for i, words in enumerate(entropies):
        by_length.setdefault(len(words), []).append(i)
    for rows in by_length.values():
        state = seed_states(np.array([entropies[i] for i in rows], dtype=np.uint32), n_words)
        for i, row in zip(rows, state):
            out[i] = row
    return out


def derive_seeds(parts: Sequence[Sequence[int]]) -> list[int]:
    """``explain.derive_seed(*p)`` of every entry p of ``parts``: the first
    word of the seed sequence of the parts' words."""
    entropies = [[w for part in p for w in entropy_words(int(part))] for p in parts]
    return [int(row[0]) for row in _grouped_states(entropies, 1)]


def generator_keys(seeds: Sequence[int]) -> list[np.ndarray]:
    """The PCG64 key that ``np.random.default_rng(seed)`` draws from its
    seed sequence, of every seed: four uint64 words, from eight uint32
    words taken in pairs, low word first."""
    states = _grouped_states([entropy_words(int(seed)) for seed in seeds], 8)
    return [np.ascontiguousarray(state, "<u4").view("<u8").astype(np.uint64) for state in states]


def keyed_generator(key: np.ndarray) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for the ``generator_keys`` of seed."""
    return np.random.Generator(np.random.PCG64(_State(key)))
