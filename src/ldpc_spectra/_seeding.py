"""numpy's SeedSequence and PCG64 seeding for a block of seeds at once.

seed_state is SeedSequence's entropy mixing and generate_state, written
once in masked 32-bit arithmetic, so that it runs on Python ints and on
uint64 arrays with one element per seed alike and gives the state words
numpy's SeedSequence gives (tests/test_sim.py checks them against it, and
the generators against PCG64(SeedSequence(...))).  StateWords hands such
words to PCG64, which seeds itself from them as numpy does.

StateWords subclasses numpy.random.bit_generator.ISeedSequence, so
importing this module imports numpy.random (about 16 ms and 6 MB on a
2-core host); sim.monte_carlo imports it when it runs, and commands that
draw no code never do.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy SeedSequence's hash constants (numpy/random/bit_generator.pyx).
MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def int_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int, one word for 0: the
    entropy words SeedSequence makes of it.
    """
    words = [value & MASK32]
    while value := value >> 32:
        words.append(value & MASK32)
    return words


def seed_state(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(4, np.uint64) as four words.

    entropy lists the 32-bit entropy words; each is a Python int, or a
    uint64 array holding that word of every seed of a block, which makes
    the result arrays of one state word per seed.  Every product is masked
    to 32 bits, so a uint64 array never overflows and ints and arrays hash
    alike.
    """
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = INIT_B
    state = []
    for i in range(8):  # eight uint32 words
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        state.append(value ^ value >> 16)
    # uint32 pairs read as little-endian uint64 words
    return [state[2 * j] | state[2 * j + 1] << 32 for j in range(4)]


def trial_states(seed: int, trials: range) -> np.ndarray:
    """generate_state(4, np.uint64) of SeedSequence((seed, t)) for each t in
    trials, a (len(trials), 4) uint64 array.

    Trials are hashed a run at a time, a run ending at each multiple of
    2**32, so that within a run only the lowest word of t varies.
    """
    head = int_words(seed)
    runs = []
    start = trials.start
    while start < trials.stop:
        stop = min(trials.stop, ((start >> 32) + 1) << 32)
        low = start & MASK32
        words = [np.arange(low, low + stop - start, dtype=np.uint64), *int_words(start)[1:]]
        runs.append(np.stack(seed_state(head + words), axis=1))
        start = stop
    return np.concatenate(runs)


class StateWords(ISeedSequence):
    """A seed sequence whose state words are already computed.

    PCG64 asks its seed sequence for generate_state(4, np.uint64) and seeds
    itself from the answer, so given these words it is the PCG64 keyed by
    the SeedSequence that produced them.  words holds four uint64 values;
    any other request than PCG64's raises, since these words answer no other.
    """

    def __init__(self, words: np.ndarray):
        self.words = np.ascontiguousarray(words, np.uint64)
        if self.words.shape != (4,):
            raise ValueError(f"expected four state words, got shape {self.words.shape}")

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"state words are four uint64, asked for {n_words} {np.dtype(dtype)}")
        return self.words
